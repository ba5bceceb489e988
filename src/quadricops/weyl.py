"""The Weyl algebra of polynomial differential operators in 2k variables.

Operators are stored in x-left normal order: each term is x^alpha d^beta with
the multiplication part on the left.  The exchange rule d*x = x*d + 1 per
conjugate pair produces the general reordering identities

    d^b x^a = sum_t  C(b,t) C(a,t) t!  x^(a-t) d^(b-t)        (x-left)
    x^a d^b = sum_t (-1)^|t| C(b,t) C(a,t) t!  d^(b-t) x^(a-t) (d-left)

applied independently in each variable.  Both one-sided normal forms are
unique, which is what makes the two right-division tests below decisive.
``reorder`` applies either identity to a whole term map; ``WeylOp.dleft``,
``WeylOp.from_dleft`` and ``coneops.tau`` all go through it.  ``_bucket``
groups a term map by its multiplication or its derivative part, for
``dleft``, ``xleft`` and ``xleft_coeffs``.

For terms u = x^a1 d^b1 and v = x^a2 d^b2 the first identity gives

    [u, v] = sum_(t != 0)  C(b1,t) C(a2,t) t!  x^(a1+a2-t) d^(b1+b2-t)
           - sum_(t != 0)  C(b2,t) C(a1,t) t!  x^(a1+a2-t) d^(b1+b2-t):

the t = 0 term of u v and that of v u are both x^(a1+a2) d^(b1+b2) with
weight 1, so they cancel, and a pair with d^b1 prime to x^a2 and d^b2 prime
to x^a1 commutes.  ``WeylOp.commutator`` sums the identity over pairs of
terms and never forms the two products.  The product kernel
``_product_terms`` and the commutator kernel ``_commutator_terms`` both run
in the product frame of ``poly.TermMap``, on integer numerators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter

from .poly import (EMAX, FIELD, Poly, TermMap, add_terms, check_degrees,
                   default_names, divides_exactly, dual, falling, falling_spec,
                   guard, mdegree, monomials, mono_text, pack, qcoef, restrict,
                   signed_text, support, unit, unpack)


class NotDivisible(Exception):
    """Raised when a right-division has no exact quotient."""


@lru_cache(maxsize=1 << 12)
def _exchange_terms(b: int, a: int, n: int) -> tuple:
    """Terms of d^b x^a in x-left order: (t, weight) over 0 <= t <= min(b, a)
    with weight = prod C(b_i,t_i) C(a_i,t_i) t_i!, t packed; the caller
    assembles x^(a-t) d^(b-t).  The first term is t = 0, of weight 1.

    Only the variables that b and a share matter, so callers pass both
    restricted to them, which keeps the memo small.
    """
    b, a = unpack(b, n), unpack(a, n)
    hot = [i for i in range(n) if b[i] and a[i]]
    out = []
    for combo in itertools.product(*(range(min(b[i], a[i]) + 1) for i in hot)):
        t = [0] * n
        w = 1
        for i, ti in zip(hot, combo):
            t[i] = ti
            w *= comb(b[i], ti) * comb(a[i], ti) * factorial(ti)
        out.append((pack(t), w))
    return tuple(out)


def reorder(terms: dict, n: int, sign: int) -> dict:
    """The other normal order of a term map {(a, b): c}: with sign = 1 each
    key stands for d^b x^a and the result is x-left, with sign = -1 each key
    stands for x^a d^b and the result is d-left.  By the identities of the
    module docstring the term of t has key (a - t, b - t) and weight
    sign^|t| C(b,t) C(a,t) t! in either direction."""
    out: dict = {}
    for (a, b), c in terms.items():
        shared = support(b, n) & support(a, n)
        add_terms(out, (((a - t, b - t), sign ** mdegree(t, n) * w * c)
                        for t, w in _exchange_terms(restrict(b, shared),
                                                    restrict(a, shared), n)))
    return out


def _bucket(terms: dict, n: int, side: int) -> dict:
    """The term map {(alpha, beta): c} grouped by its part at index side (0
    for alpha, 1 for beta), as {packed part: Poly in the other part}."""
    out: dict = {}
    for ab, c in terms.items():
        out.setdefault(ab[side], {})[ab[1 - side]] = c
    return {part: Poly._of(n, tm) for part, tm in out.items()}


def _product_terms(t1: dict, t2: dict, n: int) -> dict:
    """The term map of the product of two term maps: for each pair of
    terms, d^b1 x^a2 reordered into x-left form."""
    terms: dict = {}
    get = terms.get
    items = [(a2, b2, c2, support(a2, n)) for (a2, b2), c2 in t2.items()]
    for (a1, b1), c1 in t1.items():
        s1 = support(b1, n)
        for a2, b2, c2, s2 in items:
            shared = s1 & s2
            if shared:
                a12, b12, c12 = a1 + a2, b1 + b2, c1 * c2
                for t, w in _exchange_terms(restrict(b1, shared),
                                            restrict(a2, shared), n):
                    ab = (a12 - t, b12 - t)
                    s = get(ab, 0) + c12 * w
                    if s:
                        terms[ab] = s
                    else:
                        del terms[ab]
            else:
                # d^b1 and x^a2 share no variable: they commute
                ab = (a1 + a2, b1 + b2)
                s = get(ab, 0) + c1 * c2
                if s:
                    terms[ab] = s
                else:
                    del terms[ab]
    return terms


def _commutator_terms(t1: dict, t2: dict, n: int) -> dict:
    """The term map of the commutator of two term maps: for each pair of
    terms, the t != 0 exchange terms of d^b1 x^a2 minus those of d^b2 x^a1.
    A pair whose derivative parts share no variable with the other's
    multiplication part commutes and is skipped."""
    terms: dict = {}
    get = terms.get
    items = [(a2, b2, c2, support(a2, n), support(b2, n))
             for (a2, b2), c2 in t2.items()]
    for (a1, b1), c1 in t1.items():
        sa1, sb1 = support(a1, n), support(b1, n)
        for a2, b2, c2, sa2, sb2 in items:
            fwd, bwd = sb1 & sa2, sb2 & sa1
            if not (fwd or bwd):
                continue
            a12, b12, c12 = a1 + a2, b1 + b2, c1 * c2
            if fwd:
                for t, w in _exchange_terms(restrict(b1, fwd),
                                            restrict(a2, fwd), n)[1:]:
                    ab = (a12 - t, b12 - t)
                    s = get(ab, 0) + c12 * w
                    if s:
                        terms[ab] = s
                    else:
                        del terms[ab]
            if bwd:
                for t, w in _exchange_terms(restrict(b2, bwd),
                                            restrict(a1, bwd), n)[1:]:
                    ab = (a12 - t, b12 - t)
                    s = get(ab, 0) - c12 * w
                    if s:
                        terms[ab] = s
                    else:
                        del terms[ab]
    return terms



class WeylOp(TermMap):
    """Sparse normal-ordered operator: map (alpha, beta) -> coefficient.

    The key (alpha, beta) stands for the term x^alpha d^beta.  alpha and
    beta are packed monomials in the ``Poly`` layout of nvars variables
    (see ``poly``): so each is one ``int`` with the total degree in its top
    field, every exponent and total degree at most ``poly.EMAX``, and a
    product or an action that would exceed it raises ``ExponentOverflow``.
    ``WeylOp(nvars, terms)`` takes packed keys; ``from_exponents`` takes
    exponent tuples, and ``sorted_terms`` and ``text`` give tuples back.
    Coefficients, sums, scaling and the frame of the product are those of
    ``poly.TermMap``; this class gives the product kernel
    ``_product_terms``, its degree bound, and the commutator, which runs
    ``_commutator_terms`` in the same frame.
    """

    __slots__ = ()

    ONE = (0, 0)

    @staticmethod
    def _monomials(key):
        """key for a pair of ints (alpha, beta), else None."""
        if (isinstance(key, tuple) and len(key) == 2
                and isinstance(key[0], int) and isinstance(key[1], int)):
            return key
        return None

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, nvars: int) -> "WeylOp":
        return cls.const(nvars, 1)

    @classmethod
    def mult(cls, p: Poly) -> "WeylOp":
        """Multiplication by the polynomial p."""
        return cls._of(p.nvars, {(m, 0): c for m, c in p.terms.items()})

    @classmethod
    def partial(cls, nvars: int, i: int, c=1) -> "WeylOp":
        c = qcoef(c)
        return cls._of(nvars, {(0, unit(nvars, i)): c} if c else {})

    @classmethod
    def from_exponents(cls, nvars: int, terms: dict) -> "WeylOp":
        """Build from {(alpha tuple, beta tuple): coefficient}."""
        return cls(nvars, {(pack(a, nvars), pack(b, nvars)): c
                           for (a, b), c in terms.items()})

    @classmethod
    def from_dleft(cls, nvars: int, coeffs: dict) -> "WeylOp":
        """Rebuild from a d-left form {packed beta: Poly coefficient}: each
        term d^beta x^alpha is reordered into x-left form by ``reorder``."""
        return cls._of(nvars, reorder({(alpha, beta): c
                                       for beta, p in coeffs.items()
                                       for alpha, c in p.terms.items()},
                                      nvars, 1))

    # -- structure -----------------------------------------------------------

    def order(self) -> int:
        """Maximal |beta|; -1 for the zero operator."""
        if not self.terms:
            return -1
        return mdegree(max(b for _, b in self.terms), self.nvars)

    # -- multiplication ------------------------------------------------------

    # bound in the class body, where the benchmark's tracer looks it up
    __mul__ = TermMap.__mul__
    _product = staticmethod(_product_terms)

    @staticmethod
    def _bound(t1: dict, t2: dict, n: int) -> None:
        """The degree bounds of the product, which bound every key of the
        commutator too."""
        # the largest key has the largest alpha
        check_degrees(max(t1)[0], max(t2)[0], n)
        check_degrees(max(map(itemgetter(1), t1)),
                      max(map(itemgetter(1), t2)), n)

    def commutator(self, other: "WeylOp") -> "WeylOp":
        """[self, other] from the exchange terms that do not cancel (see the
        module docstring), without forming the two products."""
        return self._bilinear(other, _commutator_terms)

    # -- action on functions --------------------------------------------------

    def apply(self, f):
        """Apply to a Poly in the same variables, exactly; raises ValueError
        for a Poly in another number of variables.

        On the Q-Laurent class the Laplacian acts by
        ``harmonic.laplacian_qlaurent``.
        """
        if isinstance(f, Poly):
            self._check(f)
            return self._apply_poly(f)
        raise TypeError(f"cannot apply operator to {type(f).__name__}")

    def _apply_poly(self, f: Poly) -> Poly:
        """One derivative part b at a time: x^a d^b sends each monomial x^m
        that b divides to x^(m + (a - b)), times a weight.  Each part is
        bounded by its largest a and the largest x^m it divides before any
        of its terms is stored, so a part that kills f cannot overflow."""
        n, g = self.nvars, guard(self.nvars)
        buckets: dict = {}
        for (a, b), c in self.terms.items():
            buckets.setdefault(b, []).append((a - b, c))
        terms: dict = {}
        get = terms.get
        for b, offsets in buckets.items():
            kept = [(m, cm) for m, cm in f.terms.items() if not (m - b) & g]
            if not kept:
                continue  # d^b kills f
            # keys are unique, so max compares the monomials alone
            check_degrees(max(offsets)[0] + b, max(kept)[0] - b, n)
            spec = falling_spec(b, n)
            for m, cm in kept:
                w = cm * falling(m, spec) if spec else cm
                for off, c in offsets:
                    mono = m + off
                    s = get(mono, 0) + c * w
                    if s:
                        terms[mono] = s
                    else:
                        del terms[mono]
        return Poly._of(n, terms)

    # -- normal forms and division --------------------------------------------

    def dleft(self) -> dict:
        """The d-left normal form as a map {packed beta: Poly coefficient}."""
        return _bucket(reorder(self.terms, self.nvars, -1), self.nvars, 1)

    def xleft(self) -> dict:
        """The stored x-left form grouped by derivative part, as
        {packed beta: Poly coefficient}; the coefficient acts after d^beta."""
        return _bucket(self.terms, self.nvars, 1)

    def xleft_coeffs(self) -> dict:
        """The stored x-left form as {packed alpha: Poly in the d-symbols}."""
        return _bucket(self.terms, self.nvars, 0)

    def divide_right_by_mult(self, q: Poly) -> "WeylOp":
        """Solve w = u * (mult by q); raise NotDivisible if impossible.

        In d-left form w = sum d^beta v_beta(x), right-composing with a
        multiplication operator multiplies each d-left coefficient by q, so
        the quotient exists iff every v_beta is exactly divisible by q.
        """
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        coeffs = self.dleft()
        quo: dict = {}
        for beta, v in coeffs.items():
            u = divides_exactly(q, v)
            if u is None:
                raise NotDivisible("d-left coefficient at "
                                   f"beta={unpack(beta, self.nvars)} not divisible")
            quo[beta] = u
        return WeylOp.from_dleft(self.nvars, quo)

    def divide_right_by_constcoef(self, d: "WeylOp") -> "WeylOp":
        """Solve w = u * d for a constant-coefficient d.

        In x-left form w = sum x^alpha q_alpha(d); right-multiplying by d(d)
        multiplies each q_alpha by the symbol polynomial of d, so the quotient
        exists iff every q_alpha is divisible by that symbol.
        """
        if any(a for a, _ in d.terms):
            raise ValueError("divisor must have constant coefficients")
        if d.is_zero():
            raise ZeroDivisionError("division by the zero operator")
        dsym = Poly._of(self.nvars, {b: c for (_, b), c in d.terms.items()})
        quo: dict = {}
        for alpha, qa in self.xleft_coeffs().items():
            u = divides_exactly(dsym, qa)
            if u is None:
                raise NotDivisible("x-left coefficient at "
                                   f"alpha={unpack(alpha, self.nvars)} not divisible")
            # each alpha is its own set of keys: nothing collides
            quo.update(((alpha, b), c) for b, c in u.terms.items())
        return WeylOp._of(self.nvars, quo)

    def principal_symbol(self) -> Poly:
        """Top-order symbol in 4k variables: base point w, fiber point v.

        Each d_{x_i} contributes the fiber coordinate y_{k+1-i}(v) and each
        d_{y_i} the fiber coordinate x_{k+1-i}(v) (the fiber is paired with
        the base through the split form), so that sigma(Delta) = Q(v) and
        sigma(E) = B(v, w).
        """
        n = self.nvars
        r = self.order()
        # d_j goes to the fiber coordinate dual(n, j): reverse the vector
        return Poly._of(2 * n, add_terms({}, (
            (pack(unpack(a, n) + unpack(b, n)[::-1]), c)
            for (a, b), c in self.terms.items() if mdegree(b, n) == r)))

    # -- printing --------------------------------------------------------------

    def sorted_terms(self):
        """((alpha tuple, beta tuple), coefficient) by beta, then alpha."""
        n = self.nvars
        return [((unpack(a, n), unpack(b, n)), c) for (b, a), c in
                sorted(((b, a), c) for (a, b), c in self.terms.items())]

    def text(self) -> str:
        names = default_names(self.nvars)
        names += ["d" + nm for nm in names]
        return signed_text((c, mono_text(a + b, names))
                           for (a, b), c in self.sorted_terms())

    def __repr__(self):
        return f"WeylOp({self.text()})"


# -- standard operators -------------------------------------------------------


@lru_cache(maxsize=64)
def euler_op(k: int) -> WeylOp:
    """E = sum x_i d_{x_i} + y_i d_{y_i}; one shared instance per k."""
    n = 2 * k
    return WeylOp._of(n, {(unit(n, i), unit(n, i)): 1 for i in range(n)})


@lru_cache(maxsize=64)
def laplacian_op(k: int) -> WeylOp:
    """Delta = sum_i d_{x_i} d_{y_{k+1-i}}; one shared instance per k."""
    n = 2 * k
    return WeylOp._of(n, {(0, unit(n, i) + unit(n, dual(n, i))): 1
                          for i in range(k)})


def permute_vars(f, perm):
    """The Poly or WeylOp f with variable i renamed to variable perm[i].

    For an operator this is the conjugate sigma f sigma^-1 by the linear
    change of coordinates sigma, which renames x_i and d_i alike.  Renaming
    keeps the total degree, so each exponent field moves to the field of
    its new variable and the degree field stays.
    """
    n = f.nvars
    top = FIELD * n
    moves = [(FIELD * (n - 1 - i), FIELD * (n - 1 - j))
             for i, j in enumerate(perm)]

    def rename(m):
        out = m >> top << top
        for src, dst in moves:
            out |= (m >> src & EMAX) << dst
        return out

    if isinstance(f, WeylOp):
        return WeylOp._of(n, {(rename(a), rename(b)): c
                              for (a, b), c in f.terms.items()})
    return Poly._of(n, {rename(m): c for m, c in f.terms.items()})


def is_zero_extensional(op: WeylOp) -> bool:
    """Decide op = 0 by applying it to all monomials of degree <= its order.

    An operator of order <= r is determined by its values on monomials of
    degree <= r (the action is triangular in total degree), so vanishing there
    forces the zero operator.
    """
    if op.is_zero():
        return True
    n = op.nvars
    for d in range(op.order() + 1):
        for m in monomials(n, d):
            if not op.apply(Poly._of(n, {m: 1})).is_zero():
                return False
    return True

