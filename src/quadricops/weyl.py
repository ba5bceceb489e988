"""The Weyl algebra of polynomial differential operators in 2k variables.

Operators are stored in x-left normal order: each term is x^alpha d^beta with
the multiplication part on the left, keyed by the one ``int`` beta << s |
alpha of ``halves``, alpha and beta packed monomials of ``poly``.  So a
``Poly`` has the term map of its multiplication operator, int order is the
printed order, by beta, then alpha, and the kernels add and subtract whole
keys.  The exchange rule d*x = x*d + 1 per conjugate pair produces the
general reordering identities

    d^b x^a = sum_t  C(b,t) C(a,t) t!  x^(a-t) d^(b-t)        (x-left)
    x^a d^b = sum_t (-1)^|t| C(b,t) C(a,t) t!  d^(b-t) x^(a-t) (d-left)

applied independently in each variable.  Both one-sided normal forms are
unique, which is what makes the two right-division tests below decisive.
``reorder`` applies either identity to a whole term map, for ``coneops.tau``
and the right divisions, each one run of ``poly.normal_form_mod_single`` on
the multiplication half of the d-left form or the derivative half of the
x-left form.

For terms u = x^a1 d^b1 and v = x^a2 d^b2 the first identity gives

    u v = x^(a1+a2) d^(b1+b2)
        + sum_(t != 0)  C(b1,t) C(a2,t) t!  x^(a1+a2-t) d^(b1+b2-t):

the t = 0 term is the product of the keys, which add as monomials do, and
the rest are the exchange terms of d^b1 x^a2, none unless d^b1 and x^a2
share a variable.  The key products of u v and v u are equal, so [u, v] is
the exchange terms of u v less those of v u.  ``_exchange_sum`` is the one
kernel of exchange terms: the product kernel ``_product_terms`` adds them
to the key product ``Poly._product``, and the commutator kernel
``_commutator_terms`` sums those of both orders and never forms the two
products.  Both run in the product frame of ``poly.TermMap``, on integer
numerators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

from .poly import (EMAX, FIELD, Poly, TermMap, add_terms, check_degrees, dual,
                   falling, falling_spec, fields, guard, mdegree, monomials,
                   mono_text, normal_form_mod_single, pack, qcoef, restrict,
                   signed_text, support, unit, unpack)


class NotDivisible(Exception):
    """Raised when a right-division has no exact quotient."""


def halves(n: int) -> tuple:
    """(s, mask) of the term key in n variables: the key of x^alpha d^beta
    is beta << s | alpha, so beta = key >> s and alpha = key & mask."""
    return FIELD * (n + 1), (1 << FIELD * (n + 1)) - 1


@lru_cache(maxsize=1 << 12)
def _exchange_terms(b: int, a: int, n: int) -> tuple:
    """The exchange terms of d^b x^a in x-left order: (t, weight) over
    0 < t <= min(b, a) with weight = prod C(b_i,t_i) C(a_i,t_i) t_i!, t
    keyed in both halves, to subtract from the key of x^a d^b.  The t = 0
    term, x^a d^b of weight 1, is left out: it is the product of the keys.

    Only the variables that b and a share matter, so callers pass both
    restricted to them, which keeps the memo small.
    """
    b, a = unpack(b, n), unpack(a, n)
    hot = [i for i in range(n) if b[i] and a[i]]
    out = []
    combos = itertools.product(*(range(min(b[i], a[i]) + 1) for i in hot))
    next(combos)  # t = 0
    for combo in combos:
        t = [0] * n
        w = 1
        for i, ti in zip(hot, combo):
            t[i] = ti
            w *= comb(b[i], ti) * comb(a[i], ti) * factorial(ti)
        out.append((pack(t) << halves(n)[0] | pack(t), w))
    return tuple(out)


def reorder(terms: dict, n: int, sign: int) -> dict:
    """The other normal order of a term map: with sign = 1 the key of a and
    b stands for d^b x^a and the result is x-left, with sign = -1 for x^a d^b
    and the result is d-left.  By the identities of the module docstring
    each term keeps its key and coefficient (t = 0), and its exchange term
    of t has the key less t and weight sign^|t| C(b,t) C(a,t) t! in either
    direction; ``support`` and ``restrict`` read a key's a half."""
    s = halves(n)[0]
    out: dict = {}
    for key, c in terms.items():
        b = key >> s
        shared = support(b, n) & support(key, n)
        add_terms(out, itertools.chain(
            ((key, c),),
            ((key - t, sign ** mdegree(t >> s, n) * w * c)
             for t, w in _exchange_terms(restrict(b, shared),
                                         restrict(key, shared), n))))
    return out


def _exchange_sum(t1: dict, t2: dict, n: int, sign: int, terms: dict) -> dict:
    """Add sign times the exchange terms of d^b1 x^a2, for each pair of
    terms x^a1 d^b1 of t1 and x^a2 d^b2 of t2, into terms; returns terms.
    A row of t1 with no derivative part, or a pair whose d^b1 and x^a2
    share no variable, has none; the largest key has the largest b1, so
    when it has none, no row has any."""
    sh = halves(n)[0]
    if not max(t1, default=0) >> sh:
        return terms
    get = terms.get
    items = [(k2, sign * c2, support(k2, n)) for k2, c2 in t2.items()]
    for k1, c1 in t1.items():
        b1 = k1 >> sh
        if not b1:
            continue
        s1 = support(b1, n)
        for k2, c2, s2 in items:
            shared = s1 & s2
            if shared:
                k12, c12 = k1 + k2, c1 * c2
                for t, w in _exchange_terms(restrict(b1, shared),
                                            restrict(k2, shared), n):
                    key = k12 - t
                    s = get(key, 0) + c12 * w
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
    return terms


def _product_terms(t1: dict, t2: dict, n: int) -> dict:
    """The term map of the product of two term maps: the product of the
    keys, which add as monomials do, plus the exchange terms."""
    return _exchange_sum(t1, t2, n, 1, Poly._product(t1, t2, n))


def _commutator_terms(t1: dict, t2: dict, n: int) -> dict:
    """The term map of the commutator of two term maps: the exchange terms
    of t1 t2 less those of t2 t1, whose key products cancel."""
    return _exchange_sum(t2, t1, n, -1, _exchange_sum(t1, t2, n, 1, {}))


class WeylOp(TermMap):
    """Sparse normal-ordered operator: map term key -> coefficient.

    The key beta << s | alpha of ``halves`` stands for the term x^alpha
    d^beta.  alpha and beta are packed monomials in the ``Poly`` layout of
    nvars variables (see ``poly``): so each has the total degree in its top
    field, every exponent and total degree at most ``poly.EMAX``, and a
    product or an action that would exceed it raises ``ExponentOverflow``.
    ``WeylOp(nvars, terms)`` takes these keys; ``from_exponents`` takes
    exponent tuples.
    Coefficients, sums, scaling and the frame of the product are those of
    ``poly.TermMap``; this class gives the product kernel
    ``_product_terms``, its degree bound, and the commutator, which runs
    ``_commutator_terms`` in the same frame.
    """

    __slots__ = ()

    ONE = 0

    def _monomials(self, key):
        """(alpha, beta) for an int key, else None."""
        if not isinstance(key, int):
            return None
        s, mask = halves(self.nvars)
        return key & mask, key >> s

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, nvars: int) -> "WeylOp":
        return cls.const(nvars, 1)

    @classmethod
    def mult(cls, p: Poly) -> "WeylOp":
        """Multiplication by the polynomial p."""
        return cls._of(p.nvars, p.terms)

    @classmethod
    def partial(cls, nvars: int, i: int, c=1) -> "WeylOp":
        c = qcoef(c)
        return cls._of(nvars, {unit(nvars, i) << halves(nvars)[0]: c}
                       if c else {})

    @classmethod
    def from_exponents(cls, nvars: int, terms: dict) -> "WeylOp":
        """Build from {(alpha tuple, beta tuple): coefficient}."""
        s = halves(nvars)[0]
        return cls(nvars, {pack(b, nvars) << s | pack(a, nvars): c
                           for (a, b), c in terms.items()})

    # -- structure -----------------------------------------------------------

    def order(self) -> int:
        """Maximal |beta|; -1 for the zero operator."""
        if not self.terms:
            return -1
        return mdegree(max(self.terms) >> halves(self.nvars)[0], self.nvars)

    # -- multiplication ------------------------------------------------------

    # bound in the class body, where the benchmark's tracer looks it up
    __mul__ = TermMap.__mul__
    _product = staticmethod(_product_terms)

    @staticmethod
    def _bound(t1: dict, t2: dict, n: int) -> None:
        """The degree bounds of the product in both halves, which bound
        every key of the commutator too."""
        s, mask = halves(n)
        check_degrees(max(k & mask for k in t1), max(k & mask for k in t2), n)
        # the largest key has the largest beta
        check_degrees(max(t1) >> s, max(t2) >> s, n)

    def commutator(self, other: "WeylOp") -> "WeylOp":
        """[self, other] from the exchange terms that do not cancel (see the
        module docstring), without forming the two products."""
        return self._bilinear(other, _commutator_terms)

    # -- action on functions --------------------------------------------------

    def apply(self, f):
        """Apply to a Poly in the same variables, exactly; raises ValueError
        for a Poly in another number of variables.

        One pass per term x^a d^b: each monomial x^m of f that b divides
        goes to x^(m + a - b) with weight falling(m, b).  A b above max(f)
        divides no monomial of f, by degree or by key, so its term is
        skipped, and a term that kills f is never bounded, so it cannot
        overflow.  On the Q-Laurent class the Laplacian acts by
        ``harmonic.laplacian_qlaurent``.
        """
        if not isinstance(f, Poly):
            raise TypeError(f"cannot apply operator to {type(f).__name__}")
        self._check(f)
        n, g = self.nvars, guard(self.nvars)
        sh, mask = halves(n)
        top = max(f.terms, default=-1)
        terms: dict = {}
        get = terms.get
        for key, c in self.terms.items():
            b = key >> sh
            if b > top:
                continue  # d^b divides no monomial of f
            kept = [(m, cm) for m, cm in f.terms.items() if not (m - b) & g]
            if not kept:
                continue  # d^b kills f
            a = key & mask
            check_degrees(a, max(kept)[0] - b, n)
            spec, off = falling_spec(b, n), a - b
            for m, cm in kept:
                mono = m + off
                s = get(mono, 0) + (c * cm * falling(m, spec) if spec
                                    else c * cm)
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return Poly._of(n, terms)

    # -- normal forms and division --------------------------------------------

    def divide_right_by_mult(self, q: Poly) -> "WeylOp":
        """Solve w = u * (mult by q); raise NotDivisible if impossible.

        In d-left form w = sum d^beta v_beta(x), right-composing with a
        multiplication operator multiplies each d-left coefficient by q, so
        the quotient exists iff q divides the d-left form on its x half.
        """
        n = self.nvars
        s = halves(n)[0]
        quo, rem = normal_form_mod_single(
            WeylOp._of(n, reorder(self.terms, n, -1)), q)
        if rem:
            raise NotDivisible("d-left coefficient at beta="
                               f"{unpack(max(rem.terms) >> s, n)} not divisible")
        return WeylOp._of(n, reorder(quo.terms, n, 1))

    def divide_right_by_constcoef(self, d: "WeylOp") -> "WeylOp":
        """Solve w = u * d for a constant-coefficient d.

        In x-left form w = sum x^alpha q_alpha(d); right-multiplying by d(d)
        multiplies each q_alpha by the symbol polynomial of d, so the quotient
        exists iff that symbol divides the term map on its d half.
        """
        n = self.nvars
        s, mask = halves(n)
        self._check(d)
        if any(key & mask for key in d.terms):
            raise ValueError("divisor must have constant coefficients")
        if d.is_zero():
            raise ZeroDivisionError("division by the zero operator")
        dsym = Poly._of(n, {key >> s: c for key, c in d.terms.items()})
        quo, rem = normal_form_mod_single(self, dsym, 1 << s)
        if rem:
            raise NotDivisible("x-left coefficient at alpha="
                               f"{unpack(max(rem.terms) & mask, n)} not divisible")
        return quo

    def principal_symbol(self) -> Poly:
        """Top-order symbol in 4k variables: base point w, fiber point v.

        Each d_{x_i} contributes the fiber coordinate y_{k+1-i}(v) and each
        d_{y_i} the fiber coordinate x_{k+1-i}(v) (the fiber is paired with
        the base through the split form), so that sigma(Delta) = Q(v) and
        sigma(E) = B(v, w).
        """
        n = self.nvars
        r = self.order()
        s, mask = halves(n)
        # d_j goes to the fiber coordinate dual(n, j): reverse the vector
        return Poly._of(2 * n, add_terms({}, (
            (pack(unpack(key & mask, n) + unpack(key >> s, n)[::-1]), c)
            for key, c in self.terms.items() if mdegree(key >> s, n) == r)))

    # -- printing --------------------------------------------------------------

    def text(self) -> str:
        """The terms in key order, each x-part before its d-part."""
        n = self.nvars
        f = fields(n) + fields(n, "d", halves(n)[0])
        return signed_text((self.terms[key], mono_text(key, f))
                           for key in sorted(self.terms))


# -- standard operators -------------------------------------------------------


@lru_cache(maxsize=64)
def euler_op(k: int) -> WeylOp:
    """E = sum x_i d_{x_i} + y_i d_{y_i}; one shared instance per k."""
    n = 2 * k
    s = halves(n)[0]
    return WeylOp._of(n, {unit(n, i) << s | unit(n, i): 1 for i in range(n)})


@lru_cache(maxsize=64)
def laplacian_op(k: int) -> WeylOp:
    """Delta = sum_i d_{x_i} d_{y_{k+1-i}}; one shared instance per k."""
    n = 2 * k
    s = halves(n)[0]
    return WeylOp._of(n, {unit(n, i) + unit(n, dual(n, i)) << s: 1
                          for i in range(k)})


def permute_vars(f, perm):
    """The Poly or WeylOp f with variable i renamed to variable perm[i].

    For an operator this is the conjugate sigma f sigma^-1 by the linear
    change of coordinates sigma, which renames x_i and d_i alike.  Renaming
    keeps the total degree, so each exponent field moves to the field of
    its new variable and the degree field stays, in both halves of a key.
    """
    n = f.nvars
    starts = (0, halves(n)[0]) if isinstance(f, WeylOp) else (0,)
    moves = [(h + FIELD * (n - 1 - i), h + FIELD * (n - 1 - j))
             for i, j in enumerate(perm) for h in starts]
    keep = sum(EMAX << h + FIELD * n for h in starts)

    def rename(m):
        out = m & keep
        for src, dst in moves:
            out |= (m >> src & EMAX) << dst
        return out

    return type(f)._of(n, {rename(m): c for m, c in f.terms.items()})


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

