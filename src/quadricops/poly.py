"""Sparse multivariate polynomials over exact rationals.

Variables come in conjugate pairs (x1..xk, y1..yk), so a polynomial in the
standard setup lives in 2k variables.  The monomial order used everywhere is
graded lexicographic with x1 > ... > xk > y1 > ... > yk, which makes the
leading term of Q* = x1*yk + ... + xk*y1 equal to x1*yk.

Monomials are packed exponent vectors (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", 2007):
one ``int`` per monomial.  In n variables it has n + 1 fields of 16 bits,
each 15 value bits under a guard bit that stays clear.  The top field holds
the total degree, then come the exponents of x1, ..., down to the last
variable in the lowest field.  Hence

- the product of monomials is ``+`` and the quotient is ``-``;
- a divides b exactly when ``(b - a) & guard(n)`` is 0, since a field that
  would go negative borrows and sets its guard bit;
- graded lex order is plain ``int`` order, and the zero vector packs to 0.

Every exponent and every total degree is at most ``EMAX`` = 32767.  Each
product and each derivative action checks that bound before it stores a
term and raises ``ExponentOverflow`` instead of wrapping; so does ``pack``.
The layout is private to this module: other modules go through ``pack``,
``unpack``, ``is_packed``, ``mdegree``, ``unit``, ``support``, ``guard``,
``fields``, ``monomials``, the one enumerator of a graded piece, and the
helpers below.  Exponent tuples remain at the boundary: ``Poly.monomial``,
``coeff``, ``leading``, ``from_exponents`` and the JSON form take or return
tuples.  Everything else reads a key in place, as ``m >> s & EMAX`` over
the field shifts, and groups a term map by one walk of its sorted keys.

This module is also the single home of the split form and of term printing.
``dual`` names the index that the split form pairs with a coordinate,
``b_pair`` is the form on vectors of numbers or of polynomials, ``q_of``
its quadratic form Q on such a vector, and ``q_form`` is Q as a polynomial.
``fields`` gives the (bit shift, name) pair of each variable, ``mono_text``
prints a packed key from its nonzero fields, read in place, and
``signed_text`` a signed sum of terms.  Every term printer of the package
(polynomials, the Euler polynomials among them, operators, cone classes,
generator words) goes through them in one walk of its sorted keys.

It is also the one home of exact linear elimination: ``rref_add`` adds one
sparse rational row to a reduced row echelon form and reports whether it
raised the rank, ``rref`` is the form of a list of rows, one ``rref_add``
per row, and ``subtract_row`` is the row step of both.  The harmonic
splitting and ``lie.mat_inv`` take ``rref``; the rank proof of the Lie
homomorphism check grows its form one bracket at a time with ``rref_add``.

Coefficients are exact rationals, never ``float``; nothing is ever
rounded.  A term map stores them as one pair, as FLINT's ``fmpq_poly``
does: a denominator d >= 1 and a map of nonzero integer numerators with
gcd(d, *nums) = 1.  So each map has one pair, which ``==`` and ``hash``
read.  Its values, an ``int`` exactly where a coefficient is integral and
a ``fractions.Fraction`` otherwise, are only a cache: ``terms`` is the
numerators themselves over d = 1, and over d > 1 it builds the values by
``qdiv`` on its first read.  The public constructor passes every
coefficient through ``qcoef`` and keeps those values as the cache.  Every
true division in the package goes through ``qdiv``, because ``int / int``
is a ``float``.  The module ``fractions`` (and ``decimal``, which it
imports) loads on the first non-integral value, a quotient that ``qdiv``
cannot keep as an ``int``: until then no ``Fraction`` can exist, so the
checks of ``qcoef`` and of the operands of term-map and ``QLaurent``
arithmetic read the type only once ``fractions`` is in ``sys.modules``.

The kernels run on the numerators.  Products run in one frame,
``TermMap._bilinear``, that the products of ``Poly``, ``weyl.WeylOp`` and
``coneops.GenWord`` and the commutator of ``WeylOp`` share: it checks the
operands and the degree bound of the product, the kernel sums integer
products per term pair, and ``TermMap._over`` stores the sums over the
product of the two denominators once their common factor is divided out.
A ``WeylOp`` key adds as a monomial does, so the ``WeylOp`` product is the
``Poly`` kernel on its keys plus the exchange terms of ``weyl``.  A sum
takes the least common multiple of the two denominators and scales a side
only when its factor is not 1, ``scale`` multiplies numerators and
denominator, and ``normal_form_mod_single`` by a monic divisor of ``int``
coefficients, such as Q, keeps its quotient and remainder over the
dividend's denominator.  A map that is only compared, hashed, summed,
multiplied or divided builds no ``Fraction``.

``TermMap`` is the one home of the linear structure that ``Poly``,
``WeylOp`` and ``GenWord`` share: equality, hashing, sums, negation,
scaling, products and powers of a map from key to coefficient.  A
``WeylOp`` key is one ``int`` too, two packed monomials (see ``weyl``): so
the term map of a ``Poly`` is that of its multiplication operator, and
``normal_form_mod_single`` divides either.  Each subclass keeps only the
key of 1, its key check, its product kernel and degree bound, and its own
methods.  The public constructor, ``Poly(nvars, terms)``, ``WeylOp(nvars,
terms)`` or ``GenWord(k, terms)``, is the one entry point for outside
input: it checks every key, both halves of a ``WeylOp`` key, and passes
every coefficient through ``qcoef``.  ``_of(nvars, nums, d=1)`` is
trusted and checks nothing: it stores a pair that the engine built in
lowest terms, with valid keys and no zero numerator, as it is, and
``_over(nvars, nums, d)`` stores integer sums over d once their common
factor is divided out.  Where the engine holds values, such as the
entries of a Lie element or the rows of ``rref``, ``_of_values`` stores
them as their pair, as the public constructor does, without the checks.
Every sum of terms outside the product, division and elimination kernels
goes through ``add_terms``.

Built term maps are read-only.  The engine memoizes its pure constructors
in bounded LRU caches, ``q_form`` here and the standard operators, the
letters, the realizations and the invariant matrix of ``weyl``,
``coneops``, ``momentorbit`` and ``lie``, so one instance per argument is
handed to every caller.  No caller may change a cached result, nor any dict
kept by ``_of`` or the public constructor or built by ``terms``;
``tests/test_immutable.py`` checks this over every suite and the CLI.
"""

from __future__ import annotations

import sys
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement, repeat
from math import gcd, lcm, perm
from operator import add, attrgetter, mul

FIELD = 16                      # bits per field: 15 value bits, 1 guard bit
EMAX = (1 << (FIELD - 1)) - 1   # largest exponent and total degree: 32767
_DEN = attrgetter("denominator")  # of an int or a Fraction


class ExponentOverflow(OverflowError):
    """An exponent or a total degree would exceed EMAX."""


_Fraction = None  # fractions.Fraction once _fraction has bound it


def _fraction():
    """The class ``fractions.Fraction``, imported and bound to ``_Fraction``
    on the first call; callers read ``_Fraction or _fraction()``."""
    global _Fraction
    from fractions import Fraction
    _Fraction = Fraction
    return Fraction


def _rational(c) -> bool:
    """Whether c is an int or a Fraction.  No Fraction exists before
    ``fractions`` is imported, so until then only an int is one, and the
    check imports nothing."""
    return isinstance(c, int) or ("fractions" in sys.modules and isinstance(
        c, _Fraction or _fraction()))


def qcoef(c):
    """c as a coefficient: an ``int`` when integral, a ``Fraction`` otherwise.

    Raises TypeError for anything that is not an int or a Fraction, floats
    included.
    """
    if isinstance(c, int):
        return int(c)
    if _rational(c):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, not {type(c).__name__}")


def qdiv(a, b):
    """The exact quotient a / b: an ``int`` when integral, a ``Fraction`` otherwise.

    The package's only true division.  Raises TypeError when an operand is
    not an int or a Fraction (floats included) and ZeroDivisionError when b
    is zero.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return (_Fraction or _fraction())(a, b) if r else q
    a, b = qcoef(a), qcoef(b)  # TypeError unless both operands are rational
    q = (_Fraction or _fraction())(a, b)
    return q.numerator if q.denominator == 1 else q


# -- packed monomials ------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(n: int):
    """(field shifts of x1..x_n, guard bits of the n variable fields)."""
    shifts = tuple(FIELD * (n - 1 - i) for i in range(n))
    return shifts, sum(EMAX + 1 << s for s in shifts)


def pack(m, n: int | None = None) -> int:
    """The packed monomial of the exponent tuple m.

    With n given, raises ValueError unless m has n exponents.
    """
    if n is not None and len(m) != n:
        raise ValueError(
            f"exponent vector {list(m)} has width {len(m)}, expected {n}")
    out = deg = 0
    for e in m:
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(m)}")
        out = out << FIELD | e
        deg += e
    if deg > EMAX:
        raise ExponentOverflow(
            f"total degree {deg} exceeds the exponent bound {EMAX}")
    return deg << FIELD * len(m) | out


def unpack(m: int, n: int) -> tuple:
    """The exponent tuple of the packed monomial m in n variables."""
    return tuple(m >> s & EMAX for s in _layout(n)[0])


def mdegree(m: int, n: int) -> int:
    """Total degree of the packed monomial m in n variables."""
    return m >> FIELD * n


def unit(n: int, i: int) -> int:
    """The packed monomial of variable i."""
    return 1 << FIELD * n | 1 << FIELD * (n - 1 - i)


def guard(n: int) -> int:
    """Guard bits of all fields: a divides b iff (b - a) & guard(n) == 0."""
    return _layout(n)[1] | EMAX + 1 << FIELD * n


def monomials(n: int, d: int) -> list:
    """The packed monomials of total degree d in n variables in ascending,
    that is graded lex, order; [] for d < 0, ExponentOverflow for d > EMAX."""
    if d > EMAX:
        raise ExponentOverflow(
            f"total degree {d} exceeds the exponent bound {EMAX}")
    if d < 0:
        return []
    units = [unit(n, i) for i in range(n)]
    return sorted(map(sum, combinations_with_replacement(units, d)))


@lru_cache(maxsize=1 << 12)
def is_packed(m: int, n: int) -> bool:
    """Whether the int m is a packed monomial in n variables: no guard bit
    set, no bit above the degree field, and a degree field equal to the sum
    of the exponents.  Memoized, since every key given to a public
    constructor comes through here."""
    return (0 <= m < 1 << FIELD * (n + 1) and not m & guard(n)
            and sum(unpack(m, n)) == mdegree(m, n))


def support(m: int, n: int) -> int:
    """Guard bits set at the variables with a nonzero exponent in m.

    Two monomials share a variable iff their supports intersect.
    """
    g = _layout(n)[1]
    low = g - (g >> FIELD - 1)
    return ((m & low) + low) & g


def restrict(m: int, s: int) -> int:
    """m with every exponent outside the guard bits s (from ``support``) set
    to 0, and no total degree: a key for data that depends on those
    exponents only."""
    return m & s - (s >> FIELD - 1)


def check_degrees(a: int, b: int, n: int) -> None:
    """Raise ExponentOverflow unless mdegree(a) + mdegree(b) <= EMAX.

    With a and b the largest monomials of two factors, this bounds every
    exponent of their product, so no field can spill into its guard bit.
    """
    d = (a >> FIELD * n) + (b >> FIELD * n)
    if d > EMAX:
        raise ExponentOverflow(
            f"total degree {d} exceeds the exponent bound {EMAX}")


@lru_cache(maxsize=1 << 12)
def falling_spec(b: int, n: int) -> tuple:
    """The nonzero fields of b, in the form ``falling`` reads."""
    return tuple((s, e) for s, e in zip(_layout(n)[0], unpack(b, n)) if e)


def falling(m: int, spec: tuple) -> int:
    """prod_i m_i! / (m_i - b_i)! for spec = falling_spec(b, n): the weight
    with which d^b sends x^m to x^(m-b)."""
    w = 1
    for s, e in spec:
        w *= perm(m >> s & EMAX, e)
    return w


def add_terms(terms: dict, items) -> dict:
    """Add the (key, coefficient) pairs items into the term map terms, in
    place, dropping each key whose coefficient cancels; returns terms.

    The product, division and elimination kernels (``Poly._product``,
    ``normal_form_mod_single``, ``subtract_row``, ``WeylOp.apply``
    and ``weyl._exchange_sum``, the exchange terms of the ``WeylOp``
    product and commutator) keep this loop inline: they run it once per
    term pair, where a generator of pairs and a call would cost more than
    the addition itself.  The word product, ``GenWord._product``, calls it.
    """
    get = terms.get
    for key, c in items:
        s = get(key, 0) + c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return terms


# -- exact elimination on sparse rows --------------------------------------


def subtract_row(row: dict, f, other: dict) -> None:
    """row -= f * other in place, for sparse rows {col: value}, dropping the
    entries that cancel."""
    for j, v in other.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def rref_add(piv: dict, row) -> bool:
    """Add one sparse row {col: value} to a reduced row echelon form
    {pivot column: row}, in place; True when it raises the rank.

    The row is reduced by the pivot rows; what is left, if anything, is
    scaled to 1 at its least column, cleared from the other pivot rows and
    added as a new pivot row.
    """
    row = dict(row)
    # the pivot rows vanish on each other's pivot columns: one pass
    for c in [c for c in row if c in piv]:
        subtract_row(row, row[c], piv[c])
    if not row:
        return False
    c = min(row)
    p = row[c]
    row = {j: qdiv(v, p) for j, v in row.items()}
    for other in piv.values():
        if c in other:
            subtract_row(other, other[c], row)
    piv[c] = row
    return True


def rref(rows) -> dict:
    """Exact reduced row echelon form of sparse rows {col: value}, one
    ``rref_add`` per row.

    Returns {pivot column: row}: each row is 1 at its pivot column, its
    least column, and 0 at every other pivot column.  The form is unique, so
    it does not depend on the order of the rows, and its length is the rank.
    """
    piv = {}
    for row in rows:
        rref_add(piv, row)
    return piv


class TermMap:
    """A finite Q-linear combination: map from key to nonzero int or Fraction.

    A subclass sets ``ONE``, the key of 1, reads the packed monomials of a
    key in ``_monomials``, gives its product as the kernel ``_product`` with
    the degree bound ``_bound``, and its ``text``; ``__mul__`` and
    ``_bilinear`` frame every kernel, and ``__repr__`` wraps ``text``.

    A map is stored as one pair: ``den``, a denominator d >= 1, and
    ``nums``, a map of nonzero ``int`` numerators with gcd(d, *nums) = 1,
    so each map has one such pair and its values are nums / d.  The values
    are only a cache: ``terms`` is ``nums`` itself when d = 1, and builds
    the values on its first read otherwise.  The methods of this module
    read the pair; readers that need only the keys or whether the map is
    zero never build the values.
    """

    __slots__ = ("nvars", "den", "nums", "_values")

    def __init__(self, nvars: int, terms: dict | None = None):
        """Build from outside input: every key is checked, every coefficient
        goes through ``qcoef``, and zero coefficients are dropped.  The
        values are kept as the cache of ``terms``."""
        self.nvars, values = nvars, {}
        for key, c in (terms or {}).items():
            monos = self._monomials(key)
            if monos is None or monos and not all(
                    map(is_packed, monos, repeat(nvars))):
                name = type(self).__name__
                hint = (f" in {nvars} variables; build from exponent tuples "
                        f"with {name}.from_exponents"
                        if hasattr(self, "from_exponents") else "")
                raise (TypeError if monos is None else ValueError)(
                    f"{key!r} is not a {name} key{hint}")
            c = qcoef(c)
            if c:
                values[key] = c
        d = lcm(*map(_DEN, values.values()))
        self.den, self._values = d, values
        self.nums = values if d == 1 else {
            key: c.numerator * (d // c.denominator)
            for key, c in values.items()}

    @classmethod
    def _of(cls, nvars: int, nums: dict, d: int = 1):
        """The trusted constructor, for a term map the engine built: valid
        keys, nonzero int numerators and a pair (d, nums) in lowest terms.
        The dict is kept, not copied."""
        out = cls.__new__(cls)
        out.nvars, out.den, out.nums, out._values = nvars, d, nums, None
        return out

    @classmethod
    def _of_values(cls, nvars: int, values: dict):
        """The map of values that the engine holds, with valid keys and
        nonzero int or Fraction values: stored as the integer numerators
        over the least common denominator d of the values, a pair in
        lowest terms."""
        d = lcm(*map(_DEN, values.values()))
        return cls._of(nvars, {key: c.numerator * (d // c.denominator)
                               for key, c in values.items()}, d)

    @classmethod
    def _over(cls, nvars: int, nums: dict, d: int):
        """The map nums / d, for integer numerators the engine summed over a
        denominator d >= 1, with no zero: stored by ``_of`` after dividing
        out gcd(d, *nums)."""
        if d != 1:
            g = gcd(d, *nums.values())
            if g != 1:
                d //= g
                nums = {key: c // g for key, c in nums.items()}
        return cls._of(nvars, nums, d)

    @property
    def terms(self) -> dict:
        """The map from key to coefficient: ``nums`` over d = 1, otherwise
        the values built by ``qdiv`` on the first read and kept."""
        if self.den == 1:
            return self.nums
        values = self._values
        if values is None:
            d = self.den
            values = self._values = {key: qdiv(c, d)
                                     for key, c in self.nums.items()}
        return values

    @classmethod
    def zero(cls, nvars: int):
        return cls._of(nvars, {})

    @classmethod
    def const(cls, nvars: int, c):
        c = qcoef(c)
        return cls._of(nvars, {cls.ONE: c.numerator} if c else {},
                       c.denominator)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        """Equal values: both pairs are in lowest terms, so equal values
        give equal pairs."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"{type(self).__name__} operands live in different variable sets")

    def __add__(self, other):
        """The sum over the least common denominator of the two pairs; a
        side is scaled only when its factor is not 1."""
        cls = type(self)
        if not isinstance(other, cls):
            if not _rational(other):
                return NotImplemented
            other = cls.const(self.nvars, other)
        self._check(other)
        d1, d2 = self.den, other.den
        d = lcm(d1, d2)
        t1, t2 = self.nums, other.nums
        terms = dict(t1) if d == d1 else {key: c * (d // d1)
                                          for key, c in t1.items()}
        add_terms(terms, t2.items() if d == d2
                  else ((key, c * (d // d2)) for key, c in t2.items()))
        # most sums are of int maps: store them without a call
        return (cls._of(self.nvars, terms) if d == 1
                else cls._over(self.nvars, terms, d))

    __radd__ = __add__

    def __neg__(self):
        return type(self)._of(self.nvars,
                              {key: -c for key, c in self.nums.items()},
                              self.den)

    def __sub__(self, other):
        if not (isinstance(other, type(self)) or _rational(other)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not _rational(other):
            return NotImplemented
        return (-self) + other

    def __rmul__(self, other):
        if _rational(other):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            if not _rational(other):
                return NotImplemented
            return self.scale(other)
        return self._bilinear(other, self._product)

    def _bilinear(self, other, kernel):
        """kernel(t1, t2, n) on the integer numerators of the two term maps,
        stored over the product of their denominators by ``_over``.
        ``_bound`` checks the degrees of the product before the kernel
        runs."""
        n = self.nvars
        if other.nvars != n:
            self._check(other)  # raises
        t1, t2 = self.nums, other.nums
        if not (t1 and t2):
            return self._of(n, {})
        self._bound(t1, t2, n)
        terms, d = kernel(t1, t2, n), self.den * other.den
        # most products are of int maps: store them without a call
        return self._of(n, terms) if d == 1 else self._over(n, terms, d)

    @staticmethod
    def _bound(t1: dict, t2: dict, n: int) -> None:
        """Raise ExponentOverflow when a product of terms of t1 and t2 could
        exceed ``EMAX``; keys that hold no monomial have no bound."""

    def scale(self, c):
        """c times the map, on its numerators."""
        c = qcoef(c)
        a = c.numerator
        nums = {key: a * v for key, v in self.nums.items()} if a else {}
        return type(self)._over(self.nvars, nums, self.den * c.denominator)

    def __repr__(self):
        return f"{type(self).__name__}({self.text()})"

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = type(self).const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result


class Poly(TermMap):
    """Sparse polynomial: map from packed monomial to nonzero int or Fraction.

    ``Poly(nvars, terms)`` takes packed keys; ``from_exponents`` takes
    exponent tuples.
    """

    __slots__ = ()

    ONE = 0

    @staticmethod
    def _monomials(key):
        """(key,) for an int key, else None."""
        return (key,) if isinstance(key, int) else None

    # -- constructors -------------------------------------------------------

    @classmethod
    def var(cls, nvars: int, i: int, c=1) -> "Poly":
        c = qcoef(c)
        return cls._of(nvars, {unit(nvars, i): c.numerator} if c else {},
                       c.denominator)

    @classmethod
    def monomial(cls, m, c=1) -> "Poly":
        c = qcoef(c)
        return cls._of(len(m), {pack(m): c.numerator} if c else {},
                       c.denominator)

    @classmethod
    def from_exponents(cls, nvars: int, terms: dict) -> "Poly":
        """Build from {exponent tuple: coefficient}."""
        return cls(nvars, {pack(m, nvars): c for m, c in terms.items()})

    # -- basic queries -------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return mdegree(max(self.nums), self.nvars)

    def leading(self):
        """(exponent tuple, coefficient) maximal in graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return unpack(m, self.nvars), self.terms[m]

    def coeff(self, m):
        """The coefficient of the monomial with exponent tuple m."""
        return self.terms.get(pack(m, self.nvars), 0)

    def constant(self):
        return self.terms.get(0, 0)

    def is_constant(self) -> bool:
        return self.nums.keys() <= {0}

    # -- arithmetic ----------------------------------------------------------

    # bound in the class body, where the benchmark's tracer looks them up
    __add__ = __radd__ = TermMap.__add__
    __mul__ = TermMap.__mul__

    @staticmethod
    def _bound(t1: dict, t2: dict, n: int) -> None:
        check_degrees(max(t1), max(t2), n)

    @staticmethod
    def _product(t1: dict, t2: dict, n: int) -> dict:
        """The term map of the product of two term maps: a sum of products
        per pair of terms, or, for a monomial factor, one product per term
        of the other factor.  On ``WeylOp`` keys it is the product of the
        keys, to which ``weyl`` adds the exchange terms."""
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        if len(t1) == 1:
            # a monomial times a polynomial: no two products collide
            ((m1, c1),) = t1.items()
            return {m1 + m2: c1 * c2 for m2, c2 in t2.items()}
        terms: dict = {}
        items = list(t2.items())
        get = terms.get
        for m1, c1 in t1.items():
            for m2, c2 in items:
                m = m1 + m2
                s = get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return terms

    def deriv(self, i: int) -> "Poly":
        """Partial derivative with respect to variable index i."""
        n = self.nvars
        s, u = FIELD * (n - 1 - i), unit(n, i)
        return Poly._over(n, {m - u: c * (m >> s & EMAX)
                              for m, c in self.nums.items() if m >> s & EMAX},
                          self.den)

    def eval(self, point):
        """Evaluate at a tuple of rationals; raises ValueError unless it has
        nvars coordinates."""
        point = [qcoef(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError(f"evaluation needs {self.nvars} coordinates, "
                             f"got {len(point)}")
        shifts = _layout(self.nvars)[0]
        total = 0
        for m, c in self.terms.items():
            v = c
            for s, p in zip(shifts, point):
                if e := m >> s & EMAX:
                    v *= p ** e
            total += v
        return qcoef(total)

    def subs_vars(self, images: list) -> "Poly":
        """Substitute variable i by the polynomial images[i]; raises
        ValueError unless there are nvars images, all in one ring."""
        rings = {p.nvars for p in images}
        if len(images) != self.nvars or len(rings) != 1:
            raise ValueError(
                f"substitution needs {self.nvars} images in one ring, got "
                f"{len(images)} in {sorted(rings)} variables")
        (nv,) = rings
        shifts = _layout(self.nvars)[0]
        total = Poly.zero(nv)
        for m, c in self.terms.items():
            term = Poly.const(nv, c)
            for s, image in zip(shifts, images):
                for _ in range(m >> s & EMAX):
                    term = term * image
            total = total + term
        return total

    # -- printing ------------------------------------------------------------

    def text(self, names: list | None = None) -> str:
        """The terms, largest first, with the names of ``fields`` or names,
        one per variable; ValueError for a names list of another length."""
        n = self.nvars
        if names is not None and len(names) != n:
            raise ValueError(f"{len(names)} names for {n} variables")
        f = fields(n) if names is None else list(zip(_layout(n)[0], names))
        return signed_text((self.terms[m], mono_text(m, f))
                           for m in sorted(self.terms, reverse=True))

    def to_json(self) -> list:
        n = self.nvars
        return [
            {"exponents": list(unpack(m, n)), "num": c.numerator,
             "den": c.denominator}
            for m, c in sorted(self.terms.items(), reverse=True)
        ]


def fields(n: int, prefix: str = "", shift: int = 0) -> list:
    """(bit shift, name) of each variable of a packed monomial in n
    variables, shifted up by shift, as ``mono_text`` reads them: x1..xk,
    y1..yk when n = 2k, v1..vn when n is odd, each name after prefix."""
    names = ([f"{v}{i + 1}" for v in "xy" for i in range(n // 2)]
             if n % 2 == 0 else [f"v{i + 1}" for i in range(n)])
    return [(s + shift, prefix + nm) for s, nm in zip(_layout(n)[0], names)]


def mono_text(m: int, fields) -> str:
    """The packed key m as ``x1^2*y1``, one factor per nonzero exponent
    ``m >> s & EMAX`` of the (shift, name) pairs fields; "" for 1."""
    return "*".join(nm if e == 1 else f"{nm}^{e}"
                    for s, nm in fields if (e := m >> s & EMAX))


def signed_text(terms) -> str:
    """(coefficient, monomial text) pairs as a signed sum; "0" for none.

    A monomial text of "" stands for 1, and a coefficient of 1 or -1 before
    a nonempty monomial shows as its sign only: ``-x1 + 3/2*y1 - 2``.
    """
    text = ""
    for c, mono in terms:
        a = abs(c)
        body = str(a) if not mono else mono if a == 1 else f"{a}*{mono}"
        text += f" - {body}" if c < 0 else f" + {body}"
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


# -- the split quadratic form and its dual ----------------------------------


def dual(n: int, i: int) -> int:
    """The index that the split form on n = 2k coordinates pairs with i:
    x_i <-> y_{k+1-i}.  With n = 2k + 2 it is the pairing of the extended
    form J+ as well."""
    return n - 1 - i


def b_pair(a, b):
    """B(a, b) = sum_i a_i b_dual(i), for vectors of numbers or of Poly."""
    return reduce(add, map(mul, a, reversed(b)))


def q_of(v):
    """Q(v) = sum_{i<k} v_i v_dual(i) for a vector of 2k numbers or of Poly,
    so that B(v, v) = 2 Q(v); no division."""
    return reduce(add, map(mul, v[:len(v) // 2], reversed(v)))


@lru_cache(maxsize=64)
def q_form(k: int) -> Poly:
    """Q = x1*yk + x2*y_{k-1} + ... + xk*y1 in 2k variables; one shared
    instance per k."""
    n = 2 * k
    return Poly._of(n, {unit(n, i) + unit(n, dual(n, i)): 1 for i in range(k)})


def normal_form_mod_single(p, d: Poly, scale: int = 1):
    """Divide the term map p by the single polynomial d in graded lex order.

    Returns (quotient, remainder) with p = quotient*d + remainder and no
    monomial of the remainder divisible by the leading monomial of d.  A
    single polynomial is a Groebner basis of the ideal it generates, so the
    remainder is the canonical representative of p modulo (d) and vanishes
    exactly when p lies in the ideal.

    p may also be a ``weyl.WeylOp``, keyed beta * S + alpha with S =
    2^(FIELD (nvars + 1)); d divides alpha at ``scale`` 1 or beta at S.  Its
    offsets and guard bits are scaled, so a step keeps the other half, and
    one pass divides each coefficient that it keeps apart as it would be
    divided alone.  Quotient and remainder have the type of p.

    The division runs on the integer numerators of p over its denominator
    e.  With a monic d of ``int`` coefficients, such as Q, a step divides
    nothing and every value stays an integer numerator, so quotient and
    remainder are stored over e by ``TermMap._over``; any other d divides
    each output term by e once at the end, and ``TermMap._of_values``
    stores those values.  Every tail monomial of d is below its leading one,
    so each step only adds monomials below the one it takes, and the terms
    are taken largest first from a max-heap of negated keys: a key whose
    term has cancelled is skipped when it comes up, and a key whose term
    comes back is pushed again.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check(d)
    g = guard(p.nvars) * scale
    dterms = d.terms
    lm = max(dterms)
    lc = dterms[lm]
    # q*lm + (m2 - lm) = q*m2: the offsets stay valid monomials once added
    tail = [((m2 - lm) * scale, c2) for m2, c2 in dterms.items() if m2 != lm]
    lm *= scale
    quotient: dict = {}
    remainder: dict = {}
    e, work = p.den, dict(p.nums)  # a copy: the loop changes it
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # cancelled, or taken at an earlier copy of its key
        if (m - lm) & g:
            remainder[m] = c
            continue
        f = c if lc == 1 else qdiv(c, lc)
        quotient[m - lm] = f
        for off, c2 in tail:
            m2 = m + off
            s = work.get(m2, 0) - f * c2
            if s:
                if m2 not in work:
                    heappush(heap, -m2)
                work[m2] = s
            else:
                del work[m2]
    cls, n = type(p), p.nvars
    if lc != 1 or d.den != 1:
        return tuple(cls._of_values(n, {m: qdiv(c, e)
                                        for m, c in part.items()})
                     for part in (quotient, remainder))
    return cls._over(n, quotient, e), cls._over(n, remainder, e)


def reduce_mod(p: Poly, d: Poly) -> Poly:
    return normal_form_mod_single(p, d)[1]


def divides_exactly(d: Poly, p: Poly):
    """Return the exact quotient p/d, or None when d does not divide p."""
    q, r = normal_form_mod_single(p, d)
    return q if r.is_zero() else None


class QLaurent:
    """A polynomial divided by a power of Q, kept in lowest Q-power form.

    value = num / Q^qexp with the numerator not divisible by Q (unless it is
    zero, in which case qexp = 0).  The numerator lives in the 2k variables
    of Q; the constructor raises ValueError for one in another ring.
    """

    __slots__ = ("k", "num", "qexp")

    def __init__(self, k: int, num: Poly, qexp: int = 0):
        if qexp < 0:
            raise ValueError("qexp must be nonnegative; use div_by_q for shifts")
        if num.nvars != 2 * k:
            raise ValueError(f"numerator in {num.nvars} variables, expected "
                             f"{2 * k} for k={k}")
        self.k = k
        q = q_form(k)
        while qexp > 0 and not num.is_zero():
            quo = divides_exactly(q, num)
            if quo is None:
                break
            num, qexp = quo, qexp - 1
        if num.is_zero():
            qexp = 0
        self.num = num
        self.qexp = qexp

    @classmethod
    def from_poly(cls, p: Poly) -> "QLaurent":
        return cls(p.nvars // 2, p, 0)

    @classmethod
    def one_over_q(cls, k: int, m: int = 1) -> "QLaurent":
        return cls(k, Poly.const(2 * k, 1), m)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.qexp == 0

    def __eq__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.k == other.k and self.qexp == other.qexp and self.num == other.num

    def __hash__(self):
        return hash((self.k, self.qexp, self.num))

    def _lift(self, other):
        """other as a QLaurent, or NotImplemented when it is none of
        QLaurent, Poly, int or Fraction."""
        if isinstance(other, QLaurent):
            return other
        if isinstance(other, Poly):
            return QLaurent.from_poly(other)
        if _rational(other):
            return QLaurent(self.k, Poly.const(2 * self.k, other), 0)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        q = q_form(self.k)
        m = max(self.qexp, other.qexp)
        a = self.num * q ** (m - self.qexp)
        b = other.num * q ** (m - other.qexp)
        return QLaurent(self.k, a + b, m)

    __radd__ = __add__

    def __neg__(self):
        out = QLaurent.__new__(QLaurent)
        out.k, out.num, out.qexp = self.k, -self.num, self.qexp
        return out

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return QLaurent(self.k, self.num * other.num, self.qexp + other.qexp)

    __rmul__ = __mul__

    def div_by_q(self, m: int = 1) -> "QLaurent":
        return QLaurent(self.k, self.num, self.qexp + m)

    def deriv(self, i: int) -> "QLaurent":
        # quotient rule: d(n/Q^m) = (n' Q - m n Q_i) / Q^(m+1)
        q = q_form(self.k)
        if self.qexp == 0:
            return QLaurent(self.k, self.num.deriv(i), 0)
        top = self.num.deriv(i) * q - self.num.scale(self.qexp) * q.deriv(i)
        return QLaurent(self.k, top, self.qexp + 1)

    def text(self) -> str:
        if self.qexp == 0:
            return self.num.text()
        return f"({self.num.text()}) / Q^{self.qexp}"

    __repr__ = TermMap.__repr__
