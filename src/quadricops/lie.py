"""The conformal orthogonal Lie algebra of the extended split form.

The ambient form on kappa^(2k+2) is J+ = antidiag(1, J_V, 1) where
J_V = [[0, J_k], [J_k, 0]] with J_k the anti-diagonal identity.  A Lie
algebra element is stored in block coordinates (alpha, mu, X, lambda) and
assembles to

    [[ alpha, -lambda^T J_V,  0      ],
     [ mu,     X,             lambda ],
     [ 0,     -mu^T J_V,     -alpha  ]]

with X skew for J_V.  Each of mu, X and lambda is stored by its nonzero
entries, a tuple of (index, c) sorted by index, with index i in a vector and
(a, b) in the block: a basis element has at most two, so the bracket and the
realizations read only those.  The sorted, zero-free tuples are unique, so
an element is hashable by value and cannot change in place.

A group element is an exact rational (2k+2)-square matrix g with
g^T J+ g = J+.  It is stored in integers, as g = M / den with M an integer
matrix and den > 0 the least common denominator of its entries, and
checked in integers as M^T J+ M = den^2 J+, J+ M being M read bottom to
top.  That check and the products are ``mat_mul``, the one dense matrix
product.  The big cell goes through one routine, ``_cell_column``: the
rows a caller asks for of den g^{-1} times the first column of u_v^op, read
off M.  At a rational point v that column is the integer e^2 (1, v, -Q(v)),
where e is the least denominator of v; at the symbolic point it is
(1, v, -Q(v)) as Polys.  ``chi0_at`` divides its pivot once by den e^2,
``act_at`` takes ratios to the pivot, and ``bruhat_factor`` divides only
its pivot by den.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd, lcm

from .poly import (Poly, QLaurent, dual, q_form, q_of, qcoef, qdiv, rref,
                   rref_add)


def _frac_vec(v, n):
    v = [qcoef(c) for c in v]
    if len(v) != n:
        raise ValueError("wrong vector length")
    return v


def _zeros(n, m):
    return [[0] * m for _ in range(n)]


def mat_mul(a, b):
    """The product of two matrices, lists of rows, whose entries are of any
    exact ring: ``int``, ``Fraction`` or ``Poly``.  Each row of b is read
    once, by its nonzero entries, and zeros of a are skipped; every entry
    starts at the ``int`` 0 and adds its products, so an entry that no pair
    of nonzero entries reaches is the ``int`` 0."""
    m = len(b[0])
    rows = [[(j, e) for j, e in enumerate(bl) if e] for bl in b]
    out = []
    for ai in a:
        oi = [0] * m
        for c, bl in zip(ai, rows):
            if c:
                for j, e in bl:
                    oi[j] += c * e
        out.append(oi)
    return out


def mat_inv(a):
    """Exact inverse over the rationals: the reduced row echelon form of
    [a | I] is [I | a^-1] exactly when a is invertible.

    Group elements invert by the index permutation ``_inverse``; this general
    inverse is the reference the tests compare it with.
    """
    n = len(a)
    form = rref({**{j: c for j, c in enumerate(row) if c}, n + i: 1}
                for i, row in enumerate(a))
    if any(c not in form for c in range(n)):
        raise ValueError("singular matrix")
    return [[form[i].get(n + j, 0) for j in range(n)] for i in range(n)]


def _inverse(m):
    """The inverse J+ m^T J+ of a matrix m preserving J+: since J+ is an
    involutive permutation, an index permutation with no arithmetic."""
    n = len(m)
    return [[m[dual(n, j)][dual(n, i)] for j in range(n)] for i in range(n)]


def _nonzero(items) -> tuple:
    """The entries (index, c) with c != 0, sorted by index."""
    return tuple(sorted(e for e in items if e[1]))


def _entries(n, x, pair=False):
    """The nonzero entries (index, c) of a length-n vector, or with ``pair``
    of an n-square block, sorted by index: the index is i for a vector and
    (a, b) for a block.  x is dense, a list or a list of rows, or a mapping
    {index: c} whose every index is an ``int`` in range(n), not a bool nor
    a float equal to one."""
    if isinstance(x, Mapping):
        for ix in x:
            parts = ix if pair and type(ix) is tuple else (ix,)
            if len(parts) != 1 + pair or not all(
                    type(i) is int and 0 <= i < n for i in parts):
                raise ValueError(f"index {ix!r} is not an int in range({n})")
        items = x.items()
    elif len(x) != n or pair and any(len(row) != n for row in x):
        raise ValueError("wrong shape of a dense block or vector")
    else:
        items = (((a, b), c) for a, row in enumerate(x)
                 for b, c in enumerate(row)) if pair else enumerate(x)
    return _nonzero((ix, qcoef(c)) for ix, c in items)


class LieElt:
    """Element of the conformal Lie algebra in (alpha, mu, X, lambda) blocks;
    mu, X and lam are given dense or as mappings {index: c}, or omitted."""

    __slots__ = ("k", "alpha", "mu", "X", "lam", "tag")

    def __init__(self, k, alpha=0, mu=None, X=None, lam=None, tag=None):
        n = 2 * k
        self.k = k
        self.alpha = qcoef(alpha)
        self.mu = () if mu is None else _entries(n, mu)
        self.X = () if X is None else _entries(n, X, pair=True)
        self.lam = () if lam is None else _entries(n, lam)
        self.tag = tag
        self._check_skew()

    @classmethod
    def _of(cls, k, alpha, mu, X, lam) -> "LieElt":
        """The trusted constructor, for blocks the engine computed from
        checked elements: mu, X and lam as sorted nonzero entries of int or
        Fraction.  X is still checked for skewness."""
        out = cls.__new__(cls)
        out.k, out.alpha, out.mu, out.X, out.lam = k, alpha, mu, X, lam
        out.tag = None
        out._check_skew()
        return out

    def _check_skew(self):
        # X^T J_V + J_V X = 0 reads entrywise X[a][b] = -X[nbar(b)][nbar(a)];
        # where it holds at every nonzero entry, it holds at the zero ones
        n, x = 2 * self.k, dict(self.X)
        for (a, b), c in self.X:
            if x.get((dual(n, b), dual(n, a))) != -c:
                raise ValueError("X is not skew for the split form")

    def _check_k(self, other):
        if self.k != other.k:
            raise ValueError("Lie algebra elements of different k")

    def entries(self):
        """The nonzero entries ((r, c), v) of ``matrix()``, sorted by index."""
        n = 2 * self.k
        out = [((1 + a, 1 + b), c) for (a, b), c in self.X]
        if self.alpha:
            out += [((0, 0), self.alpha), ((n + 1, n + 1), -self.alpha)]
        # -lambda^T J_V and -mu^T J_V: J_V sends index i to dual(n, i)
        for col, row, v in ((0, n + 1, self.mu), (n + 1, 0, self.lam)):
            for i, c in v:
                out += [((1 + i, col), c), ((row, n - i), -c)]
        return sorted(out)

    def matrix(self):
        n = 2 * self.k
        m = _zeros(n + 2, n + 2)
        for (r, c), v in self.entries():
            m[r][c] = v
        return m

    def bracket(self, other: "LieElt") -> "LieElt":
        """[self, other] in block coordinates, touching only nonzero entries.

        With B(u, v) = u^T J_V v and (u v^T J_V)[i][j] = u_i v_dual(j):
            alpha  = B(l', m) - B(l, m')
            mu     = X m' - X' m + a' m - a m'
            lambda = X l' - X' l + a l' - a' l
            X      = [X, X'] - m l'^T J_V - l m'^T J_V + m' l^T J_V + l' m^T J_V
        """
        self._check_k(other)
        n = 2 * self.k
        a, m, x, l = self.alpha, self.mu, self.X, self.lam
        a2, m2, x2, l2 = other.alpha, other.mu, other.X, other.lam
        dm, dl, dm2, dl2 = (dict(v) for v in (m, l, m2, l2))
        alpha = (sum(c * dl2[dual(n, i)] for i, c in m if dual(n, i) in dl2)
                 - sum(c * dm2[dual(n, i)] for i, c in l if dual(n, i) in dm2))
        mu, lam, z = {}, {}, {}
        for s, v, out in ((a2, m, mu), (-a, m2, mu), (a, l2, lam),
                          (-a2, l, lam)):
            if s:
                for i, c in v:
                    out[i] = out.get(i, 0) + s * c
        # [X, X'] row by row through a row index of the right factor, and
        # the X-parts of mu and lambda
        for s, left, right, vm, vl in ((1, x, x2, dm2, dl2),
                                       (-1, x2, x, dm, dl)):
            rows: dict = {}
            for (j, t), d in right:
                rows.setdefault(j, []).append((t, d))
            for (i, j), c in left:
                c = s * c
                if j in vm:
                    mu[i] = mu.get(i, 0) + c * vm[j]
                if j in vl:
                    lam[i] = lam.get(i, 0) + c * vl[j]
                for t, d in rows.get(j, ()):
                    z[i, t] = z.get((i, t), 0) + c * d
        for s, u, v in ((-1, m, l2), (-1, l, m2), (1, m2, l), (1, l2, m)):
            for i, c in u:
                for t, d in v:
                    j = dual(n, t)
                    z[i, j] = z.get((i, j), 0) + s * c * d
        return LieElt._of(self.k, alpha, _nonzero(mu.items()),
                          _nonzero(z.items()), _nonzero(lam.items()))

    def scale(self, c) -> "LieElt":
        c = qcoef(c)
        mu, X, lam = ({ix: c * v for ix, v in b}
                      for b in (self.mu, self.X, self.lam))
        return LieElt(self.k, c * self.alpha, mu, X, lam, tag=self.tag)

    def __add__(self, other: "LieElt") -> "LieElt":
        self._check_k(other)
        blocks = [dict(b) for b in (self.mu, self.X, self.lam)]
        for d, b in zip(blocks, (other.mu, other.X, other.lam)):
            for ix, c in b:
                d[ix] = d.get(ix, 0) + c
        return LieElt(self.k, self.alpha + other.alpha, *blocks)

    def __eq__(self, other):
        if not isinstance(other, LieElt):
            return NotImplemented
        return (self.k == other.k and self.alpha == other.alpha
                and self.mu == other.mu and self.X == other.X
                and self.lam == other.lam)

    def __hash__(self):
        return hash((self.k, self.alpha, self.mu, self.X, self.lam))

    def is_zero(self) -> bool:
        return not (self.alpha or self.mu or self.X or self.lam)

    def __repr__(self):
        return (f"LieElt(alpha={self.alpha}, mu={self.mu}, "
                f"X={self.X}, lam={self.lam})")


def so_q_basis(k: int):
    """Basis of the Levi part: M_ab = E_ab - E_{bbar,abar} with ibar = 2k+1-i
    for (a, b) < (bbar, abar), as the mapping {(a, b): 1, (bbar, abar): -1}."""
    n = 2 * k
    return [{(a, b): 1, (dual(n, b), dual(n, a)): -1}
            for a in range(n) for b in range(n)
            if (a, b) < (dual(n, b), dual(n, a))]


@lru_cache(maxsize=64)
def basis(k: int) -> tuple:
    """Tagged basis: one alpha element, 2k mu, 2k lambda, dim o(Q) Levi.
    One shared tuple per k."""
    n = 2 * k
    return (LieElt(k, alpha=1, tag=("alpha",)),
            *(LieElt(k, mu={i: 1}, tag=("mu", i)) for i in range(n)),
            *(LieElt(k, lam={i: 1}, tag=("lam", i)) for i in range(n)),
            *(LieElt(k, X=X, tag=("levi", idx))
              for idx, X in enumerate(so_q_basis(k))))


def generators(k: int):
    """The 2k elements of ``basis`` that generate the algebra as a Lie
    algebra: the 2k - 2 translations ("mu", i), 1 <= i <= 2k - 2, which are
    orthogonal to the hyperbolic plane of e_1 and e_2k, and the two special
    conformal elements ("lam", 0) and ("lam", 2k - 1) of that plane.

    That their iterated brackets span the algebra is not assumed:
    ``suites.lie_hom_checks`` proves it at each k it runs with
    ``generated_dimension``, an exact rank."""
    n = 2 * k
    return [xi for xi in basis(k)
            if xi.tag in {("lam", 0), ("lam", n - 1)}
            or (xi.tag[0] == "mu" and 0 < xi.tag[1] < n - 1)]


def generated_dimension(k: int, gens) -> int:
    """The dimension of the Lie subalgebra that ``gens`` generate at k, by
    an exact rank; it stops at dim so(2k+2), the dimension of the algebra.

    The closure is breadth first and grown one element at a time with
    ``rref_add``, each element as its matrix flattened, entry (r, c) at
    r (2k+2) + c.  Layer 0 is ``gens`` and layer d + 1 the brackets of the
    generators with the elements kept in layer d, where an element is kept
    when it raises the rank.  Let V_0 be the span of the generators and
    V_(d+1) = V_d + [G, V_d]; their union is spanned by the brackets
    [g_1, [g_2, ..., g_m]], so it is the generated subalgebra.  By induction
    the elements kept in layers 0..d span V_d, and [G, V_d] lies in
    [G, V_(d-1)] + [G, layer d kept], so the kept elements and layer d + 1
    span V_(d+1).
    """
    width, full = 2 * k + 2, len(basis(k))
    form = {}

    def raises_rank(xi):
        return rref_add(form, {r * width + c: v for (r, c), v in xi.entries()})

    kept = [xi for xi in gens if raises_rank(xi)]
    for xi in kept:
        for g in gens:
            if len(form) == full:
                return full
            eta = g.bracket(xi)
            if raises_rank(eta):
                kept.append(eta)
    return len(form)


class GroupElt:
    """Exact rational matrix preserving the extended split form, stored as
    the integer matrix ``M`` over its least common denominator ``den``."""

    __slots__ = ("k", "M", "den")

    def __init__(self, k: int, m):
        """Build from a (2k+2)-square matrix of rationals; raises ValueError
        for any other shape and for a matrix that does not preserve J+."""
        n = 2 * k + 2
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError(f"a group element at k={k} is {n}x{n}")
        m = [[qcoef(c) for c in row] for row in m]
        den = lcm(*(c.denominator for row in m for c in row))
        self._set(k, [[c.numerator * (den // c.denominator) for c in row]
                      for row in m], den)

    def _set(self, k, M, den):
        """Store M / den in lowest terms and check the form."""
        n = 2 * k + 2
        g = gcd(den, *(c for row in M for c in row))
        if g != 1:
            M, den = [[c // g for c in row] for row in M], den // g
        self.k, self.M, self.den = k, M, den
        # M^T J+ M, where J+ M is M read bottom to top
        form = mat_mul(list(zip(*M)), M[::-1])
        d2 = den * den
        if form != [[d2 if j == dual(n, i) else 0 for j in range(n)]
                    for i in range(n)]:
            raise ValueError("matrix does not preserve the extended form")

    @property
    def m(self):
        """The rational matrix M / den, as a new list of rows."""
        den = self.den
        return [[qdiv(c, den) for c in row] for row in self.M]

    def __mul__(self, other: "GroupElt") -> "GroupElt":
        if self.k != other.k:
            raise ValueError("group elements of different k")
        out = GroupElt.__new__(GroupElt)
        out._set(self.k, mat_mul(self.M, other.M), self.den * other.den)
        return out

    def inv(self) -> "GroupElt":
        out = GroupElt.__new__(GroupElt)
        out._set(self.k, _inverse(self.M), self.den)
        return out

    def __eq__(self, other):
        if not isinstance(other, GroupElt):
            return NotImplemented
        return (self.k == other.k and self.den == other.den
                and self.M == other.M)

    def __repr__(self):
        return f"GroupElt({self.m})"


def w0(k: int) -> GroupElt:
    """The Weyl inversion: swaps the two ends, fixes the middle block."""
    n = 2 * k + 2
    m = _zeros(n, n)
    m[0][n - 1] = 1
    m[n - 1][0] = 1
    for i in range(1, n - 1):
        m[i][i] = 1
    return GroupElt(k, m)


def u(k: int, v) -> GroupElt:
    """Upper unipotent attached to v."""
    n = 2 * k
    v = _frac_vec(v, n)
    m = _zeros(n + 2, n + 2)
    m[0][0] = 1
    m[n + 1][n + 1] = 1
    for j in range(n):
        m[0][1 + j] = -v[dual(n, j)]
        m[1 + j][n + 1] = v[j]
        m[1 + j][1 + j] = 1
    m[0][n + 1] = -q_of(v)
    return GroupElt(k, m)


def u_op(k: int, v) -> GroupElt:
    """Opposite unipotent attached to v (parametrizes the big cell): the
    conjugate w0 u(v) w0 of the upper unipotent by the Weyl inversion."""
    return w0(k) * u(k, v) * w0(k)


def levi(k: int, a, h) -> GroupElt:
    """Levi element diag(a, h, a^{-1}) with h preserving the middle form."""
    n = 2 * k
    a = qcoef(a)
    m = _zeros(n + 2, n + 2)
    m[0][0] = a
    m[n + 1][n + 1] = qdiv(1, a)
    for i in range(n):
        for j in range(n):
            m[1 + i][1 + j] = h[i][j]
    return GroupElt(k, m)


class DegenerateCell(Exception):
    """The pivot of the Bruhat factorization vanishes identically."""


class NotQLaurent(Exception):
    """The factorization pivot is not a constant times a power of Q."""


def bruhat_factor(g: GroupElt):
    """Factor g^{-1} u_v^op through the big cell at a symbolic point v.

    The first column of g^{-1} u_v^op equals t * (1, v', -Q(v'))^T; the pivot
    t is the conformal character value chi0(p(g, v)).  Returns (vPrime, chi0)
    with vPrime a vector of QLaurent and chi0 a QLaurent.  Raises
    DegenerateCell when the pivot is identically zero and NotQLaurent when it
    is not a rational multiple of a power of Q (the factorization then leaves
    the Q-Laurent class).
    """
    k, n = g.k, 2 * g.k
    col = [Poly.const(n, 1), *(Poly.var(n, i) for i in range(n)), -q_form(k)]
    # the column times den: the ratios v' need no division, the pivot one
    pivot, *nums = _cell_column(g, col, range(n + 1))
    if pivot.is_zero():
        raise DegenerateCell("factorization pivot vanishes identically")
    pivot_inv = _q_power_inverse(pivot, k)
    vprime = [QLaurent(k, p, 0) * pivot_inv for p in nums]
    return vprime, QLaurent(k, pivot.scale(qdiv(1, g.den)), 0)


def _q_power_inverse(p: Poly, k: int) -> QLaurent:
    """1/p for p = c * Q^m.  ``QLaurent`` strips Q from p / Q^m with
    m = deg p / 2, which leaves the constant c exactly when p = c * Q^m;
    NotQLaurent otherwise."""
    m = max(p.degree(), 0) // 2
    c = QLaurent(k, p, m).num
    if c.is_zero() or not c.is_constant():
        raise NotQLaurent("pivot is not a constant multiple of a Q power")
    return QLaurent(k, Poly.const(2 * k, qdiv(1, c.constant())), m)


def _point_column(point) -> tuple:
    """(e, column) for a rational point v: e is the least denominator of v
    and the column is e^2 (1, v, -Q(v)), the first column of u_v^op times
    e^2, in integers."""
    e = lcm(*(c.denominator for c in point))
    w = [c.numerator * (e // c.denominator) for c in point]
    return e, (e * e, *(e * c for c in w), -q_of(w))


def _cell_column(g: GroupElt, col, rows):
    """Rows ``rows`` of den g^{-1} col, where col is the first column of
    u_v^op: the integer column of ``_point_column`` at a rational point, or
    (1, v, -Q(v)) as Polys at the symbolic point.

    den g^{-1} = J+ M^T J+, so its row i is column dual(i) of the integer
    matrix M read bottom to top; zero entries of M are skipped.
    """
    flipped, n = g.M[::-1], len(col)
    return [sum(row[j] * c for row, c in zip(flipped, col) if row[j])
            for j in (dual(n, i) for i in rows)]


def chi0_at(g: GroupElt, point):
    """chi0(p(g, v)) at a rational point v: the pivot of g^{-1} u_v^op, row
    0 of the column alone, divided once by den e^2."""
    e, col = _point_column(_frac_vec(point, 2 * g.k))
    [pivot] = _cell_column(g, col, (0,))
    return qdiv(pivot, g.den * e * e)


def act_at(g: GroupElt, point):
    """The rational action g(v) at a rational point, via the factorization:
    ratios of the column to its pivot, so its scale den e^2 cancels."""
    _, col = _point_column(_frac_vec(point, 2 * g.k))
    pivot, *nums = _cell_column(g, col, range(2 * g.k + 1))
    if pivot == 0:
        raise DegenerateCell("point outside the big cell for this g")
    return [qdiv(v, pivot) for v in nums]
