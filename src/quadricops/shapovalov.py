"""The quadric Shapovalov element: a polynomial in the Euler operator.

B_d is the invariant pairing element obtained by expanding the d-th power of
the split form over V x V and hitting the second factor with the quadric
Fourier transform.  On the cone it acts on each graded piece by a scalar;
collecting the scalars gives the closed form

    B_d = prod_{j=1..d} (E - j + 1) * prod_{j=1..d} (E + k - j - 1).

Its Fourier image substitutes E -> -E - 2k + 2, and the two root sets are
disjoint for k >= 2, which the Bezout certificate witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .coneops import ConeOp, xx_op, yy_op
from .poly import (Poly, mono_text, q_form, qcoef, qdiv, reduce_mod,
                   signed_text, unit)
from .weyl import WeylOp, euler_op


class EulerPoly:
    """Dense univariate polynomial in E over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [qcoef(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def const(cls, c) -> "EulerPoly":
        return cls([c])

    @classmethod
    def linear(cls, shift) -> "EulerPoly":
        """E + shift."""
        return cls([shift, 1])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, EulerPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "EulerPoly") -> "EulerPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return EulerPoly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self):
        return EulerPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EulerPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return EulerPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "EulerPoly"):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        while len(rem) >= len(d) and rem:
            f = qdiv(rem[-1], d[-1])
            pos = len(rem) - len(d)
            quo[pos] = f
            for i, c in enumerate(d):
                rem[pos + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return EulerPoly(quo), EulerPoly(rem)

    def eval(self, x):
        x = qcoef(x)
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return qcoef(total)

    def subs_linear(self, a, b) -> "EulerPoly":
        """Substitute E -> a*E + b."""
        lin = EulerPoly([b, a])
        out = EulerPoly([])
        power = EulerPoly([1])
        for c in self.coeffs:
            out = out + power * c
            power = power * lin
        return out

    def monic(self) -> "EulerPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return EulerPoly([qdiv(c, lead) for c in self.coeffs])

    def to_weyl(self, k: int) -> WeylOp:
        """Substitute the Euler operator for E."""
        E = euler_op(k)
        out = WeylOp.zero(2 * k)
        power = WeylOp.identity(2 * k)
        for c in self.coeffs:
            if c:
                out = out + power.scale(c)
            power = power * E
        return out

    def text(self) -> str:
        return signed_text((c, mono_text((i,), ("E",)))
                           for i, c in reversed(list(enumerate(self.coeffs)))
                           if c)

    def to_json(self) -> list:
        return [{"num": c.numerator, "den": c.denominator} for c in self.coeffs]

    def __repr__(self):
        return f"EulerPoly({self.text()})"


def xgcd(a: EulerPoly, b: EulerPoly):
    """Extended Euclid in Q[E]: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = EulerPoly([1]), EulerPoly([])
    t0, t1 = EulerPoly([]), EulerPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = qdiv(1, r0.coeffs[-1])
    return r0.monic(), s0 * inv, t0 * inv


def shapovalov_closed(d: int, k: int) -> EulerPoly:
    """Closed form prod (E-j+1) prod (E+k-j-1), j = 1..d."""
    if d < 1:
        raise ValueError("d must be positive")
    out = EulerPoly([1])
    for j in range(1, d + 1):
        out = out * EulerPoly.linear(-j + 1)
    for j in range(1, d + 1):
        out = out * EulerPoly.linear(k - j - 1)
    return out


def fourier_euler_image(p: EulerPoly, k: int) -> EulerPoly:
    """Image under the quadric Fourier transform: E -> -E - 2k + 2."""
    return p.subs_linear(-1, -2 * k + 2)


class FactorsDoNotCommute(ArithmeticError):
    """Two second-order factors of the Shapovalov recursion do not commute."""


def shapovalov_series(dmax: int, k: int) -> list:
    """[B_1, ..., B_dmax] as explicit cone operators.

    B_d expands B((x,y),(u,v))^d and replaces the second-factor monomial by
    its Fourier image, u_j -> XX_j and v_j -> YY_j, with multiplications on
    the left (the pairing contracts function times operator).  So B_d is the
    d-th power of sum_j m_j (x) F_j, with x_i paired with YY_(k+1-i) and y_i
    with XX_(k+1-i).  Because the F_j commute, which is proven here by exact
    products, that power obeys B_d = sum_j m_j B_(d-1) F_j; left
    multiplication by m_j only shifts the x-exponent of an x-left term.
    """
    if dmax < 1:
        raise ValueError("d must be positive")
    n = 2 * k
    factors = ([(unit(n, i), f"YY{k - i}", yy_op(k, k - i)) for i in range(k)]
               + [(unit(n, k + i), f"XX{k - i}", xx_op(k, k - i))
                  for i in range(k)])
    for (_, p, f), (_, q, g) in combinations(factors, 2):
        if f * g != g * f:
            raise FactorsDoNotCommute(f"{p} and {q} do not commute")
    prev, series = WeylOp.identity(n), []
    for _ in range(dmax):
        terms: dict = {}
        for shift, _, f in factors:
            for (a, b), c in (prev * f).terms.items():
                key = a + shift, b
                c += terms.get(key, 0)
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        prev = WeylOp._of(n, terms)
        series.append(ConeOp(prev))
    return series


def shapovalov_expand(d: int, k: int) -> ConeOp:
    """B_d as an explicit cone operator: the last of ``shapovalov_series``."""
    return shapovalov_series(d, k)[-1]


class NotScalar(Exception):
    """The operator does not act by a scalar on the graded piece."""


def scalar_on_graded(op: ConeOp, r: int):
    """The scalar by which a degree-0 operator acts on the r-th graded piece.

    Probes with x1^r and cross-checks on a second vector in the same piece;
    raises NotScalar on disagreement.
    """
    k = op.k
    n = 2 * k
    qs = q_form(k)
    probe = Poly.monomial((r,) + (0,) * (n - 1))
    img = reduce_mod(op.op.apply(probe), qs)
    if img.is_zero():
        c = 0
    else:
        c = img.coeff((r,) + (0,) * (n - 1))
        if img != probe.scale(c):
            raise NotScalar("image of x1^r is not proportional to x1^r")
    # second test vector: (x1 + x2 + y1)^r reduced
    second = (Poly.var(n, 0) + Poly.var(n, min(1, n - 1)) + Poly.var(n, k)) ** r
    second = reduce_mod(second, qs)
    img2 = reduce_mod(op.op.apply(second), qs)
    if img2 != second.scale(c):
        raise NotScalar("graded piece probes disagree")
    return c


def fourier_roots_bezout(d: int, k: int):
    """Bezout certificate (a, b) with a*B_d + b*F(B_d) = 1 in Q[E].

    The root sets {0..d-1} u {2-k..d-k+1} and their Fourier shifts are
    disjoint for k >= 2, so the gcd is 1; a failure here would contradict the
    closed form and is raised as an error.
    """
    p = shapovalov_closed(d, k)
    q = fourier_euler_image(p, k)
    g, s, t = xgcd(p, q)
    if g.degree() != 0:
        raise ArithmeticError("Shapovalov polynomials are not coprime")
    inv = qdiv(1, g.coeffs[0])
    a, b = s * inv, t * inv
    if a * p + b * q != EulerPoly([1]):
        raise ArithmeticError("Bezout certificate failed")
    return a, b
