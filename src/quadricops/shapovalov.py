"""The quadric Shapovalov element: a polynomial in the Euler operator.

B_d is the invariant pairing element obtained by expanding the d-th power of
the split form over V x V and hitting the second factor with the quadric
Fourier transform.  On the cone it acts on each graded piece by a scalar;
collecting the scalars gives the closed form

    B_d = prod_{j=1..d} (E - j + 1) * prod_{j=1..d} (E + k - j - 1),

held as a ``Poly`` in the one variable E and turned into an operator by
``euler_to_weyl``.  ``closed_form_induction`` proves it for every d from
B_1 and three exact identities.  Two corollaries of the induction: B_d acts
on the degree-r piece of the cone by the scalar p_d(r), and B_d has weight
zero for every d, that is it commutes on the cone with E and with every
operator that commutes with E and normalizes (Q*), such as the Levi
letters.  So a passing check builds B_1 alone; ``shapovalov_series`` builds
B_2 and B_3 only on the paths where the induction fails.

Its Fourier image substitutes E -> -E - 2k + 2, and the two root sets are
disjoint for k >= 2, which the Bezout certificate witnesses.
"""

from __future__ import annotations

from itertools import combinations

from .coneops import ConeOp, letter_op
from .poly import (Poly, add_terms, normal_form_mod_single, q_form, qdiv,
                   reduce_mod, unit)
from .weyl import WeylOp, euler_op


def xgcd(a: Poly, b: Poly):
    """Extended Euclid in Q[E]: returns (g, s, t) with s*a + t*b = g, g monic.

    In one variable graded lex is degree order, so ``normal_form_mod_single``
    is division with remainder.
    """
    one, zero = Poly.const(1, 1), Poly.zero(1)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while r1:
        q, r = normal_form_mod_single(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, s0, t0
    inv = qdiv(1, r0.leading()[1])
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def shapovalov_closed(d: int, k: int) -> Poly:
    """Closed form prod (E-j+1) prod (E+k-j-1), j = 1..d, in the variable E."""
    if d < 1:
        raise ValueError("d must be positive")
    E = Poly.var(1, 0)
    out = Poly.const(1, 1)
    for j in range(1, d + 1):
        out = out * (E + (1 - j))
    for j in range(1, d + 1):
        out = out * (E + (k - j - 1))
    return out


def fourier_euler_image(p: Poly, k: int) -> Poly:
    """Image under the quadric Fourier transform: E -> -E - 2k + 2."""
    return p.subs_vars([Poly.var(1, 0, -1) + (2 - 2 * k)])


def euler_to_weyl(p: Poly, k: int) -> WeylOp:
    """Substitute the Euler operator in 2k variables for E, by Horner's rule."""
    E, out = euler_op(k), WeylOp.zero(2 * k)
    for e in range(p.degree(), -1, -1):
        out = out * E + p.coeff((e,))
    return out


class FactorsDoNotCommute(ArithmeticError):
    """Two second-order factors of the Shapovalov recursion do not commute."""


def shapovalov_factors(k: int) -> list:
    """The 2k pairs of the recursion as (m_j, name, F_j): m_j the packed
    coordinate x_i or y_i, F_j its partner YY_(k+1-i) or XX_(k+1-i)."""
    n = 2 * k
    return [(unit(n, i + off), f"{kind}{k - i}", letter_op(k, (kind, k - i)))
            for off, kind in ((0, "YY"), (k, "XX")) for i in range(k)]


def shapovalov_series(dmax: int, k: int) -> list:
    """[B_1, ..., B_dmax] as explicit cone operators.

    B_d expands B((x,y),(u,v))^d and replaces the second-factor monomial by
    its Fourier image, u_j -> XX_j and v_j -> YY_j, with multiplications on
    the left (the pairing contracts function times operator).  So B_d is the
    d-th power of sum_j m_j (x) F_j, with x_i paired with YY_(k+1-i) and y_i
    with XX_(k+1-i).  Because the F_j commute, which is proven here by exact
    commutators, that power obeys B_d = sum_j m_j B_(d-1) F_j; left
    multiplication by m_j only shifts the x-exponent of an x-left term.
    """
    if dmax < 1:
        raise ValueError("d must be positive")
    n = 2 * k
    factors = shapovalov_factors(k)
    for (_, p, f), (_, q, g) in combinations(factors, 2):
        if f.commutator(g):
            raise FactorsDoNotCommute(f"{p} and {q} do not commute")
    prev, series = WeylOp.identity(n), []
    for _ in range(dmax):
        terms: dict = {}
        for shift, _, f in factors:
            add_terms(terms, (((a + shift, b), c)
                              for (a, b), c in (prev * f).terms.items()))
        prev = WeylOp._of(n, terms)
        series.append(ConeOp(prev))
    return series


def euler_shift(p: Poly, s) -> Poly:
    """p(E + s) in Q[E]."""
    return p.subs_vars([Poly.var(1, 0) + s])


def closed_form_induction(b1: ConeOp, dmax: int):
    """Prove B_d = p_d(E) on the cone for d = 1..dmax from B_1 alone;
    returns the first step that fails, or None.

    Write Q.D for the left ideal generated by Q.  An x-left operator lies in
    it iff Q divides each of its coefficients, which is what ``ConeOp``
    equality tests, and Q.D is closed under left multiplication by the
    functions m_j (they commute with Q) and under any right multiplication.
    Three exact steps:

    1. E F_j = F_j (E - 1) for each factor of ``shapovalov_factors`` (each
       F_j has weight -1), as the exact commutator [E, F_j] = -F_j; so
       p(E) F_j = F_j p(E - 1) for every p in Q[E].
    2. B_1 = p_1(E) as ``ConeOp`` classes, that is modulo Q.D.
    3. p_d(E) = p_1(E) p_(d-1)(E - 1) in Q[E], by ``Poly`` equality, for
       d = 2..dmax.

    They give B_d = p_d(E) modulo Q.D by induction on d:

    - d = 1: step 2.
    - d - 1 -> d: with B_(d-1) = p_(d-1)(E) modulo Q.D,
      B_d = sum_j m_j B_(d-1) F_j = sum_j m_j p_(d-1)(E) F_j
          = sum_j m_j F_j p_(d-1)(E - 1) = B_1 p_(d-1)(E - 1)
          = p_1(E) p_(d-1)(E - 1) = p_d(E),
      by the closure of Q.D, step 1, the definition of B_1, step 2 and the
      closure again, and step 3.

    Corollary (graded scalars): if the induction holds, B_d acts on the
    degree-r piece of the cone by the scalar p_d(r), for every r and every
    d = 1..dmax.

    - B_d = p_d(E) + Q X for some operator X.
    - E acts on a homogeneous function of degree r by r, so p_d(E) acts on
      it by p_d(r).
    - Q X f lies in the ideal (Q) for every polynomial f, so Q.D acts as
      zero on the coordinate ring of the cone.

    Corollary (weight zero): if the induction holds and an operator L
    satisfies [L, E] = 0 and normalizes (Q*), then [L, B_d] = 0 on the cone
    for every d = 1..dmax.

    - [L, E] = 0 gives [L, p_d(E)] = 0.
    - L normalizes (Q*), that is L Q = Q Y for some operator Y
      (``is_ideal_preserving``).  So [L, Q X] = Q (Y X - X L) lies in Q.D
      for every X; for a vector field L with L(Q) in (Q) this reads
      [L, Q.X] = L(Q).X + Q.[L, X].
    - Hence [L, B_d] = [L, p_d(E) + Q X] = [L, Q X] is in Q.D, which is
      the zero class on the cone.

    E normalizes (Q*) since E Q = Q (E + 2); it is also Etil + (1 - k),
    the image of a letter.  Every letter is built by ``rho_tilde``, which
    refuses an image that does not normalize (Q*).  So for E and the Levi
    letters only [L, E] = 0 is left to check, as an exact commutator.
    """
    k = b1.k
    e = euler_op(k)
    for _, name, f in shapovalov_factors(k):
        if e.commutator(f) != -f:
            return f"E {name} != {name} (E - 1)"
    p1 = shapovalov_closed(1, k)
    if b1 != ConeOp(euler_to_weyl(p1, k)):
        return "d=1"
    for d in range(2, dmax + 1):
        if shapovalov_closed(d, k) != p1 * euler_shift(
                shapovalov_closed(d - 1, k), -1):
            return f"d={d}: p_d(E) != p_1(E) p_(d-1)(E - 1)"
    return None


def shapovalov_expand(d: int, k: int) -> ConeOp:
    """B_d as an explicit cone operator: the last of ``shapovalov_series``.

    ``quadricops shapovalov`` builds it only when ``closed_form_induction``
    fails; otherwise the closed form's class is B_d's class."""
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
    apply = op.op.apply
    probe = Poly.monomial((r,) + (0,) * (n - 1))
    img = reduce_mod(apply(probe), qs)
    if img.is_zero():
        c = 0
    else:
        c = img.coeff((r,) + (0,) * (n - 1))
        if img != probe.scale(c):
            raise NotScalar("image of x1^r is not proportional to x1^r")
    # second test vector: (x1 + x2 + y1)^r reduced
    second = (Poly.var(n, 0) + Poly.var(n, min(1, n - 1)) + Poly.var(n, k)) ** r
    second = reduce_mod(second, qs)
    img2 = reduce_mod(apply(second), qs)
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
    g, a, b = xgcd(p, q)  # g is monic: 1 when its degree is 0
    if g.degree() != 0:
        raise ArithmeticError("Shapovalov polynomials are not coprime")
    if a * p + b * q != Poly.const(1, 1):
        raise ArithmeticError("Bezout certificate failed")
    return a, b
