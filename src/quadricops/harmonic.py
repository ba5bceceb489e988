"""Kelvin transform, harmonic decomposition, and the worked examples.

Everything here is exact: the Kelvin transform acts on Q-Laurent functions by
substitution of the conformal inversion, harmonicity is a rational nullspace
computation, and the classical series/phase examples are verified as
polynomial identities.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .poly import (Poly, QLaurent, b_pair, dual, mdegree,
                   normal_form_mod_single, pack, q_form, qcoef, qdiv,
                   reduce_mod)
from .weyl import (LocalWeylOp, NotDivisible, WeylOp, euler_op, laplacian_op,
                   monomials_up_to)
from .coneops import xx_op, yy_op
from .momentorbit import q_poly, x_vector


class SymmetryCert:
    """Witness that xi normalizes the left ideal of the Laplacian.

    Holds delta with Delta * xi = delta * Delta, an exact Weyl identity.
    """

    __slots__ = ("xi", "delta")

    def __init__(self, xi: WeylOp, delta: WeylOp):
        self.xi = xi
        self.delta = delta
        k = xi.nvars // 2
        lap = laplacian_op(k)
        if lap * xi != delta * lap:
            raise ValueError("certificate identity fails")


def is_higher_symmetry(xi: WeylOp):
    """Return a SymmetryCert for xi, or None when Delta*xi is not in D*Delta."""
    k = xi.nvars // 2
    lap = laplacian_op(k)
    try:
        delta = (lap * xi).divide_right_by_constcoef(lap)
    except NotDivisible:
        return None
    return SymmetryCert(xi, delta)


def kelvin(f: QLaurent, k: int | None = None) -> QLaurent:
    """The conformal Kelvin transform (Kf)(v) = (-Q(v))^{-(k-1)} f(-v/Q(v)).

    Substituting v -> -v/Q sends a degree-d term p_d to (-1)^d p_d Q^{-d};
    the result stays in the Q-Laurent class and K is an involution.
    """
    if k is None:
        k = f.k
    n = 2 * k
    q = q_form(k)
    deg = max(f.num.degree(), 0)
    # numerator(-v/Q) * Q^deg, collected by total degree
    num = Poly.zero(n)
    for m, c in f.num.terms.items():
        d = mdegree(m, n)
        sign = -1 if d % 2 else 1
        num = num + Poly._of(n, {m: c * sign}) * q ** (deg - d)
    # Q(-v/Q) = 1/Q, so the original denominator contributes Q^{+qexp}
    sign = -1 if (k - 1) % 2 else 1
    shift = (k - 1) + deg - f.qexp
    if shift >= 0:
        return QLaurent(k, num.scale(sign), shift)
    return QLaurent(k, num.scale(sign) * q ** (-shift), 0)


class CertificateError(ArithmeticError):
    """An identity that a closed form rests on failed its exact check."""


@lru_cache(maxsize=64)
def _laplacian_shift(q: Poly, m: int) -> WeylOp:
    """R = Q Delta - m E + m(m+1-k), proven to satisfy Q^(m+1) Delta = R Q^m.

    The Weyl identity is checked with exact operator products, once per
    (Q, m); CertificateError when it fails.
    """
    k = q.nvars // 2
    lap = laplacian_op(k)
    qm = q ** m
    r = WeylOp.mult(q) * lap - euler_op(k).scale(m) + m * (m + 1 - k)
    if WeylOp.mult(q * qm) * lap != r * WeylOp.mult(qm):
        raise CertificateError(f"Q^{m + 1} Delta != (Q Delta - {m} E + "
                               f"{m * (m + 1 - k)}) Q^{m} for k={k}")
    return r


def laplacian_qlaurent(f: QLaurent) -> QLaurent:
    """Delta(n/Q^m) = (Q Delta n - m E n + m(m+1-k) n) / Q^(m+1), exactly.

    Applying the Weyl identity Q^(m+1) Delta = R Q^m, R = Q Delta - m E +
    m(m+1-k), to n/Q^m gives Delta(n/Q^m) = R(n) / Q^(m+1) (Delta Q = k and
    B(grad Q, grad Q) = Q for the split form).  R is applied only after the
    identity is proven; m = 0 is the polynomial Laplacian.
    """
    k, m = f.k, f.qexp
    if m == 0:
        return QLaurent(k, laplacian_op(k).apply(f.num), 0)
    return QLaurent(k, _laplacian_shift(q_form(k), m).apply(f.num), m + 1)


def kelvin_intertwine_defect(f: QLaurent) -> QLaurent:
    """Delta(Kf) - Q^{-2} K(Delta f); identically zero on the Laurent class."""
    lhs = laplacian_qlaurent(kelvin(f))
    rhs = kelvin(laplacian_qlaurent(f)).div_by_q(2)
    return lhs - rhs


def sym_monomials(k: int, d: int):
    """Monomials of exact total degree d in 2k variables, sorted."""
    out = [m for m in monomials_up_to(2 * k, d) if sum(m) == d]
    out.sort()
    return out


def _subtract(row, f, other):
    """row -= f * other in place, dropping the entries that cancel."""
    for j, v in other.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def _rref(rows):
    """Exact reduced row echelon form of sparse rows {col: value}.

    Returns {pivot column: row}: each row is 1 at its pivot column, its
    least column, and 0 at every other pivot column.  The form is unique, so
    it does not depend on the order of the rows.
    """
    piv = {}
    for row in rows:
        row = dict(row)
        # the pivot rows vanish on each other's pivot columns: one pass
        for c in [c for c in row if c in piv]:
            _subtract(row, row[c], piv[c])
        if not row:
            continue
        c = min(row)
        p = row[c]
        row = {j: qdiv(v, p) for j, v in row.items()}
        for other in piv.values():
            if c in other:
                _subtract(other, other[c], row)
        piv[c] = row
    return piv


def harmonic_dimension(d: int, k: int) -> int:
    """dim of degree-d harmonics in 2k variables."""
    n = 2 * k
    dim_d = comb(d + n - 1, n - 1)
    dim_d2 = comb(d - 2 + n - 1, n - 1) if d >= 2 else 0
    return dim_d - dim_d2


def harmonic_decompose(d: int, k: int):
    """Exact splitting of Sym^d into harmonics and Q * Sym^{d-2}.

    Returns (harmonic basis, Q-multiple basis) as lists of Poly.  With R the
    reduced row echelon form of the Laplacian matrix, P its pivot columns
    and F the free ones, the harmonic basis is e_f - sum_p R[p][f] e_p for f
    in F.  It is the identity on F, so subtracting from each Q-multiple q
    its F-entries times the harmonics leaves the vector R q, zero on F.
    Hence the rank of harmonics and Q-multiples together is |F| + rank S,
    with S the block of the rows R q on P; the splitting is certified by
    that rank, computed exactly, equalling both the number of vectors and
    dim Sym^d.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = 2 * k
    lap = laplacian_op(k)
    monos = [pack(m) for m in sym_monomials(k, d)]
    col = {m: i for i, m in enumerate(monos)}
    target = [pack(m) for m in sym_monomials(k, d - 2)]
    trow = {m: i for i, m in enumerate(target)}
    # matrix of Delta: rows = Sym^{d-2} monomials, cols = Sym^d monomials
    rows = [{} for _ in target]
    for m in monos:
        for m2, c in lap.apply(Poly._of(n, {m: 1})).terms.items():
            rows[trow[m2]][col[m]] = c
    rref = _rref(rows)
    # the columns of R as {pivot: entry}
    rcols = [{} for _ in monos]
    for p, row in rref.items():
        for c, v in row.items():
            rcols[c][p] = v
    harm = []
    for f, m in enumerate(monos):
        if f not in rref:
            vec = {monos[p]: qcoef(-v) for p, v in rcols[f].items()}
            vec[m] = 1
            harm.append(Poly._of(n, vec))
    q = q_form(k)
    qmult = [q * Poly._of(n, {m: 1}) for m in target]
    block = []
    for p in qmult:
        s = {}
        for m, c in p.terms.items():
            _subtract(s, -c, rcols[col[m]])
        block.append(s)
    rank = len(harm) + len(_rref(block))
    if rank != len(harm) + len(qmult) or rank != len(monos):
        raise ArithmeticError("harmonic decomposition is not a direct sum")
    return harm, qmult


def exp_harmonicity_defect(k: int) -> Poly:
    """Defect of harmonicity of exp(-B(x, .)) at a symbolic cone point x.

    Conjugating the Laplacian by the exponential of the linear form
    l = -B(x, .) gives Delta_l(p) = Delta p + (first-order transport) + Q(x) p;
    at p = 1 the defect is Q(x), which vanishes on the cone.  Variables:
    block 0 = v (the argument), block 1 = x (the cone point); reduction is
    modulo (Q(x)).
    """
    n = 2 * k
    x = x_vector(k)
    one = Poly.const(4 * k, 1)
    defect = twisted_laplacian(one, k)
    qx = q_poly(x)
    return normal_form_mod_single(defect, qx)[1]


def twisted_laplacian(p: Poly, k: int) -> Poly:
    """Delta_l(p) = e^{-l} Delta(p e^{l}) for the linear form l = -B(x, v).

    p is a polynomial in 4k variables (v block, then the symbolic parameter
    block x); derivatives act on the v block only.
    """
    n = 2 * k
    x = x_vector(k)
    # l = -B(x, v): dl/dv_i = -x_{dual(i)}
    def dl(i):
        return -x[dual(n, i)]
    out = Poly.zero(4 * k)
    for i in range(k):
        a, b = i, dual(n, i)  # the pair (x_i, y_{k+1-i})
        out = out + p.deriv(a).deriv(b)
        out = out + dl(a) * p.deriv(b) + dl(b) * p.deriv(a)
        out = out + dl(a) * dl(b) * p
    return out


def bessel_series(k: int, M: int):
    """Coefficients a_0..a_M of the normalized series solution:
    a_0 = 1 and a_{m+1} (m+1)(m+k-1) = a_m."""
    coeffs = [1]
    for m in range(M):
        coeffs.append(qdiv(coeffs[-1], (m + 1) * (m + k - 1)))
    return coeffs


def bessel_check(k: int, M: int) -> dict:
    """Verify the radial system on the truncated series in t = y_k.

    Builds f = sum a_m t^m and applies the genuine operator XX_1 - 1; the
    residue must vanish below degree M - 1 (the top order sees the
    truncation).  Also checks Delta f = 0 and E f = t f'.
    """
    if k < 2 or M < 2:
        raise ValueError("need k >= 2 and M >= 2")
    n = 2 * k
    coeffs = bessel_series(k, M)
    tvar = n - 1  # y_k
    f = Poly(n, {})
    for m, c in enumerate(coeffs):
        mono = [0] * n
        mono[tvar] = m
        f = f + Poly.monomial(tuple(mono), c)
    op = xx_op(k, 1) - WeylOp.identity(n)
    residue = op.apply(f)
    low = Poly(n, {m: c for m, c in residue.terms.items()
                   if mdegree(m, n) < M - 1})
    lap_zero = laplacian_op(k).apply(f).is_zero()
    # E f = t f'
    ef = euler_op(k).apply(f)
    tfprime = Poly.var(n, tvar) * f.deriv(tvar)
    return {
        "coefficients": coeffs,
        "residue_low_degree": low,
        "residue_ok": low.is_zero(),
        "laplacian_zero": lap_zero,
        "euler_matches": ef == tfprime,
    }


def boundary_phase_check(k: int) -> dict:
    """The phase of the wave front near the boundary: w = lam*x + eps*u.

    Verifies B(x,w) = eps B(x,u) and Q(w) = lam*eps*B(x,u) + eps^2 Q(u)
    modulo (Q(x)), and the cleared identity
    B(x,w)(lam B(x,u) + eps Q(u)) - Q(w) B(x,u) = 0 mod (Q(x)),
    which encodes phase -> 1/lam + O(eps).
    """
    n = 2 * k
    nv = 4 * k + 2  # x block, u block, then lam, eps
    x = [Poly.var(nv, i) for i in range(n)]
    u = [Poly.var(nv, n + i) for i in range(n)]
    lam = Poly.var(nv, 2 * n)
    eps = Poly.var(nv, 2 * n + 1)
    w = [lam * xi + eps * ui for xi, ui in zip(x, u)]
    qx, qu, qw = q_poly(x), q_poly(u), q_poly(w)
    bxw = b_pair(x, w)
    bxu = b_pair(x, u)

    def red(p):
        return normal_form_mod_single(p, qx)[1]

    r1 = red(bxw - eps * bxu)
    r2 = red(qw - lam * eps * bxu - eps * eps * qu)
    r3 = red(bxw * (lam * bxu + eps * qu) - qw * bxu)
    return {
        "linear_term": r1,
        "quadratic_term": r2,
        "cleared_phase": r3,
        "ok": r1.is_zero() and r2.is_zero() and r3.is_zero(),
    }


def n2_counterexample(max_a: int = 3, max_b: int = 3) -> dict:
    """The rank-one obstruction: xi = x^{-1} d_x on the plane with Q = x y.

    Verifies [Delta, xi] = -x^{-2} Delta on Laurent test functions x^a y^b
    (representable as y^{|a|} x^0 y^b / Q^{|a|} for a < 0), and that xi(x) is
    not a polynomial while Delta(x) = 0 -- so xi is in neither D_V nor
    D_V + D Delta applied consistently to x.
    """
    k = 1
    n = 2
    lap = LocalWeylOp.from_weyl(laplacian_op(k))  # d_x d_y

    def xi_apply(f: QLaurent) -> QLaurent:
        # x^{-1} d_x f = (y / Q) * d_x f
        return QLaurent(k, Poly.var(n, 1), 1) * f.deriv(0)

    def commutator_defect(f: QLaurent) -> QLaurent:
        lhs = lap.apply(xi_apply(f)) - xi_apply(lap.apply(f))
        # -x^{-2} Delta f = -(y^2 / Q^2) Delta f
        rhs = QLaurent(k, Poly.monomial((0, 2), -1), 2) * lap.apply(f)
        return lhs - rhs

    def test_fn(a: int, b: int) -> QLaurent:
        if a >= 0:
            return QLaurent(k, Poly.monomial((a, b)), 0)
        return QLaurent(k, Poly.monomial((0, b - a)), -a)

    worst = None
    ok = True
    for a in range(-max_a, max_a + 1):
        for b in range(max_b + 1):
            defect = commutator_defect(test_fn(a, b))
            if not defect.is_zero():
                ok = False
                worst = (a, b, defect.text())
    xi_of_x = xi_apply(QLaurent(k, Poly.var(n, 0), 0))
    delta_of_x = lap.apply(QLaurent(k, Poly.var(n, 0), 0))
    return {
        "commutator_ok": ok,
        "commutator_worst": worst,
        "xi_of_x": xi_of_x,
        "xi_of_x_polynomial": xi_of_x.is_poly(),
        "delta_of_x_zero": delta_of_x.is_zero(),
    }


def dirac_relations(k: int) -> bool:
    """XX_i(1) = YY_i(1) = 0 and the coordinate classes x_i*1, y_i*1 span
    the degree-one piece of the cone ring."""
    n = 2 * k
    one = Poly.const(n, 1)
    qs = q_form(k)
    for i in range(1, k + 1):
        if not reduce_mod(xx_op(k, i).apply(one), qs).is_zero():
            return False
        if not reduce_mod(yy_op(k, i).apply(one), qs).is_zero():
            return False
    degree_one = {reduce_mod(Poly.var(n, i), qs) for i in range(n)}
    return len(degree_one) == n and all(p.degree() == 1 for p in degree_one)
