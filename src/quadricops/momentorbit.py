"""Phase-space side: moment map, descent check, orbit matrix and relations.

Phase-space polynomials live in 4k variables, split into a base block v and a
fiber block x (each 2k wide, in x/y coordinates); descent and boundary checks
append extra formal parameters after the two blocks.  The Poisson bracket
pairs base variable j with the fiber variable dual to j under the split form,
matching the principal-symbol convention (sigma(d_{x_i}) is the fiber
coordinate y_{k+1-i}).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .lie import LieElt
from .poly import Poly, b_pair, dual, normal_form_mod_single, q_of, qdiv


def block_var(k: int, block: int, i: int, extra: int = 0) -> Poly:
    """Variable i of block 0 (v) or 1 (x) inside the 4k(+extra) ring."""
    n = 2 * k
    return Poly.var(2 * n + extra, block * n + i)


def v_vector(k: int, extra: int = 0) -> list:
    return [block_var(k, 0, i, extra) for i in range(2 * k)]


def x_vector(k: int, extra: int = 0) -> list:
    return [block_var(k, 1, i, extra) for i in range(2 * k)]


def const_vector(k: int, vec, nvars: int) -> list:
    return [Poly.const(nvars, c) for c in vec]


def apply_matrix(entries, vec: list) -> list:
    """Matrix of rationals times vector of polynomials, the matrix given by
    its nonzero entries ((i, j), c) sorted by index, as ``LieElt.X``."""
    out = [None] * len(vec)
    for (i, j), c in entries:
        term = vec[j].scale(c)
        out[i] = term if out[i] is None else out[i] + term
    return [Poly.zero(vec[0].nvars) if p is None else p for p in out]


def moment(xi: LieElt, extra: int = 0) -> Poly:
    """The moment-map pairing of xi against the tautological covector:

    B(x,mu) + B(x,Xv) - alpha B(x,v) + B(lam,v) B(x,v) - Q(v) B(x,lam).
    """
    k = xi.k
    nv = 4 * k + extra
    v = v_vector(k, extra)
    x = x_vector(k, extra)
    mu = const_vector(k, xi.mu, nv)
    lam = const_vector(k, xi.lam, nv)
    out = b_pair(x, mu)
    out = out + b_pair(x, apply_matrix(xi.X, v))
    if xi.alpha:
        out = out - b_pair(x, v).scale(xi.alpha)
    if any(xi.lam):
        out = out + b_pair(lam, v) * b_pair(x, v)
        out = out - q_of(v) * b_pair(x, lam)
    return out


def check_descent(xi: LieElt) -> Poly:
    """Defect of fiber-shear invariance: Phi(v + t x, x) - Phi(v, x) mod (Q(x)).

    Returns the canonical-form defect, expected to vanish identically.
    """
    k = xi.k
    # one extra formal variable t at the end
    phi0 = moment(xi, extra=1)
    nv = 4 * k + 1
    t = Poly.var(nv, nv - 1)
    v = v_vector(k, extra=1)
    x = x_vector(k, extra=1)
    sheared = [vi + t * xi_ for vi, xi_ in zip(v, x)]
    images = sheared + x + [t]
    phi1 = phi0.subs_vars(images)
    qx = q_of(x)
    _, defect = normal_form_mod_single(phi1 - phi0, qx)
    return defect


def orbit_matrix(k: int):
    """The matrix of invariants M(v, w) in (2k+2)-block shape.

    Blocks: alpha = B(v,w), mu = alpha v - Q(v) w, middle X = v wedge w with
    (v ^ w)(z) = B(v,z) w - B(w,z) v; entries are polynomials in 4k variables
    (v block then w block).
    """
    n = 2 * k
    nv = 4 * k
    v = v_vector(k)
    w = x_vector(k)
    alpha = b_pair(v, w)
    mu = [alpha * v[i] - q_of(v) * w[i] for i in range(n)]
    zero = Poly.zero(nv)
    m = [[zero for _ in range(n + 2)] for _ in range(n + 2)]
    m[0][0] = alpha
    m[n + 1][n + 1] = -alpha
    for i in range(n):
        m[1 + i][0] = mu[i]
        m[1 + i][n + 1] = w[i]
        # -w^T J_V in the top row, -mu^T J_V in the bottom row
        m[0][1 + i] = -w[dual(n, i)]
        m[n + 1][1 + i] = -mu[dual(n, i)]
        for j in range(n):
            # (v wedge w)[i][j] = w_i (v^T J)_j - v_i (w^T J)_j
            m[1 + i][1 + j] = w[i] * v[dual(n, j)] - v[i] * w[dual(n, j)]
    return m


def _mat_poly_mul(a, b):
    n = len(a)
    zero = None
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for l in range(n):
                if a[i][l].is_zero() or b[l][j].is_zero():
                    continue
                term = a[i][l] * b[l][j]
                acc = term if acc is None else acc + term
            if acc is None:
                if zero is None:
                    zero = Poly.zero(a[0][0].nvars)
                acc = zero
            row.append(acc)
        out.append(row)
    return out


def verify_orbit_relations(k: int) -> list:
    """All defining relations of the invariant matrix modulo (Q(w)).

    Returns a list of (check id, residue-is-zero, residue text) covering the
    quadratic block relations, the rank conditions (3x3 minors, proven by a
    rank-2 factorization of the matrix), the square of the matrix, and the
    Pluecker relations on the middle block.
    """
    n = 2 * k
    v = v_vector(k)
    w = x_vector(k)
    M = orbit_matrix(k)
    alpha = M[0][0]
    mu = [M[1 + i][0] for i in range(n)]
    X = [row[1:n + 1] for row in M[1:n + 1]]
    qw = q_of(w)

    def red(p: Poly) -> Poly:
        return normal_form_mod_single(p, qw)[1]

    results = []

    def record(name: str, p: Poly):
        r = red(p)
        results.append((name, r.is_zero(), r.text()))

    record("Q(w)", qw)
    record("Q(mu)", q_of(mu))
    record("B(mu,w)-alpha^2", b_pair(mu, w) - alpha * alpha)
    for i in range(n):
        xw = sum((X[i][j] * w[j] for j in range(n)), Poly.zero(4 * k))
        record(f"(Xw-alpha*w)[{i}]", xw - alpha * w[i])
        xm = sum((X[i][j] * mu[j] for j in range(n)), Poly.zero(4 * k))
        record(f"(Xmu+alpha*mu)[{i}]", xm + alpha * mu[i])
    # X^2 = w mu_flat + mu w_flat  and  alpha X = w mu_flat - mu w_flat
    X2 = _mat_poly_mul(X, X)
    for i in range(n):
        for j in range(n):
            outer_sym = w[i] * mu[dual(n, j)] + mu[i] * w[dual(n, j)]
            record(f"(X^2-outer)[{i}][{j}]", X2[i][j] - outer_sym)
            outer_skw = w[i] * mu[dual(n, j)] - mu[i] * w[dual(n, j)]
            record(f"(alpha*X-outer)[{i}][{j}]", alpha * X[i][j] - outer_skw)
    # Pluecker relations on the middle block, bar(i) = 2k+1-i
    ok_pluecker = True
    worst = ""
    for (i, j, l, m_) in combinations(range(n), 4):
        p = (X[i][dual(n, j)] * X[l][dual(n, m_)]
             - X[i][dual(n, l)] * X[j][dual(n, m_)]
             + X[i][dual(n, m_)] * X[j][dual(n, l)])
        r = red(p)
        if not r.is_zero():
            ok_pluecker = False
            worst = f"({i},{j},{l},{m_}): {r.text()}"
            break
    results.append(("pluecker", ok_pluecker, worst))
    # full matrix: square and 3x3 minors
    M2 = _mat_poly_mul(M, M)
    ok_sq = True
    worst = ""
    for i in range(n + 2):
        for j in range(n + 2):
            r = red(M2[i][j])
            if not r.is_zero():
                ok_sq = False
                worst = f"[{i}][{j}]: {r.text()}"
                break
        if not ok_sq:
            break
    results.append(("M^2", ok_sq, worst))
    # rank 2 (Brylinski-Kostant): with p = (1, v, -Q(v)), q = (0, w, -B(v,w))
    # and J reversing the index, M = q (Jp)^T - p (Jq)^T mod (Q(w)); M is then
    # a product of (2k+2)x2 and 2x(2k+2) matrices, so by Cauchy-Binet every
    # 3x3 minor vanishes modulo (Q(w))
    p = [Poly.const(4 * k, 1), *v, -q_of(v)]
    q = [Poly.zero(4 * k), *w, -alpha]
    worst = ""
    for i, j in product(range(n + 2), repeat=2):
        r = red(M[i][j] - (q[i] * p[n + 1 - j] - p[i] * q[n + 1 - j]))
        if not r.is_zero():
            worst = f"rank-2 factorization fails at [{i}][{j}]: {r.text()}"
            break
    results.append(("3x3 minors", not worst, worst))
    return results


def poisson(a: Poly, b: Poly, k: int) -> Poly:
    """Canonical Poisson bracket on the 4k-variable phase ring.

    The conjugate momentum of base variable j is the fiber variable dual(j):
    {f, g} = sum_j df/d(fiber dual j) dg/d(base j) - df/d(base j) dg/d(fiber dual j).
    """
    n = 2 * k
    out = Poly.zero(4 * k)
    for j in range(n):
        pj = n + dual(n, j)
        out = out + a.deriv(pj) * b.deriv(j) - a.deriv(j) * b.deriv(pj)
    return out


@lru_cache(maxsize=1024)
def symbol_invariant(xi: LieElt) -> Poly:
    """The descended invariant function matching the principal symbol.

    Variables: block 0 = cone base point w, block 1 = fiber point v (the
    layout produced by principal_symbol).  Per block type:
    alpha: -a B(v,w); mu: B(mu, w); X: 1/2 tr((v wedge w) X^T);
    lambda: B(mu_{v,w}, lam) with mu_{v,w} = B(v,w) v - Q(v) w.  The mu/lam
    pairings evaluate to the plain coordinate pairing because the tags are
    already expressed in the split-form-identified coordinates.  Memoized
    by the exact value of xi; the functions are shared.
    """
    k = xi.k
    n = 2 * k
    w = v_vector(k)  # block 0: base point on the cone
    v = x_vector(k)  # block 1: fiber point
    alpha = b_pair(v, w)
    out = Poly.zero(4 * k)
    if xi.alpha:
        out = out - alpha.scale(xi.alpha)
    for i in range(n):
        if xi.mu[i]:
            out = out + w[i].scale(xi.mu[i])
    if any(xi.lam):
        qv = q_of(v)
        for i in range(n):
            if xi.lam[i]:
                out = out + (alpha * v[i] - qv * w[i]).scale(xi.lam[i])
    for (i, j), c in xi.X:
        wedge = w[i] * v[dual(n, j)] - v[i] * w[dual(n, j)]
        out = out + wedge.scale(qdiv(c, 2))
    return out


def phase_euler(k: int) -> Poly:
    """The phase-space Euler function: sum over conjugate pairs of q p."""
    n = 2 * k
    out = Poly.zero(4 * k)
    for j in range(n):
        out = out + block_var(k, 0, j) * block_var(k, 1, dual(n, j))
    return out
