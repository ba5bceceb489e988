"""Phase-space side: moment map, descent check, orbit matrix and relations.

Phase-space polynomials live in 4k variables, split into a base block v and a
fiber block x (each 2k wide, in x/y coordinates).  The Poisson bracket
pairs base variable j with the fiber variable dual to j under the split form,
matching the principal-symbol convention (sigma(d_{x_i}) is the fiber
coordinate y_{k+1-i}).

There is one moment map, from T*V to the dual of the Lie algebra, and
``orbit_matrix`` is its one definition: the invariant matrix M(v, w).  M has
rank 2 and squares to 0 on the cone, so its image lies in the closure of the
minimal orbit (Brylinski and Kostant, PNAS 91, 1994).  Everything else
reads M:

- ``moment(xi)`` pairs M with xi in the V layout, base block v first;
- ``symbol_invariant(xi)`` is the same pairing in the cone layout, base
  point w first and fiber point v second.  The principal symbol of the
  corrected realization is the moment map after the Fourier swap of base
  and fiber, so the two layouts differ by the renaming that exchanges the
  blocks through the split form;
- ``check_descent(xi)`` differentiates the pairing once along the fiber
  shear;
- ``verify_orbit_relations`` reads the rank conditions and M^2 = 0, so the
  block relations, off one rank-2 factorization of M.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .lie import LieElt, mat_mul
from .poly import (Poly, add_terms, b_pair, dual, q_of, qdiv, reduce_mod,
                   unit)
from .weyl import WeylOp, halves, permute_vars


def block_var(k: int, block: int, i: int) -> Poly:
    """Variable i of block 0 (v) or 1 (x) inside the 4k ring."""
    n = 2 * k
    return Poly.var(2 * n, block * n + i)


def v_vector(k: int) -> list:
    return [block_var(k, 0, i) for i in range(2 * k)]


def x_vector(k: int) -> list:
    return [block_var(k, 1, i) for i in range(2 * k)]


@lru_cache(maxsize=64)
def orbit_matrix(k: int) -> tuple:
    """The matrix of invariants M(v, w) in (2k+2)-block shape: the moment map.

    Blocks: alpha = B(v,w), mu = alpha v - Q(v) w, middle X = v wedge w with
    (v ^ w)(z) = B(v,z) w - B(w,z) v, and lambda = w; entries are
    polynomials in 4k variables (v block then w block).  Memoized per k and
    shared by every caller, so the rows are tuples and their entries must
    not be changed.
    """
    n = 2 * k
    v = v_vector(k)
    w = x_vector(k)
    alpha, qv = b_pair(v, w), q_of(v)
    mu = [alpha * v[i] - qv * w[i] for i in range(n)]
    zero = Poly.zero(4 * k)
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
    return tuple(map(tuple, m))


def moment(xi: LieElt) -> Poly:
    """The moment-map pairing of xi against the tautological covector:

    1/2 sum A[r][c] M[dual(r)][dual(c)] over the nonzero entries A[r][c] of
    the matrix of xi, with M = ``orbit_matrix(k)`` and dual the pairing of
    J+.  In blocks it is B(x,mu) + B(x,Xv) - alpha B(x,v)
    + B(lam,v) B(x,v) - Q(v) B(x,lam), a polynomial in the 4k phase
    variables.
    """
    k = xi.k
    n = 2 * k + 2
    M = orbit_matrix(k)
    terms: dict = {}
    for (r, c), a in xi.entries():
        add_terms(terms, ((m, a * e) for m, e in
                          M[dual(n, r)][dual(n, c)].terms.items()))
    return Poly._of_values(4 * k, terms).scale(qdiv(1, 2))


def check_descent(xi: LieElt) -> Poly:
    """Defect of fiber-shear invariance of Phi = ``moment(xi)``: D Phi mod
    (Q(x)), with D = sum_i x_i d/dv_i the derivative along the shear.

    This decides invariance exactly.  D never differentiates x, so Taylor's
    formula reads Phi(v + t x, x) = sum_j t^j / j! D^j Phi, and D commutes
    with multiplication by Q(x), so it maps the ideal (Q(x)) into itself.
    Hence Phi(v + t x, x) - Phi(v, x) lies in (Q(x)) for every t exactly
    when D Phi does.  Returns the canonical-form defect, expected to vanish
    identically.
    """
    k = xi.k
    n, nv = 2 * k, 4 * k
    shear = WeylOp._of(nv, {unit(nv, i) << halves(nv)[0] | unit(nv, n + i): 1
                            for i in range(n)})
    return reduce_mod(shear.apply(moment(xi)), q_of(x_vector(k)))


def verify_orbit_relations(k: int) -> list:
    """All defining relations of the invariant matrix modulo (Q(w)).

    Returns a list of (check id, residue-is-zero, residue text) covering the
    quadratic block relations, the square of the matrix, and the rank
    conditions: the Pluecker relations on the middle block and the 3x3
    minors.  One rank-2 factorization of the matrix proves the rank
    conditions and, with three pairings, M^2 = 0; M is squared only when
    that proof fails, so a failing report names entries of M^2.
    """
    n = 2 * k
    v = v_vector(k)
    w = x_vector(k)
    M = orbit_matrix(k)
    alpha = M[0][0]
    mu = [M[1 + i][0] for i in range(n)]
    X = [row[1:n + 1] for row in M[1:n + 1]]
    qw = q_of(w)
    results = []

    def record(name: str, residue: Poly):
        results.append((name, residue.is_zero(), residue.text()))

    def first_failure(labelled) -> tuple:
        # one outcome for a family: its first nonzero (label, residue), or none
        for label, r in labelled:
            if not r.is_zero():
                return False, f"{label}: {r.text()}"
        return True, ""

    # rank 2 (Brylinski-Kostant): with p = (1, v, -Q(v)), q = (0, w, -B(v,w))
    # and J reversing the index, M = q (Jp)^T - p (Jq)^T mod (Q(w)).  M is
    # then a product of (2k+2)x2 and 2x(2k+2) matrices, so by Cauchy-Binet
    # every 3x3 minor vanishes modulo (Q(w)); and its middle block
    # X[i][dual(j)] = w_i v_j - v_i w_j is the decomposable bivector w ^ v,
    # whose coordinates satisfy the Pluecker relations (Fulton, Young
    # Tableaux, 1997, 9.1)
    p = [Poly.const(4 * k, 1), *v, -q_of(v)]
    q = [Poly.zero(4 * k), *w, -alpha]
    entries = list(product(range(n + 2), repeat=2))
    rank2 = first_failure(
        (f"rank-2 factorization fails at [{i}][{j}]", reduce_mod(
            M[i][j] - (q[i] * p[n + 1 - j] - p[i] * q[n + 1 - j]), qw))
        for i, j in entries)
    # so M^2 = <p,q> q(Jp)^T - <p,p> q(Jq)^T - <q,q> p(Jp)^T + <q,p> p(Jq)^T
    # mod (Q(w)), <a, b> = b_pair(a, b), where <p,p> = B(v,v) - 2Q(v),
    # <q,q> = 2Q(w) and <p,q> = B(v,w) - alpha vanish; else square M
    if rank2[0] and not any(reduce_mod(b_pair(a, b), qw)
                            for a, b in ((p, p), (q, q), (p, q))):
        M2 = [[Poly.zero(4 * k)] * (n + 2) for _ in range(n + 2)]
    else:
        M2 = [[reduce_mod(c, qw) for c in row] for row in mat_mul(M, M)]
    record("Q(w)", reduce_mod(qw, qw))
    record("Q(mu)", reduce_mod(q_of(mu), qw))
    record("B(mu,w)-alpha^2", reduce_mod(b_pair(mu, w) - alpha * alpha, qw))
    # M[0][n+1] = M[n+1][0] = 0, so row 1 + i of M^2 is row i of
    # (X mu + alpha mu | X^2 - w mu_flat - mu w_flat | X w - alpha w):
    # read the relations X^2 = w mu_flat + mu w_flat and X w = alpha w,
    # X mu = -alpha mu off it
    for i in range(n):
        record(f"(Xw-alpha*w)[{i}]", M2[1 + i][n + 1])
        record(f"(Xmu+alpha*mu)[{i}]", M2[1 + i][0])
    # and alpha X = w mu_flat - mu w_flat
    for i in range(n):
        for j in range(n):
            record(f"(X^2-outer)[{i}][{j}]", M2[1 + i][1 + j])
            outer_skw = w[i] * mu[dual(n, j)] - mu[i] * w[dual(n, j)]
            record(f"(alpha*X-outer)[{i}][{j}]",
                   reduce_mod(alpha * X[i][j] - outer_skw, qw))
    results.append(("pluecker", *rank2))
    results.append(("M^2", *first_failure(
        (f"[{i}][{j}]", M2[i][j]) for i, j in entries)))
    results.append(("3x3 minors", *rank2))
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
    layout produced by principal_symbol).  It is ``moment(xi)`` with the
    blocks swapped through the split form: base variable i of the V layout
    becomes fiber variable dual(i), and fiber variable i becomes base
    variable dual(i).  Memoized by the exact value of xi; the functions are
    shared.
    """
    n = 2 * xi.k
    perm = [n + dual(n, i) for i in range(n)] + [dual(n, i) for i in range(n)]
    return permute_vars(moment(xi), perm)


def phase_euler(k: int) -> Poly:
    """The phase-space Euler function: sum over conjugate pairs of q p."""
    return b_pair(v_vector(k), x_vector(k))
