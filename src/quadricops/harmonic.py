"""Kelvin transform, harmonic decomposition, and the worked examples.

Everything here is exact: the Kelvin transform acts on Q-Laurent functions by
substitution of the conformal inversion, harmonicity is a rational nullspace
computation, and the classical series/phase examples are verified as
polynomial identities.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb

from .poly import (Poly, QLaurent, b_pair, dual, falling, falling_spec,
                   mdegree, monomials, q_form, q_of, qdiv, reduce_mod,
                   rref, subtract_row, unit)
from .weyl import NotDivisible, WeylOp, euler_op, laplacian_op
from .coneops import letter_op
from .momentorbit import x_vector


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


def kelvin(f: QLaurent) -> QLaurent:
    """The conformal Kelvin transform (Kf)(v) = (-Q(v))^{-(k-1)} f(-v/Q(v)).

    Substituting v -> -v/Q sends the degree-d part p_d to (-1)^d p_d Q^{-d};
    the result stays in the Q-Laurent class and K is an involution.  The
    parts come from the sorted keys grouped by degree, and their sum is
    taken by Horner's rule in Q, from the lowest part up.

    As code, K commutes with every renaming of the variables that fixes Q
    (such a renaming lies in O(Q)): it reads a term only through its total
    degree and Q, never through a variable index.  The Kelvin check of the
    harmonic-kelvin suite relies on this to test one monomial per orbit
    (``orbit_representatives``).
    """
    k = f.k
    n = 2 * k
    q = q_form(k)
    terms = f.num.nums
    # numerator(-v/Q) * Q^deg = sum_d (-1)^d p_d Q^(deg - d), on the
    # integer numerators of f, divided by their denominator once at the end
    num, deg = Poly.zero(n), 0
    for d, part in groupby(sorted(terms), lambda m: mdegree(m, n)):
        p = Poly._of(n, {m: -terms[m] if d % 2 else terms[m] for m in part})
        num = num * q ** (d - deg) + p if num else p
        deg = d
    # Q(-v/Q) = 1/Q, so the original denominator contributes Q^{+qexp}
    sign = qdiv(-1 if (k - 1) % 2 else 1, f.num.den)
    shift = (k - 1) + deg - f.qexp
    if shift >= 0:
        return QLaurent(k, num.scale(sign), shift)
    return QLaurent(k, num.scale(sign) * q ** (-shift), 0)


def pair_generators(k: int) -> list:
    """Generators of the hyperoctahedral group of order 2^k k! as
    permutations of the 2k variable indices, variable i going to perm[i].

    The group permutes the k pairs (x_i, y_{k+1-i}) and swaps the two
    coordinates within a pair.  It is generated by the swap x1 <-> yk and
    the k - 1 transpositions of adjacent pairs, listed in that order.
    """
    n = 2 * k
    swap = list(range(n))
    swap[0], swap[-1] = n - 1, 0
    gens = [tuple(swap)]
    for i in range(k - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        perm[dual(n, i)], perm[dual(n, i + 1)] = dual(n, i + 1), dual(n, i)
        gens.append(tuple(perm))
    return gens


def orbit_representatives(k: int, deg: int) -> list:
    """One exponent tuple per orbit of the monomials of degree <= deg in 2k
    variables under the group of ``pair_generators(k)``.

    An orbit is fixed by the multiset of the unordered exponent pairs
    {e(x_i), e(y_{k+1-i})}: the group sorts the pairs and orders each one.
    The representative of the multiset carries its pairs (a, b), a >= b,
    in nonincreasing order, pair i as x_i^a y_{k+1-i}^b.
    """
    n = 2 * k
    pairs = [(a, b) for a in range(deg, -1, -1)
             for b in range(min(a, deg - a), -1, -1)]
    out = []

    def extend(chosen, start, budget):
        if len(chosen) == k:
            e = [0] * n
            for i, (a, b) in enumerate(chosen):
                e[i], e[dual(n, i)] = a, b
            out.append(tuple(e))
            return
        for j in range(start, len(pairs)):
            a, b = pairs[j]
            if a + b <= budget:
                extend(chosen + [pairs[j]], j, budget - a - b)

    extend([], 0, deg)
    return out


class CertificateError(ArithmeticError):
    """An identity that a closed form rests on failed its exact check."""


@lru_cache(maxsize=16)
def _shift_generators(q: Poly) -> tuple:
    """(Delta, E, Q) as operators, returned once [Delta, Q] = E + k and
    [E, Q] = 2Q hold.

    Both are checked as exact Weyl identities, once per Q; CertificateError
    when either fails.  With c_m = m(m+1-k) and R_m = Q Delta - m E + c_m
    they give Q^(m+1) Delta = R_m Q^m for every m >= 0, by induction on m:

    - m = 0: R_0 = Q Delta.
    - m -> m+1: Delta Q = Q Delta + E + k and E Q = Q E + 2Q give
      R_(m+1) Q - Q R_m = (c_(m+1) - c_m - 2m - 2 + k) Q = 0, so
      Q^(m+2) Delta = Q R_m Q^m = R_(m+1) Q^(m+1).
    """
    k = q.nvars // 2
    lap, e, mq = laplacian_op(k), euler_op(k), WeylOp.mult(q)
    if lap.commutator(mq) != e + k:
        raise CertificateError(f"[Delta, Q] != E + {k} for k={k}")
    if e.commutator(mq) != mq.scale(2):
        raise CertificateError(f"[E, Q] != 2Q for k={k}")
    return lap, e, mq


def laplacian_qlaurent(f: QLaurent) -> QLaurent:
    """Delta(n/Q^m) = (Q Delta n - m E n + m(m+1-k) n) / Q^(m+1), exactly.

    Applying the Weyl identity Q^(m+1) Delta = R_m Q^m to n/Q^m gives
    Delta(n/Q^m) = R_m(n) / Q^(m+1).  R_m is applied factor by factor, and
    only after the two commutators it rests on are proven; m = 0 is the
    polynomial Laplacian.
    """
    k, m, n = f.k, f.qexp, f.num
    if m == 0:
        return QLaurent(k, laplacian_op(k).apply(n), 0)
    lap, e, mq = _shift_generators(q_form(k))
    return QLaurent(k, mq.apply(lap.apply(n)) - e.apply(n).scale(m)
                    + n.scale(m * (m + 1 - k)), m + 1)


def kelvin_intertwine_defect(f: QLaurent) -> QLaurent:
    """Delta(Kf) - Q^{-2} K(Delta f); identically zero on the Laurent class."""
    lhs = laplacian_qlaurent(kelvin(f))
    rhs = kelvin(laplacian_qlaurent(f)).div_by_q(2)
    return lhs - rhs


def harmonic_dimension(d: int, k: int) -> int:
    """dim of degree-d harmonics in 2k variables."""
    n = 2 * k
    dim_d = comb(d + n - 1, n - 1)
    dim_d2 = comb(d - 2 + n - 1, n - 1) if d >= 2 else 0
    return dim_d - dim_d2


def _laplacian_form(d: int, k: int):
    """(col, R, rcols, qmult), certified as ``harmonic_decompose`` says."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = 2 * k
    col = {m: j for j, m in enumerate(monomials(n, d))}
    target = monomials(n, d - 2)
    # the row of x^m: falling(m + u_i, u_i) at the column of x^(m + u_i)
    pairs = [(u, falling_spec(u, n))
             for u in (unit(n, i) + unit(n, dual(n, i)) for i in range(k))]
    form = rref([{col[m + u]: falling(m + u, spec) for u, spec in pairs}
                 for m in target])
    rcols = {}
    for p, row in form.items():
        for c, v in row.items():
            rcols.setdefault(c, {})[p] = v
    q = q_form(k)
    qmult = [q * Poly._of(n, {m: 1}) for m in target]
    block = []
    for p in qmult:
        s = {}
        for m, c in p.terms.items():
            subtract_row(s, -c, rcols.get(col[m], {}))
        block.append(s)
    if not len(rref(block)) == len(form) == len(qmult):
        raise ArithmeticError("harmonic decomposition is not a direct sum")
    return col, form, rcols, qmult


def harmonic_count(d: int, k: int) -> int:
    """dim of degree-d harmonics in 2k variables, |Sym^d| - rank Delta."""
    col, form, _, _ = _laplacian_form(d, k)
    return len(col) - len(form)


def harmonic_decompose(d: int, k: int):
    """Exact splitting of Sym^d into harmonics and Q * Sym^{d-2}.

    Returns (harmonic basis, Q-multiple basis) as lists of Poly.  The
    Laplacian matrix is written row by row, k entries in the row of each
    x^m of degree d - 2; col indexes its columns, the monomials of degree d
    in graded lex order.  With R its reduced row echelon form, P its pivot
    columns and F the free ones, the harmonics are e_f - sum_p R[p][f] e_p,
    f in F, read off rcols, the columns of R that rows touch, and
    ``harmonic_count`` counts them as |F| = dim Sym^d - rank R.  They are
    the identity on F, so a Q-multiple q less its F-entries times them is
    R q, zero on F: with S the block of the rows R q on P, harmonics and
    Q-multiples have rank |F| + rank S, certified exactly to equal both
    their number |F| + dim Sym^(d-2) and dim Sym^d = |F| + rank R.  That
    certificate reads the rows off the same enumeration of monomials, so
    each harmonic is also applied to the Laplacian: ArithmeticError names
    the first one that it does not kill.
    """
    col, form, rcols, qmult = _laplacian_form(d, k)
    monos = list(col)
    harm = []
    for f, m in enumerate(monos):
        if f not in form:
            vec = {monos[p]: -v for p, v in rcols.get(f, {}).items()}
            vec[m] = 1
            harm.append(Poly._of_values(2 * k, vec))
    lap = laplacian_op(k)
    for h in harm:
        if not lap.apply(h).is_zero():
            raise ArithmeticError(f"the Laplacian does not kill {h.text()}")
    return harm, qmult


def exp_harmonicity_defect(k: int) -> Poly:
    """Defect of harmonicity of exp(-B(x, .)) at a symbolic cone point x.

    Conjugating the Laplacian by the exponential of the linear form
    l = -B(x, .) gives Delta_l(p) = Delta p + (first-order transport) + Q(x) p;
    at p = 1 the defect is Q(x), which vanishes on the cone.  Variables:
    block 0 = v (the argument), block 1 = x (the cone point); reduction is
    modulo (Q(x)).
    """
    x = x_vector(k)
    one = Poly.const(4 * k, 1)
    defect = twisted_laplacian(one, k)
    return reduce_mod(defect, q_of(x))


def twisted_laplacian(p: Poly, k: int) -> Poly:
    """Delta_l(p) = e^{-l} Delta(p e^{l}) for the linear form l = -B(x, v).

    p is a polynomial in 4k variables (v block, then the symbolic parameter
    block x); derivatives act on the v block only.
    """
    n = 2 * k
    # l = -B(x, v): dl/dv_i = -x_{dual(i)}, and dual reverses the indices
    dl = [-xi for xi in reversed(x_vector(k))]
    out = Poly.zero(4 * k)
    for i in range(k):
        a, b = i, dual(n, i)  # the pair (x_i, y_{k+1-i})
        out = out + p.deriv(a).deriv(b)
        out = out + dl[a] * p.deriv(b) + dl[b] * p.deriv(a)
        out = out + dl[a] * dl[b] * p
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
    truncation).  Also checks Delta f = 0 and E f = t f'; ``ok`` is the
    verdict of all three.
    """
    if k < 2 or M < 2:
        raise ValueError("need k >= 2 and M >= 2")
    n = 2 * k
    coeffs = bessel_series(k, M)
    tvar = n - 1  # y_k
    f = Poly.from_exponents(n, {(0,) * tvar + (m,): c
                                for m, c in enumerate(coeffs)})
    op = letter_op(k, ("XX", 1)) - WeylOp.identity(n)
    residue = op.apply(f)
    low = Poly(n, {m: c for m, c in residue.terms.items()
                   if mdegree(m, n) < M - 1})
    lap_zero = laplacian_op(k).apply(f).is_zero()
    # E f = t f'
    ef = euler_op(k).apply(f)
    tfprime = Poly.var(n, tvar) * f.deriv(tvar)
    residue_ok, euler_matches = low.is_zero(), ef == tfprime
    return {
        "coefficients": coeffs,
        "residue_low_degree": low,
        "residue_ok": residue_ok,
        "laplacian_zero": lap_zero,
        "euler_matches": euler_matches,
        "ok": residue_ok and lap_zero and euler_matches,
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
    qx, qu, qw = q_of(x), q_of(u), q_of(w)
    bxw = b_pair(x, w)
    bxu = b_pair(x, u)

    r1 = reduce_mod(bxw - eps * bxu, qx)
    r2 = reduce_mod(qw - lam * eps * bxu - eps * eps * qu, qx)
    r3 = reduce_mod(bxw * (lam * bxu + eps * qu) - qw * bxu, qx)
    return {
        "linear_term": r1,
        "quadratic_term": r2,
        "cleared_phase": r3,
        "ok": r1.is_zero() and r2.is_zero() and r3.is_zero(),
    }


def n2_counterexample() -> dict:
    """The rank-one obstruction: xi = x^{-1} d_x on the plane with Q = x y.

    Verifies [Delta, xi] = -x^{-2} Delta on the Laurent test functions x^a y^b
    with |a| <= 3 and 0 <= b <= 3 (representable as y^{|a|} y^b / Q^{|a|} for
    a < 0), and that xi(x) is not a polynomial while Delta(x) = 0 -- so xi is
    in neither D_V nor D_V + D Delta applied consistently to x.  Delta acts
    on the Q-Laurent class by ``laplacian_qlaurent`` at k = 1.  ``ok`` is the
    verdict of the three.
    """
    k = 1
    n = 2
    lap = laplacian_qlaurent  # d_x d_y

    def xi_apply(f: QLaurent) -> QLaurent:
        # x^{-1} d_x f = (y / Q) * d_x f
        return QLaurent(k, Poly.var(n, 1), 1) * f.deriv(0)

    def commutator_defect(f: QLaurent) -> QLaurent:
        lhs = lap(xi_apply(f)) - xi_apply(lap(f))
        # -x^{-2} Delta f = -(y^2 / Q^2) Delta f
        rhs = QLaurent(k, Poly.monomial((0, 2), -1), 2) * lap(f)
        return lhs - rhs

    def test_fn(a: int, b: int) -> QLaurent:
        if a >= 0:
            return QLaurent(k, Poly.monomial((a, b)), 0)
        return QLaurent(k, Poly.monomial((0, b - a)), -a)

    worst = None
    for a in range(-3, 4):
        for b in range(4):
            defect = commutator_defect(test_fn(a, b))
            if not defect.is_zero():
                worst = (a, b, defect.text())
    ok = worst is None
    xi_of_x = xi_apply(QLaurent(k, Poly.var(n, 0), 0))
    xi_of_x_polynomial = xi_of_x.is_poly()
    delta_of_x_zero = lap(QLaurent(k, Poly.var(n, 0), 0)).is_zero()
    return {
        "commutator_ok": ok,
        "commutator_worst": worst,
        "xi_of_x": xi_of_x,
        "xi_of_x_polynomial": xi_of_x_polynomial,
        "delta_of_x_zero": delta_of_x_zero,
        "ok": ok and not xi_of_x_polynomial and delta_of_x_zero,
    }


def dirac_relations(k: int):
    """The first failing one of XX_i(1) = YY_i(1) = 0 and the classes x_i*1,
    y_i*1 spanning the cone ring's degree-one piece, as text, or None."""
    n = 2 * k
    one = Poly.const(n, 1)
    qs = q_form(k)
    for i in range(1, k + 1):
        for kind in ("XX", "YY"):
            image = reduce_mod(letter_op(k, (kind, i)).apply(one), qs)
            if not image.is_zero():
                return f"{kind}{i}(1) = {image.text()}"
    classes = [reduce_mod(Poly.var(n, i), qs) for i in range(n)]
    if len(set(classes)) != n or any(p.degree() != 1 for p in classes):
        return "coordinate classes " + ", ".join(p.text() for p in classes)
