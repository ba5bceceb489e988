"""Moment map, descent, orbit relations, and the Poisson bracket."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (exponent_items, moment_by_blocks, nonvanishing_minor,
                     orbit_square_mod_qw, phase_euler_by_pairs,
                     pluecker_residues, shear_defect_by_substitution,
                     symbol_by_blocks)
from quadricops import momentorbit
from quadricops.coneops import rho_tilde
from quadricops.lie import LieElt, basis, mat_mul
from quadricops.momentorbit import (block_var, check_descent, moment,
                                    orbit_matrix, phase_euler, poisson,
                                    symbol_invariant, v_vector,
                                    verify_orbit_relations, x_vector)
from quadricops.poly import Poly, TermMap, b_pair, q_of, qcoef

K = 2
NV = 4 * K


def phase_polys():
    mono = st.tuples(*[st.integers(0, 2) for _ in range(NV)]).filter(
        lambda m: sum(m) <= 3)
    return st.dictionaries(
        mono, st.fractions(min_value=-5, max_value=5, max_denominator=3),
        max_size=4).map(lambda d: Poly.from_exponents(NV, d))


def test_descent_zero_full_basis():
    for xi in basis(K):
        assert check_descent(xi).is_zero(), xi.tag


def _random_poly(rng, variables, terms=3, degree=2):
    """A random constant plus `terms` random monomials of degree 1 to
    `degree` in the given variables, with small rational coefficients."""
    out = Poly.const(NV, rng.randint(-2, 2))
    for _ in range(terms):
        mono = Poly.const(NV, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(1, degree)):
            mono = mono * rng.choice(variables)
        out = out + mono
    return out


def test_shear_derivative_and_substitution_agree(monkeypatch):
    # shear-invariant inputs a(x) + Q(x) g + c(x) B(v, x)^2, and inputs with
    # a term in v alone that no shear keeps; each is fed to both defects as
    # the moment pairing of a dummy element
    rng = random.Random(40)
    v, x = v_vector(K), x_vector(K)
    xi = basis(K)[0]
    cases = []
    for _ in range(8):
        a, c = _random_poly(rng, x), _random_poly(rng, x)
        g = _random_poly(rng, v + x)
        invariant = a + q_of(x) * g + c * b_pair(v, x) ** 2
        cases.append((invariant, True))
        cases.append((invariant + _random_poly(rng, v, 2) * v[0], False))
    for phi, invariant in cases:
        monkeypatch.setattr(momentorbit, "moment", lambda _, phi=phi: phi)
        by_derivative = check_descent(xi).is_zero()
        assert by_derivative == shear_defect_by_substitution(xi).is_zero()
        assert by_derivative == invariant, phi


def test_pluecker_relations_vanish_one_by_one():
    for k in range(2, 5):
        assert all(r.is_zero() for _, r in pluecker_residues(k)), k


def test_orbit_square_vanishes_one_by_one():
    for k in range(2, 5):
        assert all(c.is_zero() for row in orbit_square_mod_qw(k)
                   for c in row), k


def _count_squares(monkeypatch) -> list:
    """Patch ``momentorbit.mat_mul`` to record, per call, the number of
    rows of its left factor."""
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return mat_mul(a, b)

    monkeypatch.setattr(momentorbit, "mat_mul", counted)
    return calls


def test_passing_run_does_not_square_the_matrix(monkeypatch):
    calls = _count_squares(monkeypatch)
    for k in (2, 3):
        assert all(ok for _, ok, _ in verify_orbit_relations(k)), k
    assert calls == []


def test_failed_pairing_falls_back_to_the_square(monkeypatch):
    # a pairing of two vectors of length 2k + 2 that no longer vanishes
    # voids the proof of M^2 = 0, so M is squared, and every record passes
    def shifted(a, b):
        out = b_pair(a, b)
        return out + 1 if len(a) == 2 * K + 2 else out

    monkeypatch.setattr(momentorbit, "b_pair", shifted)
    calls = _count_squares(monkeypatch)
    for name, ok, residue in verify_orbit_relations(K):
        assert ok, f"{name}: {residue}"
    assert calls == [2 * K + 2]


def test_passing_relations_make_few_poly_products(monkeypatch):
    # 897 Poly products at k=6 once M is built, against 3,221 when M^2 was
    # the dense square: a rise means the square of M came back
    orbit_matrix(6)
    calls = []
    bilinear = TermMap._bilinear

    def counted(self, other, kernel):
        if isinstance(self, Poly):
            calls.append(1)
        return bilinear(self, other, kernel)

    monkeypatch.setattr(TermMap, "_bilinear", counted)
    assert all(ok for _, ok, _ in verify_orbit_relations(6))
    assert len(calls) <= 897, \
        f"{len(calls)} Poly products: the square of M came back"


def test_doubled_entry_fails_both_rank_records(monkeypatch):
    def doubled(k):
        M = [list(row) for row in orbit_matrix(k)]
        M[1][2] = M[1][2].scale(2)
        return tuple(map(tuple, M))

    monkeypatch.setattr(momentorbit, "orbit_matrix", doubled)
    calls = _count_squares(monkeypatch)
    lines = {name: (ok, residue)
             for name, ok, residue in verify_orbit_relations(K)}
    for name in ("pluecker", "3x3 minors"):
        ok, residue = lines[name]
        assert not ok
        assert residue.startswith("rank-2 factorization fails at [1][2]"), \
            residue
    # the failed proof leaves M^2 to the square, which names an entry
    assert len(calls) == 1
    ok, residue = lines["M^2"]
    assert not ok and residue.startswith("["), residue


def test_moment_degrees():
    # the moment pairing is linear in the fiber and at most cubic in the base
    for xi in basis(K):
        p = moment(xi)
        for m, _ in exponent_items(p):
            assert sum(m[2 * K:]) == 1  # fiber block degree exactly 1


def test_moment_and_symbol_match_the_block_formulas():
    # every basis element and 10 seeded rational combinations of the whole
    # basis per k, in both layouts
    rng = random.Random(24)
    for k in range(2, 6):
        bas = basis(k)
        elements = list(bas)
        for _ in range(10):
            xi = LieElt(k)
            for eta in bas:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                xi = xi + eta.scale(c)
            elements.append(xi)
        for xi in elements:
            assert moment(xi) == moment_by_blocks(xi), (k, xi)
            assert symbol_invariant(xi) == symbol_by_blocks(xi), (k, xi)
        assert phase_euler(k) == phase_euler_by_pairs(k), k


def test_orbit_matrix_is_shared_and_read_only():
    M = orbit_matrix(K)
    assert M is orbit_matrix(K)
    assert isinstance(M, tuple) and all(isinstance(r, tuple) for r in M)
    assert {p.nvars for row in M for p in row} == {NV}


def test_orbit_relations_pass():
    for name, ok, residue in verify_orbit_relations(K):
        assert ok, f"{name}: {residue}"


def test_perturbed_entry_fails_the_minors_line(monkeypatch):
    def perturbed(k):
        M = [list(row) for row in orbit_matrix(k)]
        M[2][3] = M[2][3] + block_var(k, 0, 0) * block_var(k, 1, 0)
        return M

    assert nonvanishing_minor(K, perturbed(K)) is not None
    monkeypatch.setattr(momentorbit, "orbit_matrix", perturbed)
    lines = {name: (ok, residue)
             for name, ok, residue in verify_orbit_relations(K)}
    assert lines["3x3 minors"] == (
        False, "rank-2 factorization fails at [2][3]: x1*y1")


def orbit_matrix_at(k: int, v_point, w_point):
    """Numeric specialization of the orbit matrix."""
    point = [qcoef(c) for c in list(v_point) + list(w_point)]
    return [[entry.eval(point) for entry in row] for row in orbit_matrix(k)]


def test_orbit_matrix_squares_to_zero_numerically():
    # at a point with Q(w) = 0 the invariant matrix squares to zero
    v = [1, 2, -1, 3]
    w = [1, 0, 0, 0]  # isotropic
    M = orbit_matrix_at(K, v, w)
    n = len(M)
    sq = [[sum(M[i][l] * M[l][j] for l in range(n)) for j in range(n)]
          for i in range(n)]
    assert all(c == 0 for row in sq for c in row)


def test_symbol_bridge_full_basis():
    for xi in basis(K):
        assert rho_tilde(xi).op.principal_symbol() == symbol_invariant(xi), xi.tag


def test_euler_pairing():
    qstar = q_of(x_vector(K))   # dual form on the momentum block
    qbase = q_of(v_vector(K))
    assert poisson(qstar, qbase, K) == phase_euler(K)


@settings(max_examples=15, deadline=None)
@given(phase_polys(), phase_polys())
def test_poisson_antisymmetry(a, b):
    assert poisson(a, b, K) == -poisson(b, a, K)


@settings(max_examples=10, deadline=None)
@given(phase_polys(), phase_polys(), phase_polys())
def test_poisson_leibniz(a, b, c):
    assert poisson(a, b * c, K) == poisson(a, b, K) * c + b * poisson(a, c, K)


@settings(max_examples=8, deadline=None)
@given(phase_polys(), phase_polys(), phase_polys())
def test_poisson_jacobi(a, b, c):
    total = (poisson(a, poisson(b, c, K), K)
             + poisson(b, poisson(c, a, K), K)
             + poisson(c, poisson(a, b, K), K))
    assert total.is_zero()
