"""Moment map, descent, orbit relations, and the Poisson bracket."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (moment_by_blocks, nonvanishing_minor,
                     phase_euler_by_pairs, symbol_by_blocks)
from quadricops import momentorbit
from quadricops.coneops import rho_tilde
from quadricops.lie import LieElt, basis
from quadricops.momentorbit import (block_var, check_descent, moment,
                                    orbit_matrix, phase_euler, poisson,
                                    symbol_invariant, v_vector,
                                    verify_orbit_relations, x_vector)
from quadricops.poly import Poly, q_of, qcoef

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


def test_moment_degrees():
    # the moment pairing is linear in the fiber and at most cubic in the base
    for xi in basis(K):
        p = moment(xi)
        for m, _ in p.exponent_items():
            assert sum(m[2 * K:]) == 1  # fiber block degree exactly 1


def test_moment_and_symbol_match_the_block_formulas():
    # every basis element and 10 seeded rational combinations of the whole
    # basis per k, in both layouts and with an extra variable
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
            assert moment(xi, 1) == moment_by_blocks(xi, 1), (k, xi)
            assert symbol_invariant(xi) == symbol_by_blocks(xi), (k, xi)
        assert phase_euler(k) == phase_euler_by_pairs(k), k


def test_orbit_matrix_is_shared_and_read_only():
    M = orbit_matrix(K, 1)
    assert M is orbit_matrix(K, 1)
    assert isinstance(M, tuple) and all(isinstance(r, tuple) for r in M)
    assert {p.nvars for row in M for p in row} == {NV + 1}


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
