"""Kelvin transform, harmonic decomposition, and worked examples."""

import random
from fractions import Fraction
from math import comb

import pytest

from oracles import (apply_by_quotient_rule, kelvin_termwise,
                     laplacian_by_columns, monomials_up_to, shift_by_products)
from quadricops import cli, harmonic, suites
from quadricops.coneops import phi, b_form_poly
from quadricops.harmonic import (bessel_check, bessel_series,
                                 boundary_phase_check, dirac_relations,
                                 exp_harmonicity_defect, harmonic_count,
                                 harmonic_decompose, harmonic_dimension,
                                 is_higher_symmetry, kelvin,
                                 kelvin_intertwine_defect,
                                 laplacian_qlaurent, n2_counterexample,
                                 orbit_representatives, pair_generators)
from quadricops.lie import basis
from quadricops.poly import Poly, QLaurent, monomials, q_form, qdiv, rref
from quadricops.weyl import WeylOp, euler_op, laplacian_op, permute_vars

K = 2
N = 2 * K


def test_kelvin_of_one():
    one = QLaurent(K, Poly.const(N, 1), 0)
    kone = kelvin(one)
    # (-Q)^{-(k-1)} = -1/Q for k = 2
    assert kone == QLaurent(K, Poly.const(N, -1), 1)
    assert kelvin(kone) == one
    assert apply_by_quotient_rule(laplacian_op(K), kone).is_zero()


def test_kelvin_involution_on_samples():
    samples = [QLaurent(K, Poly.var(N, 0), 0),
               QLaurent(K, Poly.monomial((2, 1, 0, 0)), 0),
               QLaurent.one_over_q(K),
               QLaurent(K, Poly.var(N, 2), 1)]
    for f in samples:
        assert kelvin(kelvin(f)) == f


def test_kelvin_intertwine_on_samples():
    samples = [QLaurent(K, Poly.monomial(m), 0)
               for m in [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0),
                         (2, 0, 1, 1), (0, 3, 0, 1)]]
    samples.append(QLaurent.one_over_q(K))
    for f in samples:
        assert kelvin_intertwine_defect(f).is_zero()


def assert_kelvin_as_termwise(f):
    """kelvin(f) equals the termwise oracle as a value and as text, with
    every coefficient an int or a Fraction."""
    got, want = kelvin(f), kelvin_termwise(f)
    assert got == want and got.text() == want.text()
    assert {type(c) for c in got.num.terms.values()} <= {int, Fraction}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kelvin_by_parts_matches_the_termwise_oracle(k):
    rng, n = random.Random(k), 2 * k
    for _ in range(30):
        # parts of one to three degrees up to 6, with gaps between them,
        # int or Fraction coefficients, over Q^qexp for qexp up to 3
        num = Poly.zero(n)
        for d in rng.sample(range(7), rng.randint(1, 3)):
            piece = monomials(n, d)
            for m in rng.sample(piece, min(len(piece), rng.randint(1, 3))):
                c = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                num = num + Poly._of(n, {m: c or 1})
        assert_kelvin_as_termwise(QLaurent(k, num, rng.randint(0, 3)))
    assert_kelvin_as_termwise(QLaurent(k, Poly.zero(n), 0))
    assert_kelvin_as_termwise(QLaurent.one_over_q(k, 2))
    assert_kelvin_as_termwise(QLaurent(k, Poly.const(n, Fraction(-3, 2)), 1))


def test_kelvin_by_parts_matches_the_termwise_oracle_on_the_suite_values():
    # the 63 values of kelvin-involution-intertwine at k=3, their Kelvin
    # images and the Laplacians that the intertwining defect transforms
    k = 3
    tests = [QLaurent(k, Poly.monomial(m), 0)
             for m in orbit_representatives(k, 6)]
    tests.append(QLaurent.one_over_q(k))
    assert len(tests) == 63
    for f in tests:
        for g in (f, kelvin(f), laplacian_qlaurent(f)):
            assert_kelvin_as_termwise(g)


def test_laplacian_closed_form_matches_the_generic_action():
    # the corpus of kelvin-involution-intertwine and its Kelvin images
    for k in (2, 3):
        tests = [QLaurent(k, Poly.monomial(m), 0)
                 for m in monomials_up_to(2 * k, 6)]
        tests.append(QLaurent.one_over_q(k))
        lap = laplacian_op(k)
        for f in tests + [kelvin(f) for f in tests]:
            assert laplacian_qlaurent(f) == apply_by_quotient_rule(lap, f), \
                (k, f.text())
    # the values of kelvin-involution-intertwine at k=2..4, one monomial per
    # orbit and 1/Q, their Kelvin images, and 1/Q^m for m = 1..4
    for k in (2, 3, 4):
        tests = [QLaurent(k, Poly.monomial(m), 0)
                 for m in orbit_representatives(k, 6)]
        tests.append(QLaurent.one_over_q(k))
        lap = laplacian_op(k)
        for f in (tests + [kelvin(f) for f in tests]
                  + [QLaurent.one_over_q(k, m) for m in range(1, 5)]):
            assert laplacian_qlaurent(f) == apply_by_quotient_rule(lap, f), \
                (k, f.text())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_laplacian_shift_holds_by_products(k):
    # each step of the induction the engine proves once per Q
    for m in range(7):
        lhs, rhs = shift_by_products(k, m)
        assert lhs == rhs, (k, m)


def _orbit(m, gens):
    """The orbit of the exponent tuple m under the renamings gens."""
    seen, todo = {m}, [m]
    while todo:
        p = Poly.monomial(todo.pop())
        for perm in gens:
            img = permute_vars(p, perm).leading()[0]
            if img not in seen:
                seen.add(img)
                todo.append(img)
    return seen


@pytest.mark.parametrize("k", [2, 3])
def test_orbit_representatives_partition_the_monomials(k):
    gens = pair_generators(k)
    covered = set()
    for m in orbit_representatives(k, 6):
        orbit = _orbit(m, gens)
        assert not orbit & covered, m  # one representative per orbit
        covered |= orbit
    assert covered == set(monomials_up_to(2 * k, 6))


def test_orbit_representative_counts():
    counts = {k: len(orbit_representatives(k, 6)) for k in range(2, 7)}
    assert counts == {2: 43, 3: 62, 4: 70, 5: 73, 6: 74}


@pytest.mark.parametrize("k,order", [(2, 8), (3, 48)])
def test_pair_generators_generate_the_hyperoctahedral_group(k, order):
    gens = pair_generators(k)
    group, todo = {tuple(range(2 * k))}, [tuple(range(2 * k))]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    assert len(group) == order


@pytest.mark.parametrize("k", [2, 3])
def test_kelvin_commutes_with_the_pair_generators(k):
    # the code property the orbit proof rests on, on the full corpus
    tests = [QLaurent(k, Poly.monomial(m), 0)
             for m in monomials_up_to(2 * k, 6)]
    tests.append(QLaurent.one_over_q(k))
    for perm in pair_generators(k):
        for f in tests:
            sf = QLaurent(k, permute_vars(f.num, perm), f.qexp)
            kf = kelvin(f)
            assert kelvin(sf) == QLaurent(k, permute_vars(kf.num, perm),
                                          kf.qexp), (perm, f.text())


def test_renaming_that_moves_q_fails_the_kelvin_check(monkeypatch, capsys):
    # x1 <-> x2 does not fix Q = x1*y2 + x2*y1
    gens = pair_generators(K)
    monkeypatch.setattr(suites, "pair_generators",
                        lambda k: gens + [(1, 0, 2, 3)])
    report = suites.run_suite("harmonic-kelvin", K)
    (check,) = [c for c in report.checks
                if c.check_id == "kelvin-involution-intertwine"]
    assert not check.ok
    assert check.residue == "the renaming (1, 0, 2, 3) does not fix Q"
    assert [c.check_id for c in report.checks if not c.ok] == [check.check_id]
    assert cli.main(["verify", "harmonic-kelvin", "--k", str(K)]) == 1
    capsys.readouterr()


def test_harmonic_quadric_breaks_the_laplacian_shift(monkeypatch, capsys):
    # the proof for the true Q at this k must not stand for another Q
    assert laplacian_qlaurent(QLaurent.one_over_q(K)).is_zero()
    # Delta(x1*x2) = 0, not k, so the shift identity fails for x1*x2
    monkeypatch.setattr(harmonic, "q_form",
                        lambda k: Poly.var(2 * k, 0) * Poly.var(2 * k, 1))
    with pytest.raises(harmonic.CertificateError):
        laplacian_qlaurent(QLaurent.one_over_q(K))
    # an engine error, not a failed verification
    assert cli.main(["kelvin", "x1", "--k", str(K)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: CertificateError: ")
    assert err.count("\n") == 1


def test_wrong_euler_operator_breaks_the_laplacian_shift(monkeypatch):
    # the memo of _shift_generators is keyed by Q, so the proof already
    # made for this Q is dropped before the test
    monkeypatch.setattr(harmonic, "euler_op", lambda k: euler_op(k).scale(2))
    with pytest.raises(harmonic.CertificateError, match=r"\[Delta, Q\]"):
        laplacian_qlaurent(QLaurent.one_over_q(K))


def test_shifted_quadric_breaks_the_euler_commutator(monkeypatch):
    # [Delta, Q + 1] = E + k still holds; [E, Q + 1] = 2Q does not
    monkeypatch.setattr(harmonic, "q_form", lambda k: q_form(k) + 1)
    with pytest.raises(harmonic.CertificateError, match=r"\[E, Q\]"):
        laplacian_qlaurent(QLaurent.one_over_q(K))


def test_higher_symmetry_certificates():
    for xi in basis(K):
        cert = is_higher_symmetry(phi(xi))
        assert cert is not None, xi.tag
        shift = (WeylOp.mult(b_form_poly(K, xi.lam))
                 - WeylOp.const(N, xi.alpha)).scale(2)
        assert cert.delta == phi(xi) - shift, xi.tag


def test_higher_symmetry_rejections():
    assert is_higher_symmetry(WeylOp.mult(Poly.var(N, 0))) is None


def test_harmonic_dimensions():
    # k = 2: constants 1, linear 4, quadratic 10 - 1 = 9
    assert harmonic_dimension(0, 2) == 1
    assert harmonic_dimension(1, 2) == 4
    assert harmonic_dimension(2, 2) == 9
    for d, k in [(d, K) for d in range(5)] + [(6, 3), (7, 3), (8, 3)]:
        harm, qmult = harmonic_decompose(d, k)
        assert len(harm) == harmonic_dimension(d, k)
        assert len(harm) + len(qmult) == comb(2 * k + d - 1, d)
        lap = laplacian_op(k)
        for h in harm:
            assert lap.apply(h).is_zero()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_laplacian_rows_match_the_column_build(k, monkeypatch):
    # the Laplacian matrix is the first of the two sets of rows that the
    # splitting eliminates; the second is the certificate's block
    eliminated = []
    monkeypatch.setattr(harmonic, "rref",
                        lambda rows: eliminated.append(rows) or rref(rows))
    rng = random.Random(4200 + k)
    lap = laplacian_op(k)
    for d in range(7):
        harmonic_count(d, k)
        rows = eliminated[-2]
        assert rows == laplacian_by_columns(d, k), (k, d)
        # and both are the matrix of the operator Delta, on seeded vectors
        monos, target = monomials(2 * k, d), monomials(2 * k, d - 2)
        for _ in range(3):
            vec = {j: qdiv(rng.randint(-9, 9), rng.randint(1, 4))
                   for j in rng.sample(range(len(monos)), min(6, len(monos)))}
            image = Poly(2 * k, {
                m: sum(v * vec.get(j, 0) for j, v in row.items())
                for m, row in zip(target, rows)})
            f = Poly(2 * k, {monos[j]: c for j, c in vec.items()})
            assert image == lap.apply(f), (k, d)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_harmonic_count_matches_the_basis_and_the_binomials(k):
    for d in range(7):
        count = harmonic_count(d, k)
        assert count == len(harmonic_decompose(d, k)[0]), (k, d)
        assert count == harmonic_dimension(d, k), (k, d)


def test_harmonic_quadric_breaks_the_direct_sum(monkeypatch):
    # x1*x2 is harmonic, so its multiples meet the harmonics
    monkeypatch.setattr(harmonic, "q_form",
                        lambda k: Poly.var(2 * k, 0) * Poly.var(2 * k, 1))
    for d in (2, 4):
        for split in (harmonic_decompose, harmonic_count):
            with pytest.raises(ArithmeticError):
                split(d, K)


def test_dropped_elimination_row_breaks_the_direct_sum(monkeypatch):
    # a lost row lowers the rank of the Laplacian and of the certificate's
    # block alike, so the count cannot come out wrong without a raise
    monkeypatch.setattr(harmonic, "rref", lambda rows: rref(rows[1:]))
    assert harmonic_count(1, K) == harmonic_dimension(1, K)
    with pytest.raises(ArithmeticError):
        harmonic_count(2, K)


def test_kelvin_preserves_harmonicity():
    lap = laplacian_op(K)
    for d in range(3):
        harm, _ = harmonic_decompose(d, K)
        for h in harm:
            kh = kelvin(QLaurent(K, h, 0))
            assert apply_by_quotient_rule(lap, kh).is_zero()


def test_bessel_series_factorial_squares():
    # for k = 2 the recursion gives a_m = 1/(m!)^2
    coeffs = bessel_series(2, 6)
    import math
    for m, c in enumerate(coeffs):
        assert c == Fraction(1, math.factorial(m) ** 2)


def test_bessel_check():
    rep = bessel_check(K, 10)
    assert rep["residue_ok"] and rep["laplacian_zero"] and rep["euler_matches"]


def test_exp_harmonicity():
    assert exp_harmonicity_defect(K).is_zero()
    assert exp_harmonicity_defect(3).is_zero()


def test_boundary_phase():
    assert boundary_phase_check(K)["ok"]


def test_nonexample_laplacian_of_form():
    val = laplacian_op(K).apply(q_form(K).scale(-1))
    assert val == Poly.const(N, -K)
    assert not val.is_zero()


def test_n2_counterexample():
    rep = n2_counterexample()
    assert rep["commutator_ok"]
    assert not rep["xi_of_x_polynomial"]
    assert rep["delta_of_x_zero"]


def test_dirac_relations():
    assert dirac_relations(K) is None
    assert dirac_relations(3) is None


def test_dirac_relations_name_the_failing_relation(monkeypatch):
    # XX1 + 1 sends 1 to 1, which no multiple of Q* reaches
    letter_op = harmonic.letter_op
    monkeypatch.setattr(harmonic, "letter_op", lambda k, letter: (
        letter_op(k, letter) + (1 if letter == ("XX", 1) else 0)))
    assert dirac_relations(K) == "XX1(1) = 1"
    # a linear Q = y1 - x1 reduces x1 to y1, so two classes collapse
    monkeypatch.setattr(harmonic, "letter_op", letter_op)
    monkeypatch.setattr(harmonic, "q_form", lambda k: Poly.var(2 * k, 2)
                        - Poly.var(2 * k, 0))
    assert dirac_relations(K) == "coordinate classes y1, x2, y1, y2"
