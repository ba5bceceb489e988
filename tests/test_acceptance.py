"""Acceptance gate: every criterion is exercised exactly as stated, with one
pass/fail line per criterion (the test name; a summary line is also printed).

All checks are exact (rational arithmetic, zero tolerance) and run for
k in {2, 3}.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (apply_by_quotient_rule, monomials_up_to,
                     nonvanishing_minor, xx_op, yy_op)
from quadricops.coneops import (ConeOp, GenWord, a_correction, b_form_poly,
                                phi, rho_amb, rho_tilde, tau)
from quadricops.harmonic import (bessel_check, boundary_phase_check,
                                 dirac_relations, exp_harmonicity_defect,
                                 harmonic_decompose, harmonic_dimension,
                                 is_higher_symmetry, kelvin,
                                 kelvin_intertwine_defect, n2_counterexample)
from quadricops.lie import basis
from quadricops.momentorbit import (check_descent, phase_euler, poisson,
                                    symbol_invariant, v_vector,
                                    verify_orbit_relations, x_vector)
from quadricops.poly import Poly, QLaurent, q_form, q_of
from quadricops.shapovalov import (euler_to_weyl, fourier_euler_image,
                                   fourier_roots_bezout, scalar_on_graded,
                                   shapovalov_closed, shapovalov_expand)
from quadricops.suites import lie_hom_checks
from quadricops.weyl import NotDivisible, WeylOp, laplacian_op
from quadricops import exprparse

KS = (2, 3)


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_01_commutator_law():
    for k in KS:
        lap = laplacian_op(k)
        for xi in basis(k):
            scalar = WeylOp.mult(b_form_poly(k, xi.lam)) \
                - WeylOp.const(2 * k, xi.alpha)
            defect = (phi(xi) * lap - lap * phi(xi)) - scalar.scale(2) * lap
            assert defect.is_zero(), (k, xi.tag)
    _report(1, "commutator law holds exactly on the full basis, k in {2,3}")


def test_criterion_02_fourier_bridge():
    for k in KS:
        qs = WeylOp.mult(q_form(k))
        for xi in basis(k):
            ra = rho_amb(xi)
            assert tau(phi(xi)) == ra, (k, xi.tag)
            assert qs * ra == (ra - a_correction(xi)) * qs, (k, xi.tag)
    _report(2, "letterwise transform and form-conjugation identity, full basis")


def test_criterion_03_lie_homomorphism():
    for k in KS:
        checks = lie_hom_checks(k)
        assert all(c.ok for c in checks), [c.residue for c in checks if not c.ok]
        # the check proves it on generators; enumerate every pair as well
        bas = basis(k)
        for i, xi in enumerate(bas):
            for eta in bas[i + 1:]:
                rhs = rho_tilde(xi).commutator(rho_tilde(eta))
                assert rho_tilde(xi.bracket(eta)) == rhs, (k, xi.tag, eta.tag)
    _report(3, "bracket preservation on all basis pairs, k in {2,3}")


def test_criterion_04_quadric_fourier_relations():
    for k in KS:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                comm = ConeOp(xx_op(k, i).commutator(yy_op(k, j)))
                assert comm.is_zero_class(), (k, i, j)
        total = WeylOp.zero(2 * k)
        for i in range(1, k + 1):
            total = total + xx_op(k, i) * yy_op(k, k + 1 - i)
        assert ConeOp(total).is_zero_class(), k
    # 500 random generator words, split over both k values
    for k in KS:
        rng = random.Random(4000 + k)
        letters = [("Etil",)]
        for i in range(1, k + 1):
            letters += [("x", i), ("y", i), ("XX", i), ("YY", i)]
            for j in range(i + 1, k + 1):
                letters += [("D", i, j), ("B", i, j), ("C", i, j)]
        for _ in range(250):
            terms = {
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))):
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))}
            w = GenWord(k, terms)
            assert w.fourier().fourier() == w
    _report(4, "commutation, the contracted relation, and involutivity on "
               "500 random words")


def test_criterion_05_shapovalov():
    for k in KS:
        for d in (1, 2, 3):
            expanded = shapovalov_expand(d, k)
            closed = shapovalov_closed(d, k)
            assert expanded == ConeOp(euler_to_weyl(closed, k)), (k, d)
            for r in range(2 * d + 2):
                assert (scalar_on_graded(expanded, r)
                        == closed.eval((r,))), (k, d, r)
            a, b = fourier_roots_bezout(d, k)
            ident = a * closed + b * fourier_euler_image(closed, k)
            assert ident == Poly.const(1, 1), (k, d)
    _report(5, "expansion equals closed form, graded scalars agree, Bezout "
               "certificates verified, d <= 3, k in {2,3}")


def test_criterion_06_moment_descent_and_orbit():
    for k in KS:
        for xi in basis(k):
            assert check_descent(xi).is_zero(), (k, xi.tag)
        for name, ok, residue in verify_orbit_relations(k):
            assert ok, (k, name, residue)
        # the minors line is proven by a factorization; expand them too
        assert nonvanishing_minor(k) is None, k
    _report(6, "fiber-shear invariance and all orbit relations, including "
               "3x3 minors and the matrix square, k in {2,3}")


def test_criterion_07_symbol_bridge():
    for k in KS:
        for xi in basis(k):
            assert rho_tilde(xi).op.principal_symbol() == symbol_invariant(xi), \
                (k, xi.tag)
        qstar = q_of(x_vector(k))
        qbase = q_of(v_vector(k))
        assert poisson(qstar, qbase, k) == phase_euler(k), k
    _report(7, "principal symbols match the invariant table; the form "
               "bracket is the phase-space Euler function")


def test_criterion_08_kelvin():
    for k in KS:
        n = 2 * k
        tests = [QLaurent(k, Poly.monomial(m), 0)
                 for m in monomials_up_to(n, 6)]
        tests.append(QLaurent.one_over_q(k))
        for f in tests:
            assert kelvin(kelvin(f)) == f, (k, f.text())
            assert kelvin_intertwine_defect(f).is_zero(), (k, f.text())
        one = QLaurent(k, Poly.const(n, 1), 0)
        assert apply_by_quotient_rule(laplacian_op(k), kelvin(one)).is_zero(), k
    _report(8, "involution and intertwining on all monomials of degree <= 6 "
               "and on 1/Q; the image of 1 is harmonic")


def test_criterion_09_higher_symmetry_decision():
    for k in KS:
        n = 2 * k
        lap = laplacian_op(k)
        for xi in basis(k):
            cert = is_higher_symmetry(phi(xi))
            assert cert is not None, (k, xi.tag)
            # multiply-back: the certificate identity holds exactly
            assert lap * cert.xi == cert.delta * lap, (k, xi.tag)
        assert is_higher_symmetry(WeylOp.mult(Poly.var(n, 0))) is None, k
        with pytest.raises(NotDivisible):
            WeylOp.partial(n, n - 1).divide_right_by_constcoef(lap)
    _report(9, "certificates for the full conformal basis; rejections for "
               "the coordinate and the bare derivative")


def test_criterion_10_worked_examples():
    for k in KS:
        assert dirac_relations(k) is None, k
        bes = bessel_check(k, 12)
        assert bes["residue_ok"] and bes["laplacian_zero"] \
            and bes["euler_matches"], k
        assert exp_harmonicity_defect(k).is_zero(), k
        assert boundary_phase_check(k)["ok"], k
        val = laplacian_op(k).apply(q_form(k).scale(-1))
        assert val == Poly.const(2 * k, -k) and not val.is_zero(), k
    rep = n2_counterexample()
    assert rep["commutator_ok"] and not rep["xi_of_x_polynomial"] \
        and rep["delta_of_x_zero"]
    _report(10, "generator annihilation, radial series to order 12, "
                "exponential harmonicity, boundary phase, the nonzero "
                "constant, and the rank-one counterexample")


def test_criterion_11_harmonic_dimensions():
    from math import comb
    for k in KS:
        for d in range(6):
            harm, _ = harmonic_decompose(d, k)
            expected = comb(d + 2 * k - 1, 2 * k - 1) \
                - (comb(d - 2 + 2 * k - 1, 2 * k - 1) if d >= 2 else 0)
            assert len(harm) == expected == harmonic_dimension(d, k), (k, d)
    _report(11, "harmonic nullspace dimensions equal the binomial "
                "difference for d <= 5, k in {2,3}")


def test_criterion_12_infrastructure():
    # parser round-trip corpus
    rng = random.Random(1200)
    atoms = ["x1", "x2", "y1", "y2", "dx1", "dy2", "E", "Delta", "Q",
             "XX1", "YY2", "Dop12", "Bop12", "Cop12", "4"]

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return exprparse.parse(rng.choice(atoms), 2)
        kind = rng.choice(["add", "sub", "mul", "pow", "neg"])
        if kind == "pow":
            return ("pow", rand_tree(0), rng.randint(0, 3))
        if kind == "neg":
            return ("neg", rand_tree(depth - 1))
        return (kind, rand_tree(depth - 1), rand_tree(depth - 1))

    for _ in range(1000):
        tree = rand_tree(4)
        assert exprparse.parse(exprparse.to_text(tree), 2) == tree

    # deterministic golden files
    golden_dir = Path(__file__).parent / "golden"
    proc = subprocess.run(
        [sys.executable, "-m", "quadricops.cli", "verify", "algebra-core",
         "--k", "2", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (golden_dir / "verify_algebra_core_k2.json").read_text()

    # the full suite passes for both k values
    for k in KS:
        proc = subprocess.run(
            [sys.executable, "-m", "quadricops.cli", "verify", "all",
             "--k", str(k)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    _report(12, "parser corpus round trips, golden files are stable, and "
                "'verify all' exits 0 for k in {2,3}")
