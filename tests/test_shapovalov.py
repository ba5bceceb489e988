"""The invariant pairing element as a polynomial in the Euler operator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import (b_op, c_op, d_op, shapovalov_cli_by_expansion,
                     shapovalov_multinomial, shapovalov_series_ambient)
from quadricops import cli, shapovalov, suites
from quadricops.coneops import ConeOp, letter_op
from quadricops.poly import Poly, is_packed
from quadricops.shapovalov import (FactorsDoNotCommute, NotScalar,
                                   closed_form_induction,
                                   euler_to_weyl, fourier_euler_image,
                                   fourier_roots_bezout, scalar_on_graded,
                                   shapovalov_closed, shapovalov_expand,
                                   shapovalov_series, xgcd)
from quadricops.weyl import WeylOp, euler_op, halves

K = 2


def euler(*coeffs):
    """The polynomial in E with the coefficients of E^0, E^1, ... in turn."""
    return Poly.from_exponents(1, {(i,): c for i, c in enumerate(coeffs)})


def test_closed_form_roots():
    # d = 2, k = 2: both factors contribute roots 0 and 1, so E^2 (E-1)^2
    p = shapovalov_closed(2, K)
    for r in (0, 1):
        assert p.eval((r,)) == 0
    assert p.eval((-1,)) != 0 and p.eval((2,)) != 0
    assert p.degree() == 4


def test_closed_form_d1():
    # d = 1: E (E + k - 2); for k = 2 this is E^2
    assert shapovalov_closed(1, 2) == euler(0, 0, 1)
    assert shapovalov_closed(1, 3) == euler(0, 1, 1)


def test_fourier_image_substitution():
    p = euler(0, 1)  # E
    img = fourier_euler_image(p, K)
    assert img == euler(-2 * K + 2, -1)
    # involution
    assert fourier_euler_image(img, K) == p


def test_expand_equals_closed_small():
    for d in (1, 2):
        expanded = shapovalov_expand(d, K)
        closed = ConeOp(euler_to_weyl(shapovalov_closed(d, K), K))
        assert expanded == closed


@pytest.mark.parametrize("k,dmax", [(2, 3), (3, 4)])
def test_series_equals_multinomial_expansion(k, dmax):
    # the ambient recursion, term for term, not only as cone classes
    for d, bop in enumerate(shapovalov_series_ambient(dmax, k), 1):
        assert bop.op.terms == shapovalov_multinomial(d, k).terms, d
    assert shapovalov_expand(2, k).op == shapovalov_series(2, k)[-1].op


@pytest.mark.parametrize("k,dmax", [(2, 5), (3, 4)])
def test_series_in_d_c_has_the_ambient_classes(k, dmax):
    # B_1 is the ambient operator; every later B_d is built on the canonical
    # representative of B_(d-1), so only the classes agree
    series = shapovalov_series(dmax, k)
    ambient = shapovalov_series_ambient(dmax, k)
    assert series[0].op == ambient[0].op
    for d, (bop, want) in enumerate(zip(series, ambient), 1):
        assert bop.canonical() == want.canonical(), d
    assert series[-1].op != ambient[-1].op


def test_series_terms_are_packed_and_nonzero(monkeypatch):
    # the recursion drops cancelled terms itself and builds B_d unchecked
    for bop in shapovalov_series(3, 3):
        n = bop.op.nvars
        s, mask = halves(n)
        assert bop.op.terms
        for key, c in bop.op.terms.items():
            assert c != 0 and is_packed(key & mask, n) and is_packed(key >> s, n)
    # no term cancels in the true series; with x_i paired with y_i and y_i
    # with -x_i, every term of B_1 = sum_i (x_i y_i - y_i x_i) cancels
    monkeypatch.setattr(shapovalov, "letter_op", lambda k, letter: (
        WeylOp.mult(Poly.var(2 * k, 2 * k - letter[1])) if letter[0] == "YY"
        else WeylOp.mult(Poly.var(2 * k, k - letter[1], -1))))
    assert [bop.op.terms for bop in shapovalov_series(2, K)] == [{}, {}]


def test_noncommuting_factors_are_refused(capsys, monkeypatch):
    # the recursion holds only because the factors commute: with x1 and d_x1
    # as two of them it must refuse, and the CLI reports an engine error
    def xx_as_x1_and_dx1(k, letter):
        if letter[0] != "XX":
            return letter_op(k, letter)
        if letter[1] == 1:
            return WeylOp.partial(2 * k, 0)
        return WeylOp.mult(Poly.var(2 * k, 0))

    monkeypatch.setattr(shapovalov, "letter_op", xx_as_x1_and_dx1)
    with pytest.raises(FactorsDoNotCommute, match="do not commute"):
        shapovalov_series(1, K)
    assert issubclass(FactorsDoNotCommute, ArithmeticError)
    for argv in (["shapovalov", "--d", "1"], ["verify", "shapovalov"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: FactorsDoNotCommute")


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cli_output_equals_the_explicit_expansion(capsys, d, k):
    # the command reads the class of B_d off the induction; the oracle
    # builds B_d term by term
    want = shapovalov_cli_by_expansion(d, k)
    for fmt in ("text", "json"):
        code = cli.main(["shapovalov", "--d", str(d), "--k", str(k),
                         "--format", fmt])
        assert (capsys.readouterr().out, code) == want[fmt]


def test_cli_output_is_unchanged_through_the_fallback(capsys, monkeypatch):
    # when the induction fails, the command builds B_d and compares
    def run(fmt):
        code = cli.main(["shapovalov", "--d", "2", "--k", "3",
                         "--format", fmt])
        return capsys.readouterr().out, code

    want = {fmt: run(fmt) for fmt in ("text", "json")}
    built = []
    monkeypatch.setattr(cli, "closed_form_induction", lambda b1, dmax: "d=1")
    monkeypatch.setattr(cli, "shapovalov_expand", lambda d, k: (
        built.append(d) or shapovalov_expand(d, k)))
    for fmt in ("text", "json"):
        assert run(fmt) == want[fmt]
    assert built == [2, 2]


def test_passing_runs_build_only_b1(monkeypatch):
    # a passing suite and a passing command read every B_d off the induction
    dmax = []

    def counting_series(d, k):
        dmax.append(d)
        return shapovalov_series(d, k)

    for module in (shapovalov, suites, cli):
        monkeypatch.setattr(module, "shapovalov_series", counting_series)
    assert suites.run_suite("shapovalov", 3).exit_status == 0
    assert cli.main(["shapovalov", "--d", "3", "--k", "3"]) == 0
    assert dmax == [1, 1]


def test_failing_induction_builds_the_series_once(monkeypatch):
    # the probes of a failing induction take B_1..B_3 from one series
    dmax = []

    def counting_series(d, k):
        dmax.append(d)
        return shapovalov_series(d, k)

    monkeypatch.setattr(suites, "shapovalov_series", counting_series)
    monkeypatch.setattr(suites, "closed_form_induction",
                        lambda b1, d: "d=1")
    report = suites.run_suite("shapovalov", 3)
    assert [c.ok for c in report.checks
            if c.check_id != "shapovalov-expand-vs-closed"] == [True] * 3
    assert dmax == [1, 3]


def test_scalar_on_graded_matches():
    d = 2
    expanded = shapovalov_expand(d, K)
    closed = shapovalov_closed(d, K)
    for r in range(2 * d + 2):
        assert scalar_on_graded(expanded, r) == closed.eval((r,))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_closed_form_induction_holds_beyond_three(k):
    assert closed_form_induction(shapovalov_series(1, k)[0], 6) is None


def test_scalar_rejects_non_scalar_operator():
    # multiplication by a coordinate does not act by a scalar on degree 1
    with pytest.raises(NotScalar):
        scalar_on_graded(ConeOp(WeylOp.mult(Poly.var(2 * K, 0))
                                * WeylOp.partial(2 * K, 1)), 1)


def test_bezout_certificate():
    for d in (1, 2, 3):
        a, b = fourier_roots_bezout(d, K)
        p = shapovalov_closed(d, K)
        q = fourier_euler_image(p, K)
        assert a * p + b * q == euler(1)


def test_bezout_certificate_is_checked_under_O():
    # a wrong pair must raise even when assert statements are stripped
    code = ("from quadricops import shapovalov as s\n"
            "one = s.Poly.const(1, 1)\n"
            "s.xgcd = lambda p, q: (one, one, s.Poly.zero(1))\n"
            "try:\n"
            "    s.fourier_roots_bezout(1, 2)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n")
    src = str(Path(shapovalov.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "Bezout certificate failed\n", proc.stderr


def test_xgcd_generic():
    a = euler(1, 2, 1)   # (E+1)^2
    b = euler(2, 1)      # E + 2
    g, s, t = xgcd(a, b)
    assert g == euler(1)
    assert s * a + t * b == g


def test_weight_zero():
    # the oracle of the weight-zero check, which reads every d off the
    # induction: the commutators themselves, with hand-written Levi operators
    for k in (2, 3):
        levi = [euler_op(k), d_op(k, 1, 2), b_op(k, 1, 2), c_op(k, 1, 2)]
        for bop in shapovalov_series(2, k):
            for op in levi:
                assert bop.commutator(ConeOp(op)).is_zero_class()


def test_euler_poly_to_weyl():
    p = euler(1, 1)  # E + 1
    op = euler_to_weyl(p, K)
    assert op == euler_op(K) + WeylOp.const(2 * K, 1)
