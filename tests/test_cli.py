"""CLI: golden outputs, exit codes, and the suite runner."""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadricops import cli, exprparse, harmonic, shapovalov, suites
from quadricops.coneops import NotNormalizing
from quadricops.poly import Poly
from quadricops.suites import CheckResult, SuiteReport, SUITES, emit, run_suite
from quadricops.weyl import WeylOp

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


GOLDEN_CASES = [
    ("verify_algebra_core_k2.json",
     ["verify", "algebra-core", "--k", "2", "--format", "json"]),
    ("verify_lie_orthogonal_k2.json",
     ["verify", "lie-orthogonal", "--k", "2", "--format", "json"]),
    ("verify_lie_hom_k2.json",
     ["verify", "lie-hom", "--k", "2", "--format", "json"]),
    ("verify_cone_ops_k2.json",
     ["verify", "cone-ops", "--k", "2", "--format", "json"]),
    ("verify_moment_orbit_k2.json",
     ["verify", "moment-orbit", "--k", "2", "--format", "json"]),
    ("verify_harmonic_kelvin_k2.json",
     ["verify", "harmonic-kelvin", "--k", "2", "--format", "json"]),
    ("verify_shapovalov_k2.json",
     ["verify", "shapovalov", "--k", "2", "--format", "json"]),
    ("shapovalov_d1_k2.json",
     ["shapovalov", "--d", "1", "--k", "2", "--format", "json"]),
    ("reduce_commutator_k2.json",
     ["reduce", "XX1*YY2 - YY2*XX1", "--format", "json"]),
    ("harmonic_d2_k2.json",
     ["harmonic", "--d", "2", "--k", "2", "--format", "json"]),
    ("counterexample_n2.json",
     ["counterexample-n2", "--format", "json"]),
    ("fourier_word_k2.json",
     ["fourier-transform", "x1*y2 - 3*E", "--format", "json"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES,
                         ids=[g for g, _ in GOLDEN_CASES])
def test_golden_output(capsys, golden, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_harmonic_d6_k3_output_is_pinned(capsys):
    code, out = run_cli(capsys, ["harmonic", "--d", "6", "--k", "3",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e2ee10a955c13a7b627932f956c88550bf587a7114b585e7166bbd9fbe8c54c")


@pytest.mark.parametrize("suite,digest", [
    ("harmonic-kelvin",
     "9e20ec828f143a3975879bd852885e22ea648f1d8eb267b328bbc81f3354a704"),
    ("moment-orbit",
     "7b5e0645f71d51f30267f2fc94d46b764e6aea2e7a6a252723bab49eb7ad85b6"),
    ("shapovalov",
     "dcd24fd88a8c98478895746148f8fc4351657c5daee6c472c65af189b77ff4e9"),
    ("lie-orthogonal",
     "f86ab3d8e1a9ccff93e2d93e6212546ef9b6857195112b5b132c04c694ca392b"),
], ids=["harmonic-kelvin", "moment-orbit", "shapovalov", "lie-orthogonal"])
def test_k4_suite_report_is_pinned(capsys, suite, digest):
    # recorded before the Kelvin and minors checks were proven by certificate,
    # and before the Shapovalov recursion and the one-row cocycle character
    code, out = run_cli(capsys, ["verify", suite, "--k", "4",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_k3_harmonic_kelvin_report_is_pinned(capsys):
    # recorded before the Kelvin check was proven on orbit representatives
    code, out = run_cli(capsys, ["verify", "harmonic-kelvin", "--k", "3",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a475a53827790e15ff6315e92bdba75327fd64aac42b669d4f77a9617b26337")


def test_k3_shapovalov_report_is_pinned(capsys):
    # recorded before operators were applied one derivative bucket at a time
    code, out = run_cli(capsys, ["verify", "shapovalov", "--k", "3",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "18c88aba489a6cd53b865b72d92fe573a12831feb07a022b6c7d94171a20f88f")


@pytest.mark.parametrize("argv,digest", [
    (["reduce", "E^3*XX1+dx2*YY3"],
     "6a35175c010111be3a173431c7cf434d121aed1a42666cca5a3fc1d191c778dd"),
    (["fourier-transform", "(x1+XX2)^3"],
     "1b27f1b38dd2c868bda4c32f14bad3eb1cd889e2ef3fa642777f66b51f99dee8"),
    (["shapovalov", "--d", "2"],
     "18d98b98ed69645554693f52c860d75410234da215a1146ec57a0c10df02ea08"),
    (["kelvin", "x1*y2+x3^2"],
     "d1677e51a695c459a4e9091e945250d0ec6d60206068a08d258b7727e44c41b6"),
], ids=["reduce", "fourier-transform", "shapovalov", "kelvin"])
def test_k3_operator_output_is_pinned(capsys, argv, digest):
    # recorded while a Weyl term was keyed by a pair of packed monomials and
    # a canonical class was reduced one derivative part at a time: the
    # printed order of the terms and every quotient of the one-pass division
    code, out = run_cli(capsys, argv + ["--k", "3", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt,digest", [
    ("text",
     "646ac644cdc2893f63e5977af670a273f3a4aa0435e5e3d9bfa45bfd7bac26c9"),
    ("json",
     "bba7a148d2bd3b33d9176c40d69d22fe99357de956b41a1e4ebb9c56bc5903cd"),
])
def test_mixed_degree_kelvin_output_is_pinned(capsys, fmt, digest):
    # recorded while kelvin raised Q to a fresh power for every term: the
    # numerator has parts of every degree from 0 to 6
    code, out = run_cli(capsys, ["kelvin", "(x1+y2+3*x3+y1*x2+1)^3",
                                 "--k", "3", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["shapovalov", "--d", "3", "--k", "4"],
     "7a0edfcb44104adb861a91e019678ed8d60cfa00e892b111e5527ac739e9fdd0"),
    (["reduce", "E^3*XX1+dx2*YY3", "--k", "3"],
     "358ac7884998fd6e5676b37923d0e84079d1aff99009db32bc8ca4919b0cdbd9"),
], ids=["shapovalov", "reduce"])
def test_text_output_is_pinned(capsys, argv, digest):
    # recorded while the text printers grouped a class into one Poly per
    # derivative part and unpacked every key into an exponent tuple
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_k3_moment_verify_report_is_pinned(capsys):
    # every orbit relation and every descent as its own check; recorded
    # before descent was proven by one fiber derivative and the Pluecker
    # relations by the rank-2 factorization
    code, out = run_cli(capsys, ["moment", "verify", "--k", "3",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3989adfbc229c281eea464ac067ba8e02dca20e7ea16f490be3941ed37411f8")


@pytest.mark.parametrize("suite,k,digest", [
    ("shapovalov", 5,
     "1fe9f23e07b559e3517fe98a6b0e0c1bf2da82aededc61da2a2738ea22705c4f"),
    ("cone-ops", 4,
     "28b21e87741f116a60861101050c5d440499897a71cc40f9ced0e6d4db3ba663"),
    ("lie-hom", 4,
     "430f1c3f3f4a2ad53484ec2c3448ed8b5c43253b138eff2388eadcce7e81df1f"),
    ("lie-orthogonal", 5,
     "95a980db96b9546b8c88c2be95ac9f601900ce8a87fc128e44b186d43a7b17ac"),
    ("moment-orbit", 5,
     "1948a37624d25ba21d0aca542edd902c165c9def231964147a7068cfb5131dcb"),
    ("algebra-core", 3,
     "4b9fef6e5ab9e27d7e6cf14725212666d3390f6749de1473d5db6e16472591ff"),
    ("algebra-core", 4,
     "3a249859a5768ba8580a7b1128cb7f26fab8ed333dacbd23b528363d22f15612"),
    ("weyl", 3,
     "5d92acccc6751fdefaec7539d481705247bc5acc81c8fbfad9716ccd302d70a4"),
    ("weyl", 4,
     "ce2633150dd223836ea72bc1ed77c4356f676716d8816b854cd970b000123585"),
    ("lie-orthogonal", 3,
     "ad6e9b1ffb9a52ea6953877a28fce4e134f833f257d7ba0842ab196cd3144c39"),
    ("moment-orbit", 8,
     "759bfbbed9d415ff94548de430b24ce2aad5e6d1e6ca216346b35f996d63d7c9"),
    ("algebra-core", 12,
     "8a2f0608923e40db7377d9f78ea2905b93af1a3872eb0be6a898e6d10029ecf7"),
], ids=["shapovalov-k5", "cone-ops-k4", "lie-hom-k4", "lie-orthogonal-k5",
        "moment-orbit-k5", "algebra-core-k3", "algebra-core-k4", "weyl-k3",
        "weyl-k4", "lie-orthogonal-k3", "moment-orbit-k8", "algebra-core-k12"])
def test_enumerated_report_is_pinned(capsys, suite, k, digest):
    # recorded while the Shapovalov identity was still checked on B_1..B_3
    # expanded and the homomorphism on every basis pair; the k=5
    # lie-orthogonal and moment-orbit reports while the Levi block was
    # stored dense; the algebra-core, weyl and k=3 lie-orthogonal reports
    # while rational products summed a Fraction per term pair; the k=8
    # moment-orbit report while M^2 was the dense square of M; the k=12
    # algebra-core report while the division by Q took max over its working
    # terms at every step
    code, out = run_cli(capsys, ["verify", suite, "--k", str(k),
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_output_is_deterministic(capsys):
    _, first = run_cli(capsys, ["verify", "cli", "--format", "json"])
    _, second = run_cli(capsys, ["verify", "cli", "--format", "json"])
    assert first == second


def test_exit_code_success(capsys):
    code, _ = run_cli(capsys, ["verify", "weyl", "--k", "2"])
    assert code == 0


def test_exit_code_verification_failure(capsys):
    # a suite with a failing check exits 1 through the normal dispatch
    SUITES["injected-failure"] = lambda k: [
        CheckResult("always-fails", "synthetic failing check", False, "residue")]
    try:
        code, out = run_cli(capsys, ["verify", "injected-failure"])
    finally:
        del SUITES["injected-failure"]
    assert code == 1
    assert "FAIL" in out


def test_exit_code_usage_errors(capsys):
    assert cli.main(["reduce", "x5"]) == 2           # index out of range
    assert cli.main(["reduce", "x1 +"]) == 2         # parse error
    assert cli.main(["verify", "no-such-suite"]) == 2
    assert cli.main(["fourier-transform", "Delta"]) == 2
    assert cli.main(["reduce", "x1", "--k", "1"]) == 2
    assert cli.main(["kelvin", "dx1"]) == 2
    # non-ASCII digits: Arabic-Indic, fullwidth, superscript
    for expr in ["x\u0661*XX\u0661", "\uff13*x1", "Dop12\u00b2"]:
        assert cli.main(["reduce", expr]) == 2
    capsys.readouterr()


def test_negated_expression_after_double_dash(capsys):
    # argparse reads a leading "-" as an option; "--" ends the options
    code, out = run_cli(capsys, ["reduce", "--", "-x1"])
    assert code == 0
    assert out.splitlines()[0] == "expression: -x1"
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", "-x1"])
    assert exc.value.code == 2
    assert "the following arguments are required: expr" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["reduce", "kelvin"])
def test_exponent_overflow_is_a_usage_error(capsys, command):
    # x1^40000 is past the largest exponent a packed monomial holds
    assert cli.main([command, "x1^40000", "--k", "2"]) == 2
    assert "max-degree safety cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fourier-transform", "x1^3000000"],
    ["reduce", "(x1 + y1 + x2 + y2 + dx1 + dy1)^14"],
    ["reduce", "dx1^13"],
    ["kelvin", "(x1 + y2)^13"],
    ["kelvin", "dx1^13 - dx1^13"],
])
def test_cost_is_bounded_before_evaluation(capsys, monkeypatch, argv):
    def no_evaluation(*args):
        raise AssertionError("evaluated an expression over the cap")

    monkeypatch.setattr(exprparse, "eval_weyl", no_evaluation)
    monkeypatch.setattr(exprparse, "to_genword", no_evaluation)
    monkeypatch.setattr(exprparse, "eval_fourier", no_evaluation)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("exceeds the max-degree safety cap\n")


def _raiser(exc):
    def raise_(*args, **kwargs):
        raise exc
    return raise_


def test_engine_errors_exit_3(capsys, monkeypatch):
    # the certificate check in fourier_roots_bezout, reached by a wrong pair
    one, zero = Poly.const(1, 1), Poly.zero(1)
    monkeypatch.setattr(shapovalov, "xgcd", lambda p, q: (one, one, zero))
    # the ArithmeticError of harmonic_decompose, reached through x1*x2 as Q
    monkeypatch.setattr(harmonic, "q_form",
                        lambda k: Poly.var(2 * k, 0) * Poly.var(2 * k, 1))
    monkeypatch.setattr(cli, "ConeOp", _raiser(NotNormalizing("not normal")))
    # verify reads run_suite from the suites module when it runs
    monkeypatch.setattr(suites, "run_suite",
                        _raiser(IndexError("off the end")))
    # an engine ValueError is not a usage error
    monkeypatch.setattr(cli, "kelvin",
                        _raiser(ValueError("certificate identity fails")))
    cases = [
        (["shapovalov", "--d", "1"], "ArithmeticError: Bezout certificate failed"),
        (["harmonic", "--d", "2"],
         "ArithmeticError: harmonic decomposition is not a direct sum"),
        (["reduce", "x1"], "NotNormalizing: not normal"),
        (["verify", "weyl"], "IndexError: off the end"),
        (["kelvin", "x1"], "ValueError: certificate identity fails"),
    ]
    for argv, detail in cases:
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {detail}\n"


@pytest.mark.parametrize("expr", ["(" * 3000 + "x1" + ")" * 3000,
                                  " + ".join(["x1"] * 1500)],
                         ids=["nested", "flat-sum"])
def test_token_count_is_bounded_before_parsing(capsys, expr):
    # both once overflowed the recursive parser and tree walkers
    start = time.perf_counter()
    assert cli.main(["reduce", expr]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parse error: expression has more "
                                   f"than {exprparse.MAX_TOKENS} tokens")
    # the deepest nesting under the cap still goes through
    depth = (exprparse.MAX_TOKENS - 1) // 2
    assert cli.main(["reduce", "(" * depth + "x1" + ")" * depth]) == 0
    capsys.readouterr()


def test_word_count_is_bounded_before_building_words(capsys, monkeypatch):
    # a power of a sum of four letters expands into 4^6 words
    monkeypatch.setattr(exprparse, "to_genword", _raiser(AssertionError(
        "built the words of an expression over the cap")))
    start = time.perf_counter()
    assert cli.main(["fourier-transform", "(x1 + x2 + y1 + y2)^6"]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: expression exceeds the word-count safety "
                            f"cap of {cli.MAX_WORDS} generator words\n")


@pytest.mark.parametrize("expr,words", [
    ("x1*y2 - 3*E", 3), ("(x1 + x2 + y1 + y2)^4", 256), ("E^3", 8),
    ("-(XX1 + 2)*(Dop12 - E)^0", 2), ("(x1 + x2 + y1 + y2)^6", 4096)])
def test_word_bound_covers_the_words(expr, words):
    tree = exprparse.parse(expr, 2)
    assert exprparse.word_bound(tree) == words
    if words <= cli.MAX_WORDS:
        assert len(exprparse.to_genword(tree, 2).terms) <= words


def test_argparse_usage_exit_code():
    proc = subprocess.run([sys.executable, "-m", "quadricops.cli",
                           "no-such-command"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith(
        "quadricops: error: argument command: invalid choice: "
        "'no-such-command'")


def _parse_outcome(capsys, parse, argv):
    """("args", namespace without ``command``) or ("exit", code, stdout,
    stderr) of one way to read argv."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("exit", exc.code, captured.out, captured.err)
    return ("args", {key: value for key, value in vars(args).items()
                     if key != "command"})


@pytest.mark.parametrize("argv", [
    ["reduce", "--", "-x1"], ["reduce", "x1", "--bogus"],
    ["reduce", "x1", "extra"], ["counterexample-n2", "--k", "3"],
    ["harmonic"], ["harmonic", "--d", "x"], ["bessel", "--order"],
    ["reduce", "x1", "--k", "abc"], ["reduce", "x1", "--format", "xml"],
    ["reduce", "x1", "--fo=json"], ["moment", "foo"], ["red", "x1"], [],
    ["nope"], ["-h"], ["reduce", "-h"], ["moment"], ["verify", "weyl"],
    ["verify", "no-such-suite", "--k", "3", "--format", "json"],
    ["shapovalov", "--d", "2", "--k", "3"], ["counterexample-n2"],
    ["fourier-transform", "x1", "--k=3"], ["reduce", "x1", "--k", "3", "--k", "4"],
], ids=repr)
def test_a_subcommand_parser_reads_as_the_full_parser(capsys, monkeypatch,
                                                      argv):
    full = _parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a),
                          argv)
    # main's handlers record their namespace instead of running
    seen = []

    def recorder(func):
        def record(args):
            seen.append(argparse.Namespace(**{**vars(args), "func": func}))
            return 0
        return record

    add_arguments = cli._add_arguments
    monkeypatch.setattr(cli, "_add_arguments", lambda p, func, own, with_k: (
        add_arguments(p, recorder(func), own, with_k)))

    def through_main(argv):
        assert cli.main(argv) == 0
        return seen.pop()

    assert _parse_outcome(capsys, through_main, argv) == full


def test_a_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["boundary", "--k", "2"]) == 0
    assert built == ["quadricops boundary"]
    built.clear()
    # the subcommand's parser leaves --bogus, so the full parser reports it
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", "x1", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "quadricops: error: unrecognized arguments: --bogus\n")
    assert len(built) == 12
    assert built[:2] == ["quadricops reduce", "quadricops"]


def test_degree_caps_are_fixed(capsys):
    assert cli.main(["reduce", "x1^12"]) == 0
    assert cli.main(["reduce", "x1^13"]) == 2
    assert cli.main(["harmonic", "--d", "12"]) == 0
    assert cli.main(["harmonic", "--d", "13"]) == 2
    assert capsys.readouterr().err == (
        "error: expression exceeds the max-degree safety cap\n"
        "error: --d exceeds the max-degree safety cap\n")


def test_bessel_order_is_capped(capsys):
    # order 900 once exited 3: its series denominators outgrow Python's
    # limit on converting an int to text
    assert cli.main(["bessel", "--k", "2", "--order", "12"]) == 0
    capsys.readouterr()
    for order in ("13", "900"):
        assert cli.main(["bessel", "--k", "2", "--order", order]) == 2
    assert capsys.readouterr() == (
        "", "error: --order exceeds the max-degree safety cap\n" * 2)


def test_shapovalov_degree_is_capped(capsys, monkeypatch):
    # --d 30 --k 2 once ran for more than 30 s
    start = time.perf_counter()
    for d in ("13", "30"):
        assert cli.main(["shapovalov", "--d", d, "--k", "2"]) == 2
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr() == (
        "", "error: --d exceeds the max-degree safety cap\n" * 2)
    # the cap itself reaches the engine
    monkeypatch.setattr(cli, "shapovalov_series",
                        _raiser(ArithmeticError("reached the engine")))
    assert cli.main(["shapovalov", "--d", str(cli.MAX_DEGREE)]) == 3
    assert capsys.readouterr().err == (
        "internal error: ArithmeticError: reached the engine\n")


def test_fourier_transform_multiplies_few_operators(capsys, monkeypatch):
    # the image class is folded in D_C: one product per factor of the
    # power, and three for each letter image built on the emptied memo;
    # multiplying out the 256 words took 510 prefix products
    calls = []
    mul = WeylOp.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(WeylOp, "__mul__", counted)
    assert cli.main(["fourier-transform", "(x1+x2)^8", "--k", "2"]) == 0
    capsys.readouterr()
    assert len(calls) <= 16


def test_no_environment_variable_shrinks_the_corpora(monkeypatch):
    # the corpora once shrank to degree 1 under this variable
    monkeypatch.setenv("QUADRICOPS_MAX_DEGREE", "1")
    digest = hashlib.sha256(emit(run_suite("all", 2), "json")).hexdigest()
    assert digest == (
        "30c3df2634ad9b9567eecf6a60c906513efb4b05f7ec6801cf894686d7422158")


def test_all_suites_at_k3_keep_their_report():
    digest = hashlib.sha256(emit(run_suite("all", 3), "json")).hexdigest()
    assert digest == (
        "3c380f170e1b126e1e9c322be5b420e324f579a5fe6076d77ba4b5ccc59ca7be")


def test_all_suites_at_k4_keep_their_report(capsys):
    code, out = run_cli(capsys, ["verify", "all", "--k", "4",
                                 "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1da41c0a475f8b41c48b604c21835125577cbaf5d548b5467e8efa4da47ac5d5")


# sha256 of the help text at 80 columns, of the program ("") and of each
# subcommand, in argparse's layout as of Python 3.11
HELP_DIGESTS = {
    "": "ec0a2e3442647d3009aa65d19095ab6f518caaf5bf0a82c5267c65767700bb0f",
    "reduce":
        "d6e1194bb1ca43b006cab4df8ab4526e4e3773a5b28e419df53c0c8ac8e10d4d",
    "fourier-transform":
        "3033e36f1eef83fc180af97666917213f4ee27bf4e275845653dbc659158b91f",
    "shapovalov":
        "769f38dcbb986dba49b823d11b74ff01fab7510dd760ec59d1246d85c9a55ba7",
    "moment":
        "9eea42a516a1f00159fa2151652cb96cf1d6df2f82cf829d166d8cbd8df29d76",
    "kelvin":
        "a91f88300dbed18d7f4080d11ddfc442c71af60e949419d7a9cbcb3f40d36cfa",
    "harmonic":
        "60aba352b33487693cfe9109017ac2bd08420a90bda34f0f102c1f2fd9ca6753",
    "bessel":
        "4a38cf49afd0947f1fd883facac227fc46265667e9089e9176725862bc41fadc",
    "boundary":
        "1fc04516ca2c8922368c19e33e2959a53383477d1dd3059aa6c48e83a1296923",
    "counterexample-n2":
        "ed8ae95d33badcd88c16e0ee595a85b4be7e4311d764ca37e4551ed3a7bfb50a",
    "verify":
        "c5af9843ac448ae3ff8decd3ed811cfac0a8859b3d008223ae5647a9f04f158c",
}


def test_help_texts_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    texts = {"": cli.build_parser().format_help()}
    for command in list(HELP_DIGESTS)[1:]:
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        texts[command] = capsys.readouterr().out
    assert {command: hashlib.sha256(text.encode()).hexdigest()
            for command, text in texts.items()} == HELP_DIGESTS


@pytest.mark.parametrize("argv", [
    ["reduce", "2^20000"], ["kelvin", "2^20000*x1"],
    ["fourier-transform", "2^20000*x1"], ["reduce", "(1 + 1)^2049"],
    ["reduce", "2^400000000"]])
def test_constants_are_bounded_before_evaluation(capsys, monkeypatch, argv):
    # 2^20000 once failed in printing, after it was built, with exit 3
    monkeypatch.setattr(exprparse, "eval_weyl", _raiser(AssertionError(
        "evaluated an expression over the cap")))
    monkeypatch.setattr(exprparse, "to_genword", _raiser(AssertionError(
        "built the words of an expression over the cap")))
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"exceeds the constant safety cap of {cli.MAX_BITS} bits\n")


@pytest.mark.parametrize("expr,bits", [
    ("7", 3), ("-7 + x1", 4), ("3*5 - 1", 6), ("2^12*E", 24),
    ("(1 + 1)^2048", 4096), ("(x1 + 2)^3*(dy1 - 4)", 13), ("0^1000", 0)])
def test_bit_bound_covers_the_constants(expr, bits):
    tree = exprparse.parse(expr, 2)
    assert exprparse.bit_bound(tree) == bits
    coeffs = exprparse.eval_weyl(tree, 2).terms.values()
    assert max((abs(c).bit_length() for c in coeffs), default=0) <= bits


def test_two_digit_pair_indices(capsys):
    code, _ = run_cli(capsys, ["verify", "cli", "--k", "10"])
    assert code == 0
    code, out = run_cli(capsys, ["reduce", "Dop1_10", "--k", "12",
                                 "--format", "json"])
    assert code == 0 and json.loads(out)["expr"] == "Dop1_10"
    assert cli.main(["reduce", "Dop110", "--k", "12"]) == 2
    assert "Dop<i>_<j>" in capsys.readouterr().err


def test_emit_empty_suite():
    report = SuiteReport("empty", 2, [])
    assert report.exit_status == 0
    text = emit(report, "text").decode()
    assert "exit status: 0" in text


def test_emit_json_roundtrip():
    report = run_suite("cli", 2)
    parsed = SuiteReport.from_json_obj(json.loads(emit(report, "json")))
    assert parsed == report


def test_moment_verify_text(capsys):
    code, out = run_cli(capsys, ["moment", "verify", "--k", "2"])
    assert code == 0
    assert "relation Q(w)" in out and "FAIL" not in out


def test_checks_sorted_by_id():
    report = run_suite("harmonic-kelvin", 2)
    ids = [c.check_id for c in report.checks]
    assert ids == sorted(ids)
