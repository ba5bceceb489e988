"""Command-line interface: expression reduction, transforms, and suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(including an input over a fixed cap: an expression whose degree or order
bound exceeds ``MAX_DEGREE``, whose constants' bit bound exceeds
``MAX_BITS`` or, for ``fourier-transform``, whose word count bound exceeds
``MAX_WORDS``, and ``harmonic --d``, ``shapovalov --d`` or ``bessel
--order`` over ``MAX_DEGREE``), 3 internal error: an engine exception
that no other code covers, a ``ValueError`` included, reported as one
``internal error:`` line on stderr.

A process pays only for the command it runs.  When the first argument
names a subcommand, ``main`` builds that subcommand's parser alone; any
other argument list (none, ``-h``, an unknown command, or arguments the
subcommand leaves unread) goes to ``build_parser``, the one description of
the whole CLI, which prints the usage or the error.  ``suites`` loads only
when ``moment`` or ``verify`` runs or the ``verify`` parser is built, and
``json`` only when a command emits JSON.  Every other engine module loads
with this one, as the benchmark's tracer expects.
"""

from __future__ import annotations

import argparse
import sys

from . import exprparse
from .coneops import ConeOp
from .harmonic import (bessel_check, boundary_phase_check,
                       harmonic_decompose, harmonic_dimension, kelvin,
                       kelvin_intertwine_defect, n2_counterexample)
from .lie import basis
from .momentorbit import check_descent, verify_orbit_relations
from .poly import ExponentOverflow, Poly, QLaurent
from .shapovalov import (closed_form_induction, euler_to_weyl,
                         fourier_roots_bezout, shapovalov_closed,
                         shapovalov_expand, shapovalov_series)

# the largest coefficient degree and order an expression may reach, the
# largest degree of harmonic --d and shapovalov --d and the largest
# bessel --order
MAX_DEGREE = 12
# the most generator words a fourier-transform input may expand into: the
# words of a power of a sum multiply, and each is transformed and printed
MAX_WORDS = 256
# the most bits the integer constants of an expression may reach
MAX_BITS = 4096


def _emit_obj(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        import json
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _usage_error(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 2


def _parse_bounded(args, what: str = "expression"):
    """The parse tree of ``args.expr``; raises UsageError when its degree,
    order or constant bound exceeds its cap, so evaluating it is bounded."""
    tree = exprparse.parse(args.expr, args.k)
    if max(exprparse.bound(tree)) > MAX_DEGREE:
        raise exprparse.UsageError(f"{what} exceeds the max-degree safety cap")
    if exprparse.bit_bound(tree) > MAX_BITS:
        raise exprparse.UsageError(f"{what} exceeds the constant safety cap "
                                   f"of {MAX_BITS} bits")
    return tree


def cmd_reduce(args) -> int:
    tree = _parse_bounded(args)
    op = exprparse.eval_weyl(tree, args.k)
    cone = ConeOp(op)
    obj = {
        "expr": exprparse.to_text(tree),
        "k": args.k,
        "ambient": op.text(),
        "canonical_class": cone.canonical_text(),
        "canonical_json": cone.canonical_json(),
        "preserves_ideal": cone.preserves_ideal(),
        "zero_class": cone.is_zero_class(),
    }
    _emit_obj(obj, args.format, [
        f"expression: {obj['expr']}",
        f"ambient operator: {obj['ambient']}",
        f"canonical class: {obj['canonical_class']}",
        f"normalizes the cone ideal: {obj['preserves_ideal']}",
    ])
    return 0


def cmd_fourier_transform(args) -> int:
    tree = _parse_bounded(args)
    if exprparse.word_bound(tree) > MAX_WORDS:
        return _usage_error("expression exceeds the word-count safety cap "
                            f"of {MAX_WORDS} generator words")
    word = exprparse.to_genword(tree, args.k)
    image = word.fourier()
    cone = exprparse.eval_fourier(tree, args.k)
    obj = {
        "expr": exprparse.to_text(tree),
        "k": args.k,
        "word": word.text(),
        "image_word": image.text(),
        "image_expr": exprparse.genword_to_expr_text(image, args.k),
        "image_canonical_class": cone.canonical_text(),
        "involution_ok": image.fourier() == word,
    }
    _emit_obj(obj, args.format, [
        f"expression: {obj['expr']}",
        f"generator word: {obj['word']}",
        f"Fourier image: {obj['image_word']}",
        f"image as expression: {obj['image_expr']}",
        f"image canonical class: {obj['image_canonical_class']}",
    ])
    return 0 if obj["involution_ok"] else 1


def cmd_shapovalov(args) -> int:
    d, k = args.d, args.k
    if d < 1:
        return _usage_error("--d must be at least 1")
    if d > MAX_DEGREE:
        return _usage_error("--d exceeds the max-degree safety cap")
    [b1] = shapovalov_series(1, k)
    closed = shapovalov_closed(d, k)
    a, b = fourier_roots_bezout(d, k)
    closed_class = ConeOp(euler_to_weyl(closed, k))
    if closed_form_induction(b1, d) is None:
        # B_d = p_d(E) as classes, and equal classes print alike
        expanded, matches = closed_class, True
    else:
        expanded = shapovalov_expand(d, k)
        matches = expanded == closed_class
    def _factor(shift: int) -> str:
        if shift == 0:
            return "E"
        return f"(E + {shift})" if shift > 0 else f"(E - {-shift})"
    factors = ([_factor(1 - j) for j in range(1, d + 1)]
               + [_factor(k - j - 1) for j in range(1, d + 1)])
    obj = {
        "d": d,
        "k": k,
        "expanded_class": expanded.canonical_text(),
        "closed_form": closed.text(["E"]),
        "closed_factored": " * ".join(factors),
        "bezout_a": a.text(["E"]),
        "bezout_b": b.text(["E"]),
        "expanded_equals_closed": matches,
    }
    _emit_obj(obj, args.format, [
        f"element (d={d}, k={k})",
        f"expanded canonical class: {obj['expanded_class']}",
        f"closed form: {obj['closed_form']} = {obj['closed_factored']}",
        f"Bezout pair: a = {obj['bezout_a']}; b = {obj['bezout_b']}",
        f"expanded equals closed: {matches}",
    ])
    return 0 if matches else 1


def cmd_moment(args) -> int:
    from .suites import CheckResult, SuiteReport, emit
    checks = []
    for name, ok, residue in verify_orbit_relations(args.k):
        checks.append(CheckResult(f"relation {name}",
                                  "orbit relation vanishes on the cone",
                                  ok, residue if not ok else ""))
    for xi in basis(args.k):
        defect = check_descent(xi)
        checks.append(CheckResult(f"descent {xi.tag}",
                                  "moment pairing is fiber-shear invariant",
                                  defect.is_zero(),
                                  defect.text() if not defect.is_zero() else ""))
    report = SuiteReport("moment-verify", args.k, checks)
    sys.stdout.write(emit(report, args.format).decode())
    return report.exit_status


def cmd_kelvin(args) -> int:
    tree = _parse_bounded(args, "polynomial")
    op = exprparse.eval_weyl(tree, args.k)
    for (_, b) in op.terms:
        if b:  # a nonzero derivative multi-index
            return _usage_error("kelvin expects a polynomial expression "
                                "(no derivatives)")
    poly = Poly(2 * args.k, {a: c for (a, b), c in op.terms.items()})
    f = QLaurent(args.k, poly, 0)
    kf = kelvin(f)
    defect = kelvin_intertwine_defect(f)
    obj = {
        "expr": exprparse.to_text(tree),
        "k": args.k,
        "kelvin": kf.text(),
        "involution_ok": kelvin(kf) == f,
        "intertwine_defect": defect.text(),
        "intertwine_ok": defect.is_zero(),
    }
    _emit_obj(obj, args.format, [
        f"f = {obj['expr']}",
        f"K f = {obj['kelvin']}",
        f"K K f = f: {obj['involution_ok']}",
        f"intertwine defect: {obj['intertwine_defect']}",
    ])
    return 0 if obj["involution_ok"] and obj["intertwine_ok"] else 1


def cmd_harmonic(args) -> int:
    d, k = args.d, args.k
    if d < 0:
        return _usage_error("--d must be nonnegative")
    if d > MAX_DEGREE:
        return _usage_error("--d exceeds the max-degree safety cap")
    harm, qmult = harmonic_decompose(d, k)
    expected = harmonic_dimension(d, k)
    obj = {
        "d": d,
        "k": k,
        "harmonic_dimension": len(harm),
        "expected_dimension": expected,
        "q_multiple_dimension": len(qmult),
        "harmonic_basis": [h.text() for h in harm],
        "ok": len(harm) == expected,
    }
    _emit_obj(obj, args.format, [
        f"degree {d}, k={k}",
        f"harmonic dimension: {len(harm)} (expected {expected})",
        f"complement dimension: {len(qmult)}",
        "harmonic basis:",
        *[f"  {h.text()}" for h in harm],
    ])
    return 0 if obj["ok"] else 1


def cmd_bessel(args) -> int:
    if args.order < 2:
        return _usage_error("--order must be at least 2")
    if args.order > MAX_DEGREE:
        return _usage_error("--order exceeds the max-degree safety cap")
    rep = bessel_check(args.k, args.order)
    obj = {
        "k": args.k,
        "order": args.order,
        "coefficients": [{"num": c.numerator, "den": c.denominator}
                         for c in rep["coefficients"]],
        "residue_ok": rep["residue_ok"],
        "laplacian_zero": rep["laplacian_zero"],
        "euler_matches": rep["euler_matches"],
        "ok": rep["ok"],
    }
    _emit_obj(obj, args.format, [
        f"radial series, k={args.k}, truncation order {args.order}",
        "coefficients: " + ", ".join(str(c) for c in rep["coefficients"]),
        f"series residue vanishes below truncation: {rep['residue_ok']}",
        f"series is harmonic: {rep['laplacian_zero']}",
        f"Euler action matches t d/dt: {rep['euler_matches']}",
    ])
    return 0 if rep["ok"] else 1


def cmd_boundary(args) -> int:
    rep = boundary_phase_check(args.k)
    obj = {
        "k": args.k,
        "linear_term": rep["linear_term"].text(),
        "quadratic_term": rep["quadratic_term"].text(),
        "cleared_phase": rep["cleared_phase"].text(),
        "ok": rep["ok"],
    }
    _emit_obj(obj, args.format, [
        f"boundary phase identities, k={args.k}",
        f"linear-term residue: {obj['linear_term']}",
        f"quadratic-term residue: {obj['quadratic_term']}",
        f"cleared-phase residue: {obj['cleared_phase']}",
        f"all hold: {rep['ok']}",
    ])
    return 0 if rep["ok"] else 1


def cmd_counterexample_n2(args) -> int:
    rep = n2_counterexample()
    obj = {
        "commutator_ok": rep["commutator_ok"],
        "xi_of_x": rep["xi_of_x"].text(),
        "xi_of_x_polynomial": rep["xi_of_x_polynomial"],
        "delta_of_x_zero": rep["delta_of_x_zero"],
        "ok": rep["ok"],
    }
    _emit_obj(obj, args.format, [
        "rank-one counterexample (plane with form x*y)",
        f"commutator law holds on Laurent monomials: {rep['commutator_ok']}",
        f"field applied to the coordinate: {obj['xi_of_x']} "
        f"(polynomial: {rep['xi_of_x_polynomial']})",
        f"Laplacian of the coordinate vanishes: {rep['delta_of_x_zero']}",
    ])
    return 0 if rep["ok"] else 1


def cmd_verify(args) -> int:
    from .suites import emit, run_suite
    report = run_suite(args.suite, args.k)
    sys.stdout.write(emit(report, args.format).decode())
    return report.exit_status


def _verify_arguments() -> dict:
    from .suites import SUITES
    return {"suite": dict(help="suite name or 'all': "
                          + ", ".join(sorted(SUITES) + ["all"]))}


_EXPR = {"expr": {}}

# the subcommands, in the order of the help text: (name, handler, help, own
# arguments as {name or flag: add_argument keywords}, or a function that
# returns them when the parser is built, takes --k)
COMMANDS = (
    ("reduce", cmd_reduce, "canonical cone class of an expression", _EXPR,
     True),
    ("fourier-transform", cmd_fourier_transform,
     "quadric Fourier image of a generator word", _EXPR, True),
    ("shapovalov", cmd_shapovalov,
     "pairing element: expansion, closed form, Bezout pair",
     {"--d": dict(type=int, default=1)}, True),
    ("moment", cmd_moment, "verify moment descent and orbit relations",
     {"action": dict(nargs="?", choices=["verify"], default="verify")}, True),
    ("kelvin", cmd_kelvin, "Kelvin transform of a polynomial", _EXPR, True),
    ("harmonic", cmd_harmonic, "harmonic decomposition of a graded piece",
     {"--d": dict(type=int, required=True)}, True),
    ("bessel", cmd_bessel, "radial series check",
     {"--order": dict(type=int, default=12)}, True),
    ("boundary", cmd_boundary, "boundary phase identities", {}, True),
    ("counterexample-n2", cmd_counterexample_n2,
     "rank-one counterexample identities", {}, False),
    ("verify", cmd_verify, "run a verification suite", _verify_arguments,
     True),
)
_COMMAND_ROWS = {row[0]: row for row in COMMANDS}


def _add_arguments(p: argparse.ArgumentParser, func, own, with_k) -> None:
    for arg, kwargs in (own() if callable(own) else own).items():
        p.add_argument(arg, **kwargs)
    if with_k:
        p.add_argument("--k", type=int, default=2,
                       help="number of hyperbolic planes (default 2, min 2)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadricops",
        description="Exact symbolic engine for differential operators on the "
                    "quadric cone.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, own, with_k in COMMANDS:
        _add_arguments(sub.add_parser(name, help=help_text), func, own, with_k)
    return parser


def _read_args(argv: list) -> argparse.Namespace:
    """The arguments of ``argv`` as ``build_parser`` reads them (without
    ``command``), building only the named subcommand's parser when that
    parser reads all of them."""
    if argv and argv[0] in _COMMAND_ROWS:
        name, func, _, own, with_k = _COMMAND_ROWS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"quadricops {name}")
        _add_arguments(parser, func, own, with_k)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    k = getattr(args, "k", 2)
    if k < 2:
        return _usage_error("--k must be at least 2")
    try:
        return args.func(args)
    except ExponentOverflow:
        return _usage_error("expression exceeds the max-degree safety cap")
    except (exprparse.ParseError, exprparse.IndexOutOfRange) as exc:
        return _usage_error(f"parse error: {exc}")
    except exprparse.UsageError as exc:
        return _usage_error(str(exc))
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        sys.stderr.write(f"internal error: {detail}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
