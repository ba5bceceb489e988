"""The text format shared by every printer: one signed-sum rule, pinned by
exact strings."""

from fractions import Fraction

import pytest

from quadricops.coneops import ConeOp, GenWord
from quadricops.exprparse import genword_to_expr_text, parse, to_genword
from quadricops.poly import Poly, mono_text, signed_text
from quadricops.weyl import WeylOp


def poly(terms, n=4):
    return Poly.from_exponents(n, terms)


def euler(*coeffs):
    """The polynomial in E with the coefficients of E^0, E^1, ... in turn."""
    return Poly.from_exponents(1, {(i,): c for i, c in enumerate(coeffs)})


def e_word(k):
    """The expression E as a generator word: (E + k - 1) - (k - 1)."""
    return to_genword(parse("E", k), k)


CASES = [
    ("poly-zero", lambda: Poly.zero(4).text(), "0"),
    ("weyl-zero", lambda: WeylOp.zero(4).text(), "0"),
    ("euler-zero", lambda: euler().text(["E"]), "0"),
    ("genword-zero", lambda: GenWord(2).text(), "0"),
    ("expr-zero", lambda: genword_to_expr_text(GenWord(3), 3), "0"),
    ("cone-zero", lambda: ConeOp(WeylOp.zero(4)).canonical_text(), "0"),
    ("negative-lead",
     lambda: poly({(2, 0, 0, 0): -3, (0, 1, 1, 0): 1}).text(),
     "-3*x1^2 + x2*y1"),
    ("unit-coefficients",
     lambda: poly({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}).text(),
     "x1*y2 - x2*y1"),
    ("bare-constant", lambda: Poly.const(4, -5).text(), "-5"),
    ("constant-term",
     lambda: poly({(0, 0, 0, 1): 1, (0, 0, 0, 0): 7}).text(), "y2 + 7"),
    ("fraction",
     lambda: poly({(2, 0, 0, 0): Fraction(3, 2),
                   (0, 0, 0, 0): Fraction(-1, 3)}).text(),
     "3/2*x1^2 - 1/3"),
    ("custom-names", lambda: poly({(1, 2): -1}, n=2).text(["s", "t"]),
     "-s*t^2"),
    ("weyl-mixed",
     lambda: WeylOp.from_exponents(4, {
         ((1, 0, 0, 0), (0, 0, 0, 1)): -1,
         ((0, 0, 0, 0), (0, 0, 0, 0)): 2,
         ((0, 2, 0, 0), (0, 0, 1, 0)): Fraction(1, 2)}).text(),
     "2 - x1*dy2 + 1/2*x2^2*dy1"),
    ("cone-d-factors",
     lambda: ConeOp(WeylOp.from_exponents(4, {
         ((1, 0, 0, 0), (0, 2, 0, 1)): -1,
         ((0, 0, 0, 0), (0, 0, 0, 0)): 2})).canonical_text(),
     "(2) + (-x1)*dx2^2*dy2"),
    ("euler-constant", lambda: euler(3).text(["E"]), "3"),
    ("euler-gap", lambda: euler(0, -1, 2).text(["E"]), "2*E^2 - E"),
    ("genword-E", lambda: e_word(3).text(), "-2 + (E+k-1)"),
    ("expr-Etilde",
     lambda: genword_to_expr_text(GenWord.letter(3, ("Etil",)), 3),
     "(E + 2)"),
    ("expr-E", lambda: genword_to_expr_text(e_word(3), 3), "-2 + (E + 2)"),
    ("expr-letters",
     lambda: genword_to_expr_text(
         to_genword(parse("-x1*YY2 + 3*Dop12 - 1", 3), 3), 3),
     "-1 + 3*Dop12 - x1*YY2"),
    ("genword-two-digit",
     lambda: to_genword(parse("Dop1_10*XX10", 12), 12).text(), "D1_10*XX10"),
    ("expr-two-digit",
     lambda: genword_to_expr_text(to_genword(parse("Cop9_11", 12), 12), 12),
     "Cop9_11"),
]


@pytest.mark.parametrize("render, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_printer_format(render, expected):
    assert render() == expected


def test_signed_text_and_mono_text():
    assert signed_text([]) == "0"
    assert signed_text([(-1, ""), (1, "a"), (Fraction(-2, 3), "b")]) \
        == "-1 + a - 2/3*b"
    assert mono_text((2, 0, 1), ["x", "y", "z"]) == "x^2*z"
    assert mono_text((0, 0), ["x", "y"]) == ""
