"""The text format shared by every printer: one signed-sum rule, pinned by
exact strings."""

import random
from fractions import Fraction

import pytest

from oracles import (canonical_json_by_buckets, canonical_text_by_buckets,
                     poly_text_by_tuples, weyl_text_by_tuples, xleft)
from quadricops.coneops import ConeOp, GenWord, rho_tilde
from quadricops.exprparse import genword_to_expr_text, parse, to_genword
from quadricops.lie import basis
from quadricops.poly import EMAX, Poly, fields, mono_text, pack, signed_text
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
    ("poly-repr",
     lambda: repr(poly({(0, 1, 0, 0): 2, (0, 0, 0, 0): -1})),
     "Poly(2*x2 - 1)"),
    ("weyl-repr",
     lambda: repr(WeylOp.from_exponents(4, {
         ((1, 0, 0, 0), (0, 0, 1, 0)): 1, ((0, 0, 0, 0), (0, 0, 0, 0)): -3})),
     "WeylOp(-3 + x1*dy1)"),
    ("genword-repr", lambda: repr(e_word(3)), "GenWord(-2 + (E+k-1))"),
]


@pytest.mark.parametrize("render, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_printer_format(render, expected):
    assert render() == expected


def test_signed_text_and_mono_text():
    assert signed_text([]) == "0"
    assert signed_text([(-1, ""), (1, "a"), (Fraction(-2, 3), "b")]) \
        == "-1 + a - 2/3*b"
    assert mono_text(pack((2, 0, 1)), [(32, "x"), (16, "y"), (0, "z")]) \
        == "x^2*z"
    assert mono_text(pack((2, 0, 1)), fields(3)) == "v1^2*v3"
    assert mono_text(0, fields(2)) == ""
    assert fields(4) == [(48, "x1"), (32, "x2"), (16, "y1"), (0, "y2")]
    assert fields(2, "d", 48) == [(64, "dx1"), (48, "dy1")]


def test_poly_text_names_every_variable():
    p = Poly.from_exponents(3, {(1, 2, 0): 1, (0, 0, 3): -2})
    assert p.text(["a", "b", "c"]) == "a*b^2 - 2*c^3"
    for names in (["a"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match=f"{len(names)} names for 3 "):
            p.text(names)


def _random_weyl(rng, n, coef, big=3):
    """A seeded operator of up to 12 terms, each exponent 0, 1 or big, save
    that x1 and yk, whose product leads Q*, take 0 or 1 in the x-part: so
    the class reduces in a few steps even when big is near the bound."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        a, b = ([rng.choice((0, 0, 1, big)) for _ in range(n)]
                for _ in range(2))
        a[0], a[-1] = min(a[0], 1), min(a[-1], 1)
        terms[tuple(a), tuple(b)] = coef(rng)
    return WeylOp.from_exponents(n, terms)


def _int(rng):
    return rng.randint(-9, 9)


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _same_printed(op):
    """The key-walk printers of op, of its x-left coefficients and of its
    class against the tuple and bucket printers of the oracles."""
    assert op.text() == weyl_text_by_tuples(op)
    assert repr(op) == f"WeylOp({weyl_text_by_tuples(op)})"
    for p in xleft(op).values():
        assert p.text() == poly_text_by_tuples(p)
    c = ConeOp(op)
    assert c.canonical_text() == canonical_text_by_buckets(c)
    assert c.canonical_json() == canonical_json_by_buckets(c)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("coef", [_int, _fraction], ids=["int", "fraction"])
def test_key_walk_printers_match_the_tuple_printers(k, coef):
    rng = random.Random(4700 + k)
    for _ in range(40):
        _same_printed(_random_weyl(rng, 2 * k, coef))
    # exponents and total degrees at the bound, in both halves
    for _ in range(10):
        _same_printed(_random_weyl(rng, 2 * k, coef, EMAX // (2 * k)))
    top = (EMAX - 1, 0) + (0,) * (2 * k - 3) + (1,)
    _same_printed(WeylOp.from_exponents(2 * k, {(top, top): coef(rng) or 1}))
    _same_printed(WeylOp.zero(2 * k))
    _same_printed(WeylOp.const(2 * k, Fraction(-7, 3)))


def test_key_walk_printers_match_on_the_basis_images():
    for xi in basis(3):
        _same_printed(rho_tilde(xi).op)


def test_two_digit_names_match_the_tuple_printer():
    rng = random.Random(47)
    n = 20
    for coef in (_int, _fraction):
        for _ in range(20):
            p = Poly.from_exponents(n, {
                tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n)): coef(rng)
                for _ in range(rng.randint(1, 8))})
            assert p.text() == poly_text_by_tuples(p)
            assert "x10" in Poly.var(n, 9).text()
        _same_printed(_random_weyl(rng, n, coef))
