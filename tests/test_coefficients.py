"""The coefficient rule: every coefficient is an int or a Fraction, never a
float, and every true division goes through ``poly.qdiv``."""

import ast
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import pytest

import quadricops
from oracles import (bilinear_eager, blocks_are_canonical,
                     commutator_by_products, exponent_items,
                     genword_mul_pairwise, normal_form_by_max,
                     normal_form_eager, poly_mul_pairwise, weyl_mul_pairwise)
from quadricops import weyl
from quadricops.coneops import GenWord, alphabet
from quadricops.lie import GroupElt, LieElt
from quadricops.poly import (EMAX, ExponentOverflow, Poly, QLaurent,
                             add_terms, normal_form_mod_single, numerators,
                             pack, q_form, qcoef, qdiv)
from quadricops.suites import run_suite
from quadricops.weyl import WeylOp, halves

SRC = Path(quadricops.__file__).parent


def test_true_division_only_inside_qdiv():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "poly.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "qdiv":
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div) and id(node) not in allowed):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_qdiv_is_exact():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(-7, 2) == Fraction(-7, 2)
    assert qdiv(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
    assert qdiv(1, Fraction(3)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)
    with pytest.raises(ZeroDivisionError):
        qdiv(Fraction(1, 2), 0)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        qdiv(1, 0.5)
    with pytest.raises(TypeError):
        qdiv(0.5, 1)
    with pytest.raises(TypeError):
        Poly.const(4, 0.5)
    with pytest.raises(TypeError):
        WeylOp.const(4, 0.5)
    with pytest.raises(TypeError):
        Poly.var(4, 0).scale(0.5)
    with pytest.raises(TypeError):
        Poly(4, {0: 0.5})
    with pytest.raises(TypeError):
        WeylOp(4, {0: 0.5})
    for op in _binary_ops(QLaurent.one_over_q(2), 0.5):
        with pytest.raises(TypeError):
            op()


def _binary_ops(a, b):
    return [lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a,
            lambda: a * b, lambda: b * a]


@pytest.mark.parametrize("make", [lambda: Poly.var(4, 0),
                                  lambda: WeylOp.partial(4, 0),
                                  lambda: QLaurent.one_over_q(2)],
                         ids=["Poly", "WeylOp", "QLaurent"])
@pytest.mark.parametrize("other", [0.5, 1.0, "x1", None, [1]],
                         ids=["float", "integral-float", "str", "None", "list"])
def test_arithmetic_rejects_other_operands(make, other):
    for op in _binary_ops(make(), other):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("other", [2, Fraction(1, 2), Poly.var(4, 0)],
                         ids=["int", "Fraction", "Poly"])
def test_qlaurent_takes_rationals_and_polys_in_either_order(other):
    q = QLaurent.one_over_q(2)
    lifted = QLaurent(2, Poly.const(4, 0) + other, 0)
    assert q + other == other + q == q + lifted
    assert other - q == lifted - q == -(q - other)
    assert q * other == other * q == q * lifted


def test_poly_and_weylop_do_not_mix():
    for op in _binary_ops(Poly.var(4, 0), WeylOp.partial(4, 0)):
        with pytest.raises(TypeError):
            op()


def test_integral_constants_are_stored_as_int():
    assert qcoef(Fraction(4, 2)) == 2 and type(qcoef(Fraction(4, 2))) is int
    assert type(Poly.const(4, Fraction(6, 3)).constant()) is int
    assert type(Poly(4, {0: Fraction(6, 3)}).constant()) is int
    assert type(Poly.var(4, 0).scale(Fraction(2)).coeff((1, 0, 0, 0))) is int
    one = Poly.var(4, 0).scale(2).scale(Fraction(1, 2))
    assert type(one.coeff((1, 0, 0, 0))) is int


def test_q_division_stores_integral_coefficients_as_int():
    # at k = 2, 3/2 x1 y2 + 1/2 x2 y1 = 3/2 Q - x2 y1: the remainder's
    # coefficient is the difference 1/2 - 3/2 of two Fractions
    p = Poly.from_exponents(4, {(1, 0, 0, 1): Fraction(3, 2),
                                (0, 1, 1, 0): Fraction(1, 2)})
    quo, rem = normal_form_mod_single(p, q_form(2))
    assert quo == Poly.const(4, Fraction(3, 2))
    assert list(exponent_items(rem)) == [((0, 1, 1, 0), -1)]
    assert type(rem.coeff((0, 1, 1, 0))) is int
    rng = random.Random(11)
    for _ in range(200):
        p = random_operand(rng, Poly, DENOMINATORS[1])
        for part in normal_form_mod_single(p, q_form(2)):
            assert all(type(c) is int or c.denominator != 1
                       for c in part.terms.values()), part.terms


# denominators of the random operands below: none, small and mixed, and
# coprime up to 1/97
DENOMINATORS = [(1,), (2, 3, 4, 6), (1, 5, 89, 97), tuple(range(1, 98))]


LETTERS = sorted(alphabet(2))


@pytest.mark.parametrize("dens", DENOMINATORS,
                         ids=["int", "small", "coprime", "to-97"])
def test_division_matches_the_max_loop(dens):
    # Q at k = 2..4 is monic with int coefficients, so the heap runs on
    # integer numerators; the last divisor is not monic and is rational, as
    # in the Euclid of shapovalov.xgcd
    rng = random.Random(sum(dens))
    rational = Poly.from_exponents(4, {(1, 0, 0, 1): Fraction(3, 2),
                                       (0, 1, 1, 0): Fraction(-2, 5),
                                       (1, 0, 0, 0): 7})
    for d in [q_form(2), q_form(3), q_form(4), rational]:
        n = d.nvars
        for _ in range(60):
            a, b, c = (random_operand(rng, Poly, dens, n) for _ in range(3))
            p = a * b + c if rng.randrange(2) else a * d + c
            got = normal_form_mod_single(p, d)
            for part, want in zip(got, normal_form_by_max(p, d)):
                assert part.terms == want.terms, (p, d)
                assert ([type(v) for v in part.terms.values()]
                        == [type(want.terms[m]) for m in part.terms]), (p, d)
            assert got[0] * d + got[1] == p


def random_operand(rng, cls, dens, n=4):
    """Up to six terms, each coefficient +-1..9 over a denominator drawn
    from dens; one time in three a sum adds a term whose coefficient is an
    integral Fraction.  A word has up to two letters, at k = n // 2."""
    def key():
        if cls is GenWord:
            return tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 2)))
        mono = [pack(tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(2)]
        return mono[0] if cls is Poly else mono[1] << halves(n)[0] | mono[0]
    if cls is GenWord:
        n //= 2
    out = cls(n, {key(): qdiv(rng.choice((-1, 1)) * rng.randint(1, 9),
                              rng.choice(dens))
                  for _ in range(rng.randint(0, 6))})
    if rng.randrange(3) == 0:
        half = cls(n, {key(): Fraction(rng.randrange(1, 9, 2), 2)})
        out = out + half + half
    return out


def cancelling_products(cls):
    """Pairs whose product cancels terms: (u/2 + v/3)(u/2 - v/3), where the
    cross terms cancel (the Weyl exchange leaves 1/6; the words u and v = uu
    commute), and products with 0."""
    n = 4
    if cls is Poly:
        u, v = Poly.var(n, 0), Poly.var(n, 3)
    elif cls is WeylOp:
        u, v = WeylOp.mult(Poly.var(n, 0)), WeylOp.partial(n, 0)
    else:
        n = 2
        u = GenWord.letter(n, ("x", 1))
        v = u * u
    a, b = u.scale(Fraction(1, 2)), v.scale(Fraction(1, 3))
    return [(a + b, a - b), (a - b, a + b), (a + b, cls.zero(n)),
            (cls.zero(n), cls.zero(n))]


def exchange_boundaries():
    """WeylOp pairs at the boundaries of the exchange kernel, and pairs at
    the exponent bound whose product and commutator overflow.

    The pairs that multiply: a left factor whose rows are all
    derivative-free and one where only some are; a one-term factor on
    either side; exchange terms that cancel a t = 0 term, the 1 of
    dx1 x1 against that of 1 * -1 in (dx1 + 1)(x1 - 1), and the dx1 of
    dx1 x1 dx1 against -dx1 in dx1 (x1 dx1 - 1); and the right factor
    x1^EMAX, whose products with dx1 and dx2 stay at the bound (a left
    factor at the bound would overflow its own commutator).  The kernels
    do not check degrees, so only the bound that ``_bilinear`` checks
    first can raise."""
    n = 4
    x = [WeylOp.mult(Poly.var(n, i)) for i in range(n)]
    d = [WeylOp.partial(n, i) for i in range(n)]
    third = Fraction(1, 3)
    mixed = x[0] * d[0] + x[1] * d[0] * d[2] - d[1] * d[3].scale(third)
    free = x[0] * x[0].scale(third) + x[1] * x[2] + 1
    partly = free + x[0] * d[0] * d[1] + d[2].scale(third)
    one = (x[1] * d[0] * d[0]).scale(Fraction(-2, 5))
    top = WeylOp.mult(Poly.monomial((EMAX, 0, 0, 0)))
    dtop = WeylOp.from_exponents(n, {((0,) * n, (0, 0, EMAX, 0)): 1})
    exact = [(free, mixed), (partly, mixed), (mixed, partly), (one, mixed),
             (mixed, one), (one, free), (free, one), (d[0] + 1, x[0] - 1),
             (d[0], x[0] * d[0] - 1), (d[0], top), (d[1], top)]
    overflowing = [(top, x[1]), (x[1], top), (top, free), (dtop, d[2]),
                   (d[0], dtop), (dtop, mixed)]
    return exact, overflowing


@pytest.mark.parametrize("cls,oracle", [(Poly, poly_mul_pairwise),
                                        (WeylOp, weyl_mul_pairwise),
                                        (GenWord, genword_mul_pairwise)],
                         ids=["Poly", "WeylOp", "GenWord"])
def test_product_matches_pairwise_oracle(cls, oracle):
    rng = random.Random(1901)
    pairs = cancelling_products(cls)
    if cls is WeylOp:
        exact, overflowing = exchange_boundaries()
        pairs += exact
        for a, b in overflowing:
            with pytest.raises(ExponentOverflow):
                a * b
    for i in range(320):
        # every pair of denominator sets, int x Fraction among them
        da, db = DENOMINATORS[i % 4], DENOMINATORS[i // 4 % 4]
        pairs.append((random_operand(rng, cls, da),
                      random_operand(rng, cls, db)))
    integral_fractions = 0
    for a, b in pairs:
        got = a * b
        assert got == oracle(a, b), (a, b)
        # an int exactly where the coefficient is integral, and no zero
        assert all(c and (type(c) is int) == (c.denominator == 1)
                   for c in got.terms.values()), got.terms
        integral_fractions += any(type(c) is Fraction and c.denominator == 1
                                  for c in chain(a.terms.values(),
                                                 b.terms.values()))
    assert integral_fractions >= 50
    # the cross terms cancel: u^2/4 - v^2/9, and 1/6 from the exchange
    (a, b), *_ = cancelling_products(cls)
    assert len((a * b).terms) == (3 if cls is WeylOp else 2)


def test_products_make_no_fraction_addition(monkeypatch):
    # int or Fraction is told by the type of each coefficient; a sum of the
    # coefficients would add Fractions, one addition per coefficient
    half, third = Fraction(1, 2), Fraction(-2, 3)
    p = Poly.from_exponents(4, {(1, 0, 0, 0): half, (0, 1, 0, 0): third,
                                (0, 0, 1, 1): 3})
    q = Poly.from_exponents(4, {(1, 1, 0, 0): Fraction(5, 7),
                                (0, 0, 0, 2): half, (0, 0, 0, 0): 2})
    mono = Poly.from_exponents(4, {(0, 1, 1, 0): Fraction(3, 4)})
    a = WeylOp.from_exponents(4, {((1, 0, 0, 0), (0, 1, 0, 0)): half,
                                  ((0, 0, 0, 0), (1, 0, 0, 0)): third,
                                  ((0, 1, 0, 0), (0, 0, 0, 0)): 5})
    b = WeylOp.from_exponents(4, {((0, 1, 0, 0), (1, 0, 0, 0)): third,
                                  ((1, 0, 0, 0), (0, 0, 0, 1)): 4,
                                  ((0, 0, 0, 0), (0, 1, 0, 0)): half})
    g = GenWord(2, {(("x", 1),): half, (("y", 2), ("XX", 1)): third,
                    (): 3})
    h = GenWord(2, {(("XX", 1),): Fraction(5, 7), (): half})
    additions = []
    for name in ("__add__", "__radd__"):
        def counting(x, y, _add=getattr(Fraction, name)):
            additions.append((x, y))
            return _add(x, y)
        monkeypatch.setattr(Fraction, name, counting)
    products = [p * q, mono * q, q * mono, a * b, a.commutator(b), g * h]
    assert additions == []
    assert all(products)
    assert half + third == Fraction(-1, 6) and len(additions) == 1


def test_commutator_matches_product_oracle():
    rng = random.Random(2003)
    x = [WeylOp.mult(Poly.var(4, i)) for i in range(4)]
    d = [WeylOp.partial(4, i) for i in range(4)]
    # no term of one operand meets a term of the other
    apart = (x[0] * d[0] + x[1] * d[3], x[2] * d[3] * d[3])
    pairs = cancelling_products(WeylOp) + [
        apart, (x[0], d[0]), (d[0], x[0]), (x[0], WeylOp.zero(4)),
        (WeylOp.zero(4), d[0]),
        (WeylOp.const(4, Fraction(1, 3)), x[0] * d[0] + d[3])]
    exact, overflowing = exchange_boundaries()
    pairs += exact
    for a, b in overflowing:
        with pytest.raises(ExponentOverflow):
            a.commutator(b)
    for i in range(320):
        # every pair of denominator sets, int x Fraction among them
        da, db = DENOMINATORS[i % 4], DENOMINATORS[i // 4 % 4]
        pairs.append((random_operand(rng, WeylOp, da),
                      random_operand(rng, WeylOp, db)))
    for a, b in pairs:
        got = a.commutator(b)
        assert got == commutator_by_products(a, b), (a, b)
        # an int exactly where the coefficient is integral, and no zero
        assert all(c and (type(c) is int) == (c.denominator == 1)
                   for c in got.terms.values()), got.terms
        assert a.commutator(a).is_zero()
    assert x[0].commutator(d[0]) == WeylOp.const(4, -1)
    assert apart[0].commutator(apart[1]).is_zero()
    with pytest.raises(ValueError):
        d[0].commutator(WeylOp.partial(2, 0))


def numerator_form_faults(num) -> list:
    """What is wrong with the numerator form (d, nums) of a term map: it
    must have nonzero int numerators and an int denominator d > 1, and be
    in lowest terms, so that it is the one such pair of its values."""
    d, nums = num
    return [fault for fault, ok in (
        ("a numerator that is not a nonzero int",
         all(type(c) is int and c for c in nums.values())),
        ("a denominator that is not an int above 1", type(d) is int and d > 1),
        ("not in lowest terms", gcd(d, *nums.values()) == 1)) if not ok]


@pytest.mark.parametrize("cls", [Poly, WeylOp, GenWord],
                         ids=["Poly", "WeylOp", "GenWord"])
def test_numerator_form_matches_the_eager_oracle(cls):
    """Products kept in numerator form, and the sums, differences,
    negations, scalings, commutators, quotients and remainders of them,
    against the same operations on the values of the eager oracle: equal
    values, and each coefficient of the oracle's type, an int exactly
    where it is integral."""
    rng = random.Random(5107)
    dens = tuple(range(1, 13))
    n = 4
    divisors = []
    if cls is not GenWord:
        rational = Poly.from_exponents(n, {(1, 0, 0, 1): Fraction(3, 2),
                                           (0, 1, 1, 0): Fraction(-2, 5)})
        divisors = [(q_form(2), 1), (rational, 1)]
        if cls is WeylOp:
            divisors.append((q_form(2), 1 << halves(n)[0]))
    forms = 0

    def check(got, want):
        nonlocal forms
        if got._num is not None:
            # the pair, compared with maps of values before its own are read
            forms += 1
            assert numerator_form_faults(got._num) == [], got._num
            d, nums = got._num
            values = cls(got.nvars, {key: Fraction(c, d)
                                     for key, c in nums.items()})
            assert got == values and values == got
            # twice the map, over half the denominator when d is even
            assert got.scale(2) != got and got != values.scale(2)
            assert hash(got) == hash(values)
            assert got == cls(got.nvars, got.terms)
        assert got == want and want == got
        assert got.terms == want.terms
        assert ([type(c) for c in got.terms.values()]
                == [type(want.terms[key]) for key in got.terms])
        assert all(type(c) is int or c.denominator != 1
                   for c in got.terms.values()), got.terms

    kernel = cls._product
    for i in range(40):
        a, b, c = (random_operand(rng, cls, dens) for _ in range(3))
        if i % 4 == 0:
            # a scaled by both denominators: a * b comes out integral
            a = a.scale(numerators(b)[0] * numerators(a)[0])
        m = a.nvars
        p, r = a * b, c * a
        ep, er = bilinear_eager(a, b, kernel), bilinear_eager(c, a, kernel)
        check(p, ep)
        check(r, er)
        check(p * c, bilinear_eager(ep, c, kernel))
        if cls is WeylOp:
            check(p.commutator(c), bilinear_eager(ep, c, weyl._commutator_terms))
        check(p + r, cls(m, add_terms(dict(ep.terms), er.terms.items())))
        check(p - r, cls(m, add_terms(dict(ep.terms),
                                      ((k, -v) for k, v in er.terms.items()))))
        check(p - p, cls.zero(m))
        check(-p, cls(m, {k: -v for k, v in ep.terms.items()}))
        s = Fraction(rng.choice((-1, 1)) * rng.randint(0, 12), rng.choice(dens))
        check(p.scale(s), cls(m, {k: s * v for k, v in ep.terms.items()}))
        den = numerators(p)[0]
        check(p.scale(den), cls(m, {k: den * v for k, v in ep.terms.items()}))
        check(p * cls.zero(m), cls.zero(m))
        for d, scale in divisors:
            for got, want in zip(normal_form_mod_single(p, d, scale),
                                 normal_form_eager(ep, d, scale)):
                check(got, want)
    assert forms > 100


# where each class keeps its coefficients
COEFFICIENTS = {
    Poly: lambda p: p.terms.values(),
    WeylOp: lambda w: w.terms.values(),
    GenWord: lambda g: g.terms.values(),
    LieElt: lambda x: chain([x.alpha],
                            (c for _, c in chain(x.mu, x.X, x.lam))),
    GroupElt: lambda g: chain(*g.m),
}


def walk_suite_objects() -> dict:
    """Inspect every coefficient-holding object that run_suite("all", 2) builds,
    and the blocks of every Lie element; a term map in numerator form has
    that form checked before its values are read.

    Each class's ``__new__`` is hooked so that building an object first
    inspects the previous object of that class, which is complete by then:
    no constructor of these classes builds another object of its own class.
    A hooked ``__new__`` cannot be fully undone in CPython, so this runs in
    a process of its own (see the test below).
    """
    last: dict = {}
    seen = dict.fromkeys(COEFFICIENTS, 0)
    forms = 0
    bad = []

    def inspect(cls, obj):
        nonlocal forms
        try:
            num = obj._num if cls in (Poly, WeylOp, GenWord) else None
            if num is not None:
                forms += 1
                bad.extend(f"{cls.__name__} numerator form {num!r}: {fault}"
                           for fault in numerator_form_faults(num))
            coeffs = list(COEFFICIENTS[cls](obj))
        except AttributeError:
            return  # its constructor raised before the object was complete
        seen[cls] += len(coeffs)
        bad.extend(f"{cls.__name__}: {c!r}" for c in coeffs
                   if type(c) not in (int, Fraction))
        if cls is LieElt and not blocks_are_canonical(obj):
            bad.append(f"LieElt: {obj!r}")

    def hook(cls):
        def new(subcls, *args, **kwargs):
            if cls in last:
                inspect(cls, last[cls])
            obj = object.__new__(subcls)
            last[cls] = obj
            return obj
        return staticmethod(new)

    for cls in COEFFICIENTS:
        cls.__new__ = hook(cls)
    report = run_suite("all", 2)
    for cls, obj in last.items():
        inspect(cls, obj)
    return {"exit_status": report.exit_status, "bad": bad[:20],
            "seen": {cls.__name__: count for cls, count in seen.items()},
            "numerator forms": forms}


def test_suite_objects_hold_only_int_or_fraction():
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit_status"] == 0
    assert result["bad"] == []
    assert all(result["seen"].values()), result["seen"]
    assert result["numerator forms"] > 0


if __name__ == "__main__":
    print(json.dumps(walk_suite_objects()))
