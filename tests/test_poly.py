"""Polynomial core: arithmetic, normal forms, and the Q-Laurent class."""

import time
from fractions import Fraction
from operator import add, le

import pytest
from hypothesis import given, settings, strategies as st

from oracles import monomials_up_to
from quadricops import poly
from quadricops.harmonic import harmonic_decompose
from quadricops.poly import (EMAX, ExponentOverflow, Poly, QLaurent, add_terms,
                             divides_exactly, guard, mdegree,
                             normal_form_mod_single, pack, q_form, reduce_mod,
                             support, unit, unpack)
from quadricops.weyl import WeylOp

K = 2
N = 2 * K


def monomials(nvars=N, deg=4):
    return st.tuples(*[st.integers(0, deg // 2) for _ in range(nvars)]).filter(
        lambda m: sum(m) <= deg)


def polys(nvars=N, deg=4):
    return st.dictionaries(
        monomials(nvars, deg),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        max_size=5,
    ).map(lambda d: Poly.from_exponents(nvars, d))


def test_leading_term_of_dual_form():
    # graded lex with x1 > x2 > y1 > y2 makes x1*y2 the leading monomial
    q = q_form(K)
    m, c = q.leading()
    assert m == (1, 0, 0, 1)
    assert c == 1


def test_normal_form_example():
    # x1*y2 reduces to -x2*y1 modulo the dual form
    p = Poly.monomial((1, 0, 0, 1))
    quo, rem = normal_form_mod_single(p, q_form(K))
    assert rem == Poly.monomial((0, 1, 1, 0), -1)
    assert quo * q_form(K) + rem == p


def test_divides_exactly():
    q = q_form(K)
    p = Poly.monomial((2, 0, 1, 0), Fraction(3, 2))
    assert divides_exactly(q, q * p) == p
    assert divides_exactly(q, p + Poly.const(N, 1)) is None


def test_qlaurent_basic():
    q = q_form(K)
    f = QLaurent(K, q * Poly.var(N, 0), 1)
    assert f.is_poly()
    assert f == QLaurent(K, Poly.var(N, 0), 0)
    inv = QLaurent.one_over_q(K)
    assert (inv * QLaurent(K, q, 0)) == QLaurent(K, Poly.const(N, 1), 0)


def test_qlaurent_numerator_must_live_in_the_ring_of_q():
    # x1 in 4 variables is no numerator at k=3, even with no power of Q
    for k, num, qexp in ((3, Poly.var(4, 0), 0), (3, Poly.var(4, 0), 1),
                         (2, Poly.zero(6), 0), (1, Poly.const(4, 1), 0)):
        with pytest.raises(ValueError, match="variables"):
            QLaurent(k, num, qexp)
    assert QLaurent(1, Poly.var(2, 0), 0).text() == "x1"


def test_qlaurent_quotient_rule():
    # d/dx1 (1/Q) = -y2/Q^2
    inv = QLaurent.one_over_q(K)
    d = inv.deriv(0)
    assert d == QLaurent(K, Poly.var(N, 3, -1), 2)


@settings(max_examples=25, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == Poly.zero(N)


@settings(max_examples=25, deadline=None)
@given(polys())
def test_normal_form_idempotent(p):
    q = q_form(K)
    r = normal_form_mod_single(p, q)[1]
    assert normal_form_mod_single(r, q)[1] == r


@settings(max_examples=25, deadline=None)
@given(polys())
def test_multiples_reduce_to_zero(p):
    q = q_form(K)
    assert reduce_mod(q * p, q).is_zero()


@settings(max_examples=25, deadline=None)
@given(polys(), st.integers(0, 2), st.integers(0, 2))
def test_qlaurent_normalization_unique(p, a, b):
    q = q_form(K)
    lhs = QLaurent(K, p * q ** a, a)
    rhs = QLaurent(K, p * q ** b, b)
    assert lhs == rhs
    assert lhs.num == rhs.num and lhs.qexp == rhs.qexp


def test_text_and_json_roundtrip():
    p = Poly.from_exponents(N, {(1, 0, 0, 1): Fraction(3, 2),
                                (0, 0, 0, 0): Fraction(-1)})
    assert p.to_json() == [
        {"exponents": [1, 0, 0, 1], "num": 3, "den": 2},
        {"exponents": [0, 0, 0, 0], "num": -1, "den": 1}]
    assert "3/2" in p.text()


def test_subs_vars_takes_one_image_per_variable_in_one_ring():
    p = Poly.var(N, 0) * Poly.var(N, 1) + 2
    images = [Poly.var(3, i % 3) for i in range(N)]
    assert p.subs_vars(images) == Poly.var(3, 0) * Poly.var(3, 1) + 2
    for bad in ([Poly.var(6, 0)],                                  # too few
                images + [Poly.var(3, 0)],                         # too many
                [Poly.var(6, 0)] * (N - 1) + [Poly.var(5, 0)]):    # two rings
        with pytest.raises(ValueError, match="images in one ring"):
            p.subs_vars(bad)


def test_eval_takes_one_coordinate_per_variable():
    # zip would skip the variables a short point lacks, reading their
    # factors as 1, and drop a long point's tail
    assert Poly.var(4, 3).eval((1, 2, 3, Fraction(1, 2))) == Fraction(1, 2)
    for p, point in ((Poly.var(4, 3), (1, 2)),
                     (Poly.var(4, 0), (5, 2, 3, 4, 9, 9)),
                     (Poly.const(4, 7), ())):
        with pytest.raises(ValueError, match="needs 4 coordinates"):
            p.eval(point)


def test_add_terms_adds_in_place_and_drops_cancelled_keys():
    terms = {1: 2, 3: Fraction(1, 2)}
    out = add_terms(terms, [(1, -2), (4, 0), (3, Fraction(1, 2)), (5, 7)])
    assert out is terms and list(terms.items()) == [(3, 1), (5, 7)]


def test_constructor_rejects_tuple_keys():
    with pytest.raises(TypeError, match="from_exponents"):
        Poly(N, {(1, 0, 0, 0): 1})
    # packed for 3 variables, this key would read as x1*x2 of degree 0
    with pytest.raises(ValueError, match="from_exponents"):
        Poly(N, {pack((1, 0, 0)): 1})
    assert Poly.from_exponents(N, {(1, 0, 0, 0): 1}) == Poly.var(N, 0)


# -- packed exponent vectors --------------------------------------------------


@st.composite
def exponent_vectors(draw, count=1, top=EMAX):
    """count exponent tuples of one width whose total degrees sum to <= top."""
    n = draw(st.integers(1, 8))
    cap = top // (n * count)
    return tuple(tuple(draw(st.lists(st.integers(0, cap), min_size=n, max_size=n)))
                 for _ in range(count))


@settings(max_examples=200, deadline=None)
@given(exponent_vectors())
def test_pack_unpack_roundtrip(vecs):
    (m,) = vecs
    n = len(m)
    assert unpack(pack(m), n) == m
    assert mdegree(pack(m), n) == sum(m)
    assert pack(m) == sum(e * unit(n, i) for i, e in enumerate(m))


def test_pack_extremes():
    for m in [(EMAX,), (EMAX, 0, 0), (0, 0, EMAX), (0,) * 6]:
        assert unpack(pack(m), len(m)) == m
    with pytest.raises(ExponentOverflow):
        pack((EMAX, 1))
    with pytest.raises(ValueError):
        pack((1, -1))
    with pytest.raises(ValueError):
        pack((1, 0), 3)


def test_monomials_up_to():
    ms = list(monomials_up_to(2, 2))
    assert sorted(ms) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_monomials_are_the_graded_piece_in_graded_lex_order(n):
    for d in range(-2, 7):
        # the reference's tuples of degree d, packed in its own order
        ref = [pack(m) for m in monomials_up_to(n, d) if sum(m) == d]
        assert poly.monomials(n, d) == ref == sorted(ref)


def test_monomials_refuse_a_degree_past_the_bound_at_once():
    start = time.perf_counter()
    for n in (1, 4):
        with pytest.raises(ExponentOverflow):
            poly.monomials(n, EMAX + 1)
    with pytest.raises(ExponentOverflow):
        harmonic_decompose(EMAX + 1, 1)
    assert time.perf_counter() - start < 0.1


@settings(max_examples=200, deadline=None)
@given(exponent_vectors(count=2))
def test_packed_sum_is_tuple_sum(vecs):
    a, b = vecs
    assert pack(a) + pack(b) == pack(tuple(map(add, a, b)))


@settings(max_examples=300, deadline=None)
@given(exponent_vectors(count=2, top=48))
def test_guard_test_is_divisibility(vecs):
    a, b = vecs
    n = len(a)
    assert ((pack(b) - pack(a)) & guard(n) == 0) == all(map(le, a, b))


@settings(max_examples=300, deadline=None)
@given(exponent_vectors(count=2, top=48))
def test_int_order_is_graded_lex(vecs):
    a, b = vecs
    assert (pack(a) < pack(b)) == ((sum(a), a) < (sum(b), b))


@settings(max_examples=200, deadline=None)
@given(exponent_vectors(count=2, top=48))
def test_support_meets_on_shared_variables(vecs):
    a, b = vecs
    n = len(a)
    shared = any(x and y for x, y in zip(a, b))
    assert bool(support(pack(a), n) & support(pack(b), n)) == shared


def test_exponent_overflow_raises():
    x = Poly.var(4, 0)
    assert (x ** EMAX).leading() == ((EMAX, 0, 0, 0), 1)
    with pytest.raises(ExponentOverflow):
        x ** 40000
    with pytest.raises(ExponentOverflow):
        Poly.monomial((EMAX + 1, 0, 0, 0))
    with pytest.raises(ExponentOverflow):
        Poly.monomial((EMAX, 0, 0, 0)) * Poly.var(4, 3)
    top = WeylOp.mult(Poly.monomial((EMAX, 0, 0, 0)))
    with pytest.raises(ExponentOverflow):
        top * WeylOp.mult(x)
    with pytest.raises(ExponentOverflow):
        WeylOp.partial(4, 1) ** (EMAX + 1)
    with pytest.raises(ExponentOverflow):
        WeylOp.mult(x).apply(Poly.monomial((0, EMAX, 0, 0)))
