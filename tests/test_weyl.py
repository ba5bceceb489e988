"""Weyl algebra: normal orders, divisions, symbols, extensional tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (apply_by_buckets, apply_by_quotient_rule, apply_termwise,
                     canonical_by_buckets, divide_right_by_constcoef_by_buckets,
                     divide_right_by_mult_by_buckets, dleft_by_buckets,
                     exponent_items, from_dleft, weyl_sorted_terms)
from quadricops.coneops import ConeOp, rho_tilde
from quadricops.harmonic import laplacian_qlaurent
from quadricops.lie import basis
from quadricops.poly import (EMAX, FIELD, ExponentOverflow, Poly, QLaurent,
                             guard, pack, q_form, qdiv, unpack)
from quadricops.weyl import (NotDivisible, WeylOp, euler_op, halves,
                             is_zero_extensional, laplacian_op, reorder)

K = 2
N = 2 * K


def weyl_ops(nvars=N, deg=2):
    expvec = st.tuples(*[st.integers(0, 1) for _ in range(nvars)]).filter(
        lambda m: sum(m) <= deg)
    return st.dictionaries(
        st.tuples(expvec, expvec),
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
        max_size=4,
    ).map(lambda d: WeylOp.from_exponents(nvars, d))


def small_polys():
    mono = st.tuples(*[st.integers(0, 2) for _ in range(N)]).filter(
        lambda m: sum(m) <= 4)
    return st.dictionaries(
        mono, st.fractions(min_value=-6, max_value=6, max_denominator=3),
        max_size=4).map(lambda d: Poly.from_exponents(N, d))


@pytest.mark.parametrize("elements", [small_polys(), weyl_ops()],
                         ids=["Poly", "WeylOp"])
@given(data=st.data())
def test_linear_structure_and_powers(elements, data):
    a, b = data.draw(elements), data.draw(elements)
    c = data.draw(st.one_of(st.integers(-5, 5),
                            st.fractions(-5, 5, max_denominator=4))
                  .filter(bool))
    powers = [type(a).const(N, 1)]
    for _ in range(4):
        powers.append(powers[-1] * a)
    assert [a ** n for n in range(5)] == powers
    assert (a - b) + b == a and -(-a) == a
    assert c + a == a + c and c - a == -(a - c)
    back = a.scale(c).scale(qdiv(1, c))
    assert back == a and hash(back) == hash(a)


def test_canonical_commutator():
    # [Delta, Q] = E + k as operators
    lap, q, e = laplacian_op(K), WeylOp.mult(q_form(K)), euler_op(K)
    assert lap * q - q * lap == e + WeylOp.const(N, K)


def test_laplacian_of_form():
    assert laplacian_op(K).apply(q_form(K)) == Poly.const(N, K)


def test_principal_symbol_of_laplacian():
    # symbol variables: base block then fiber block; sigma(Delta) = Q(fiber)
    sym = laplacian_op(K).principal_symbol()
    fiber = Poly.from_exponents(4 * K, {(0,) * N + m: c for m, c
                                        in exponent_items(q_form(K))})
    assert sym == fiber


def test_divide_right_by_mult():
    q = q_form(K)
    a = euler_op(K) * WeylOp.mult(q)
    quo = a.divide_right_by_mult(q)
    assert quo * WeylOp.mult(q) == a
    with pytest.raises(NotDivisible):
        euler_op(K).divide_right_by_mult(q)


def test_divide_right_by_constcoef():
    lap = laplacian_op(K)
    a = (euler_op(K) + WeylOp.const(N, 3)) * lap
    quo = a.divide_right_by_constcoef(lap)
    assert quo * lap == a
    # a bare first-order derivative is not a right multiple of the Laplacian
    with pytest.raises(NotDivisible):
        WeylOp.partial(N, N - 1).divide_right_by_constcoef(lap)
    # a divisor in another ring is refused, not read in the wrong layout
    for w in (euler_op(K), WeylOp.zero(N)):
        with pytest.raises(ValueError, match="different variable sets"):
            w.divide_right_by_constcoef(laplacian_op(K + 1))
        with pytest.raises(ValueError, match="different variable sets"):
            w.divide_right_by_mult(q_form(K + 1))


def test_local_operator_on_laurent():
    # Delta Q^s = s (s + k - 1) Q^(s-1): Delta(1/Q) = (2 - k)/Q^2
    for k in (2, 3):
        f = QLaurent.one_over_q(k)
        val = apply_by_quotient_rule(laplacian_op(k), f)
        assert val == QLaurent(k, Poly.const(2 * k, 2 - k), 2)
        assert laplacian_qlaurent(f) == val


@settings(max_examples=20, deadline=None)
@given(weyl_ops(), weyl_ops(), weyl_ops())
def test_weyl_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=20, deadline=None)
@given(weyl_ops(), weyl_ops(), small_polys())
def test_weyl_module_action(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=20, deadline=None)
@given(weyl_ops(), small_polys())
def test_quotient_rule_oracle_agrees_on_polynomials(a, f):
    got = apply_by_quotient_rule(a, QLaurent.from_poly(f))
    assert got == QLaurent.from_poly(a.apply(f))


def test_apply_rejects_laurent_functions():
    # the Q-Laurent class has its own Laplacian, harmonic.laplacian_qlaurent
    with pytest.raises(TypeError, match="QLaurent"):
        laplacian_op(K).apply(QLaurent.one_over_q(K))


def random_exponents(rng, n, deg):
    m = [0] * n
    for _ in range(rng.randint(0, deg)):
        m[rng.randrange(n)] += 1
    return tuple(m)


def random_coef(rng):
    c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return c or 1


def assert_applies_as_termwise(op, f):
    got = op.apply(f)
    assert got == apply_termwise(op, f)
    # the trusted constructor keeps no zero coefficient
    assert all(got.terms.values())
    return got


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_matches_termwise_oracle(k):
    rng, n = random.Random(k), 2 * k
    for _ in range(120):
        # a few derivative parts, each shared by several terms
        betas = [random_exponents(rng, n, 3) for _ in range(rng.randint(1, 4))]
        op = WeylOp.from_exponents(n, {
            (random_exponents(rng, n, 2), rng.choice(betas)): random_coef(rng)
            for _ in range(rng.randint(1, 10))})
        f = Poly.from_exponents(n, {
            random_exponents(rng, n, 5): random_coef(rng)
            for _ in range(rng.randint(1, 8))})
        assert_applies_as_termwise(op, f)
        m, _ = next(exponent_items(f))
        assert_applies_as_termwise(op, Poly.monomial(m))


def test_apply_edge_cases():
    x1, x2, y1, y2 = (Poly.var(N, i) for i in range(N))
    d = [WeylOp.partial(N, i) for i in range(N)]
    mult = WeylOp.mult
    # no derivative part divides a monomial of f: by degree, by exponent,
    # and by neither although it divides the fieldwise maximum
    assert assert_applies_as_termwise(d[0] * d[1], x1 + x2).is_zero()
    assert assert_applies_as_termwise(d[2] + mult(x1) * d[3],
                                      x1 * x2).is_zero()
    assert assert_applies_as_termwise(d[0] * d[1], x1 ** 2 + x2 ** 2).is_zero()
    # terms sharing a derivative part, with Fraction coefficients
    shared = mult(x1.scale(Fraction(1, 2)) + y2 + Fraction(-3, 4))
    got = assert_applies_as_termwise(shared * d[0] * d[2],
                                     (x1 * y1).scale(Fraction(2, 3)))
    assert got == (x1.scale(Fraction(1, 3)) + y2.scale(Fraction(2, 3))
                   + Fraction(-1, 2))
    # cancellation to zero across derivative parts, and of x1*x2 within the
    # derivative part of y1
    assert assert_applies_as_termwise(mult(x1) * d[0] - mult(x2) * d[1],
                                      x1 * x2).is_zero()
    assert assert_applies_as_termwise(mult(x1 - x2) * d[2],
                                      (x1 + x2) * y1) == x1 ** 2 - x2 ** 2


def assert_applies_as_buckets(op, f):
    """op.apply(f) equals the bucket oracle as a value and as text, with
    every coefficient an int or a Fraction, or both overflow."""
    try:
        want = apply_by_buckets(op, f)
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow):
            op.apply(f)
        return None
    got = op.apply(f)
    assert got == want and got.text() == want.text()
    assert {type(c) for c in got.terms.values()} <= {int, Fraction}
    return got


@pytest.mark.parametrize("coef", ["int", "fraction"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_apply_matches_the_bucket_oracle(k, coef):
    rng, n = random.Random(f"{k}-{coef}"), 2 * k
    draw = (random_coef if coef == "fraction"
            else lambda rng: rng.randint(-4, 4) or 1)
    for _ in range(60):
        betas = [random_exponents(rng, n, 3) for _ in range(rng.randint(1, 5))]
        op = WeylOp.from_exponents(n, {
            (random_exponents(rng, n, 2), rng.choice(betas)): draw(rng)
            for _ in range(rng.randint(1, 10))})
        f = Poly.from_exponents(n, {
            random_exponents(rng, n, 4): draw(rng)
            for _ in range(rng.randint(0, 6))})
        assert_applies_as_buckets(op, f)
        # f raised near the exponent bound in one variable: some terms fit,
        # some overflow, and both kernels must agree on which
        i, r = rng.randrange(n), rng.randint(0, 2)
        top = Poly.monomial(tuple(EMAX - 6 + r if j == i else 0
                                  for j in range(n)))
        assert_applies_as_buckets(op, f * top)
    # R_m = Q Delta - m E + m(m+1-k), whose derivative parts of order two
    # hold k terms each, on f of many terms and on a constant f, which every
    # term of order one or two skips
    qlap = WeylOp.mult(q_form(k)) * laplacian_op(k)
    for m in range(1, 5):
        rm = qlap - euler_op(k).scale(m) + m * (m + 1 - k)
        f = Poly.from_exponents(n, {random_exponents(rng, n, 5): draw(rng)
                                    for _ in range(24)})
        assert_applies_as_buckets(rm, f)
        assert_applies_as_buckets(rm, Poly.const(n, draw(rng)))


def test_apply_skips_the_terms_above_the_top_key():
    x1, x2, y1, y2 = (Poly.var(N, i) for i in range(N))
    d = [WeylOp.partial(N, i) for i in range(N)]
    mult = WeylOp.mult
    f = x1 * y1 + x2.scale(3)
    # terms above the top key x1*y1 of f: d_x1^2 has its degree and a larger
    # key, d_x1^3 a larger degree; d_x1 d_y1 and d_x2 divide a monomial
    op = (mult(x2) * d[0] * d[0] + d[0] * d[0] * d[0]
          + mult(y2) * d[0] * d[2] + mult(x1) * d[1])
    assert assert_applies_as_buckets(op, f) == y2 + x1.scale(3)
    # the term of the top key itself, alone
    assert assert_applies_as_buckets(d[0] * d[2], f) == Poly.const(N, 1)
    # the zero f and a constant f: only the terms of beta = 0 act on 1
    assert assert_applies_as_buckets(op + mult(y1), Poly.zero(N)).is_zero()
    got = assert_applies_as_buckets(op + mult(y1 - 2),
                                    Poly.const(N, Fraction(1, 2)))
    assert got == y1.scale(Fraction(1, 2)) - 1


def test_apply_bounds_degrees_by_the_kept_terms_only():
    x1, x2 = Poly.var(N, 0), Poly.var(N, 1)
    d = [WeylOp.partial(N, i) for i in range(N)]
    huge = WeylOp.mult(Poly.monomial((EMAX, 0, 0, 0)))
    # x1^EMAX d_y2 kills every monomial of f, so its degree cannot overflow
    f = x1 ** 2 + x1 * x2
    got = assert_applies_as_termwise(huge * d[3] + WeylOp.mult(x2) * d[0], f)
    assert got == x2 * (x1.scale(2) + x2)
    # once its derivative part divides a monomial of f, it overflows
    with pytest.raises(ExponentOverflow):
        (huge * d[1]).apply(f)


def test_apply_bounds_degrees_by_the_divided_monomials_only():
    x1, x2 = Poly.var(N, 0), Poly.var(N, 1)
    d = [WeylOp.partial(N, i) for i in range(N)]
    # d_x1 d_x2 divides the fieldwise maximum x1^2 x2^2 of f but no monomial
    # of it, so x1^EMAX d_x1 d_x2 sends f to 0
    op = WeylOp.mult(Poly.monomial((EMAX, 0, 0, 0))) * d[0] * d[1]
    assert assert_applies_as_termwise(op, x1 ** 2 + x2 ** 2).is_zero()
    # d_x1 lowers the degree that x1^(EMAX-1) raises: degree EMAX at most
    op = WeylOp.mult(Poly.monomial((EMAX - 1, 0, 0, 0))) * d[0]
    got = assert_applies_as_termwise(op, x1 * x2 + x1)
    assert got == Poly.monomial((EMAX - 1, 1, 0, 0)) + Poly.monomial(
        (EMAX - 1, 0, 0, 0))
    # one degree more and the result overflows
    with pytest.raises(ExponentOverflow):
        op.apply(x1 ** 2 * x2)


@settings(max_examples=20, deadline=None)
@given(weyl_ops())
def test_normal_order_roundtrip(a):
    assert reorder(reorder(a.terms, N, -1), N, 1) == a.terms
    assert from_dleft(N, dleft_by_buckets(a)) == a


@settings(max_examples=20, deadline=None)
@given(weyl_ops())
def test_division_multiply_back(a):
    q = q_form(K)
    w = a * WeylOp.mult(q)
    assert w.divide_right_by_mult(q) * WeylOp.mult(q) == w
    lap = laplacian_op(K)
    w2 = a * lap
    assert w2.divide_right_by_constcoef(lap) * lap == w2


@settings(max_examples=30, deadline=None)
@given(weyl_ops(), weyl_ops())
def test_symbol_multiplicative(a, b):
    ab = a * b
    if not a.is_zero() and not b.is_zero() \
            and ab.order() == a.order() + b.order():
        assert ab.principal_symbol() == a.principal_symbol() * b.principal_symbol()


def test_extensional_determinacy():
    lap = laplacian_op(K)
    assert is_zero_extensional(lap - lap)
    assert not is_zero_extensional(lap)
    # an operator agreeing with E on all low-degree monomials equals E
    e = euler_op(K)
    mimic = WeylOp(N, dict(e.terms))
    assert is_zero_extensional(mimic - e)


def test_constructor_rejects_tuple_keys():
    key = ((0, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(TypeError, match="from_exponents"):
        WeylOp(4, {key: 1})
    # d_x1 packed in 3 variables reads as x1 x2 of degree 0 in 4
    with pytest.raises(ValueError, match="from_exponents"):
        WeylOp(4, {pack((1, 0, 0)) << halves(4)[0]: 1})
    assert WeylOp.from_exponents(4, {key: 1}) == WeylOp.partial(4, 0)


def test_constructor_rejects_a_guard_bit_in_either_half():
    s = halves(N)[0]
    x1d1 = pack((1, 0, 0, 0)) << s | pack((1, 0, 0, 0))
    assert WeylOp(N, {x1d1: 1}) == WeylOp.from_exponents(
        N, {((1, 0, 0, 0), (1, 0, 0, 0)): 1})
    # the guard bit of every field, the degree field among them, of the
    # multiplication half and of the derivative half
    bits = [1 << FIELD * i + FIELD - 1 for i in range(N + 1)]
    assert sum(bits) == guard(N)
    for bit in bits:
        for key in (x1d1 | bit, x1d1 | bit << s):
            with pytest.raises(ValueError, match="from_exponents"):
                WeylOp(N, {key: 1})
    for key in (-1, 1 << 2 * s, x1d1 | 1 << 2 * s):
        with pytest.raises(ValueError, match="from_exponents"):
            WeylOp(N, {key: 1})


def test_a_multiplication_operator_has_the_terms_of_its_polynomial():
    for p in (q_form(K), Poly.var(N, 2, Fraction(-1, 3)) + 5, Poly.zero(N),
              Poly.monomial((EMAX, 0, 0, 0))):
        assert WeylOp.mult(p).terms == p.terms
        assert WeylOp.mult(p).order() == (0 if p else -1)


def test_key_order_is_the_printed_order():
    rng = random.Random(46)
    for _ in range(50):
        terms = {(random_exponents(rng, N, 3), random_exponents(rng, N, 3)):
                 random_coef(rng) for _ in range(rng.randint(1, 8))}
        op = WeylOp.from_exponents(N, terms)
        # by beta, then alpha, each in graded lex order
        want = sorted(terms, key=lambda ab: (pack(ab[1]), pack(ab[0])))
        s, mask = halves(N)
        assert [(unpack(key & mask, N), unpack(key >> s, N))
                for key in sorted(op.terms)] == want


def test_products_overflow_at_the_exponent_bound():
    x = [WeylOp.mult(Poly.var(N, i)) for i in range(N)]
    d = [WeylOp.partial(N, i) for i in range(N)]
    top = WeylOp.from_exponents(N, {((EMAX - 1, 0, 0, 0), (EMAX - 1, 0, 0, 0)): 1})
    # degree EMAX in either half is stored, one more is refused
    fits = top * x[1] * d[2]
    assert weyl_sorted_terms(fits) == [
        (((EMAX - 1, 1, 0, 0), (EMAX - 1, 0, 1, 0)), 1)]
    assert (x[0] * top).order() == EMAX - 1
    for over in (x[0], x[3], d[0], d[1]):
        with pytest.raises(ExponentOverflow):
            fits * over
    # the exchange term of d_x2 x^... lowers the degree, but the bound reads
    # the factors
    with pytest.raises(ExponentOverflow):
        d[1] * fits * x[1]
    with pytest.raises(ExponentOverflow):
        fits.commutator(x[0])
    with pytest.raises(ExponentOverflow):
        WeylOp.from_exponents(N, {((EMAX + 1, 0, 0, 0), (0, 0, 0, 0)): 1})
    with pytest.raises(ExponentOverflow):
        WeylOp.from_exponents(N, {((0, 0, 0, 0), (EMAX, 1, 0, 0)): 1})


def _same_terms(got, want):
    assert got.terms == want.terms
    assert ({key: type(c) for key, c in got.terms.items()}
            == {key: type(c) for key, c in want.terms.items()})


def _quotient_or_refusal(divide, w, divisor):
    try:
        return divide(w, divisor)
    except NotDivisible:
        return None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_pass_divisions_match_the_bucket_oracles(k):
    # the canonical class, both right divisions and the d-left round trip,
    # each one pass over the whole term map, against one Poly per
    # derivative or multiplication part
    rng, n = random.Random(4600 + k), 2 * k
    qs, lap, mq = q_form(k), laplacian_op(k), WeylOp.mult(q_form(k))

    def rand_op(deg, nterms):
        return WeylOp.from_exponents(n, {
            (random_exponents(rng, n, deg), random_exponents(rng, n, deg)):
            random_coef(rng) for _ in range(nterms)})

    ops = []
    for _ in range(40):
        a = rand_op(3, rng.randint(1, 6))
        ops += [a, a * mq, a * lap, mq * a + rand_op(2, 2),
                a * mq + WeylOp.partial(n, rng.randrange(n))]
    if k == 3:
        ops += [rho_tilde(xi).op for xi in basis(k)]
        ops += [rho_tilde(xi).op * mq for xi in basis(k)]
    verdicts = set()
    for op in ops:
        _same_terms(ConeOp(op).canonical(), canonical_by_buckets(op))
        back = WeylOp(n, reorder(reorder(op.terms, n, -1), n, 1))
        assert back == op
        _same_terms(back, from_dleft(n, dleft_by_buckets(op)))
        for divide, want, divisor in (
                (WeylOp.divide_right_by_mult,
                 divide_right_by_mult_by_buckets, qs),
                (WeylOp.divide_right_by_constcoef,
                 divide_right_by_constcoef_by_buckets, lap)):
            got = _quotient_or_refusal(divide, op, divisor)
            ref = _quotient_or_refusal(want, op, divisor)
            assert (got is None) == (ref is None), op
            if got is not None:
                _same_terms(got, ref)
            verdicts.add((divide.__name__, got is None))
    assert len(verdicts) == 4


def test_apply_rejects_a_poly_in_other_variables():
    for f in (Poly.var(N + 2, 0), Poly.var(N - 1, 0)):
        with pytest.raises(ValueError, match="different variable sets"):
            euler_op(K).apply(f)
