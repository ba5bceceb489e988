"""Differential tests of the polynomial and Weyl kernels against sympy.

Products and single-divisor remainders modulo the split form Q are checked
on random polynomials whose coefficients mix ``int`` and ``Fraction``, at
k = 2 and k = 3.  Graded lex on (x1..xk, y1..yk) is the engine's monomial
order, and sympy's ``grlex`` on the same generator order matches it, so the
remainders must agree term for term.

The action of a Weyl operator sum c x^alpha d^beta is checked against
sympy.diff, and so is the action of a product, which must be the action of
one factor after the other.

The harmonic basis is checked against sympy's nullspace of the Laplacian
matrix, which reads its vectors off the reduced row echelon form too, and
the closed form of the Laplacian on n/Q^m against sympy.diff of the
rational function.  The engine's one elimination routine, ``poly.rref``, is
checked against ``sympy.Matrix.rref`` on seeded sparse rational matrices.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import exponent_items, monomials_up_to, weyl_sorted_terms
from quadricops.harmonic import harmonic_decompose, laplacian_qlaurent
from quadricops.poly import (Poly, QLaurent, normal_form_mod_single, q_form,
                             rref, support)
from quadricops.weyl import WeylOp, halves

COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


@st.composite
def exponents(draw, highs, total):
    """An exponent vector with its i-th exponent in 0..highs[i] and a sum of
    at most ``total``: each exponent is drawn within its range capped by
    what the earlier ones leave, so no draw is rejected."""
    out = []
    for high in highs:
        out.append(draw(st.integers(0, min(high, total))))
        total -= out[-1]
    return tuple(out)


@st.composite
def poly_pairs(draw):
    k = draw(st.sampled_from([2, 3]))
    n = 2 * k
    mono = exponents([2] * n, 4)

    def poly():
        return Poly.from_exponents(n, draw(st.dictionaries(mono, COEFFS, max_size=6)))

    return k, poly(), poly()


def gens(k):
    return sympy.symbols([f"x{i + 1}" for i in range(k)]
                         + [f"y{i + 1}" for i in range(k)])


def to_sympy(p: Poly, k: int) -> sympy.Poly:
    terms = {m: sympy.Rational(c.numerator, c.denominator)
             for m, c in exponent_items(p)}
    return sympy.Poly.from_dict(terms, *gens(k), domain="QQ")


def from_sympy(p: sympy.Poly, k: int) -> Poly:
    terms = {m: Fraction(int(c.p), int(c.q)) for m, c in p.as_dict().items()}
    return Poly.from_exponents(2 * k, terms)


@settings(max_examples=60, deadline=None)
@given(poly_pairs())
def test_product_matches_sympy(case):
    k, a, b = case
    prod = a * b
    assert prod == from_sympy(to_sympy(a, k) * to_sympy(b, k), k)
    assert all(type(c) in (int, Fraction) for c in prod.terms.values())


@settings(max_examples=60, deadline=None)
@given(poly_pairs())
def test_remainder_mod_q_matches_sympy(case):
    k, a, b = case
    p = a * b + a
    q = q_form(k)
    quo, rem = normal_form_mod_single(p, q)
    _, expected = sympy.reduced(to_sympy(p, k).as_expr(), [to_sympy(q, k).as_expr()],
                                *gens(k), order="grlex")
    assert rem == from_sympy(sympy.Poly(expected, *gens(k), domain="QQ"), k)
    assert quo * q + rem == p
    assert all(type(c) in (int, Fraction)
               for part in (quo, rem) for c in part.terms.values())


@st.composite
def weyl_cases(draw):
    """(k, a, b, f, overlap): operators a and b and a polynomial f.

    With overlap, a has a d-part in a variable where b has an x-part, so
    a * b reorders through the exchange formula; without, the d-parts of a
    and the x-parts of b use disjoint variables and every term pair of
    a * b is a single commuting term.
    """
    k = draw(st.sampled_from([2, 3]))
    n = 2 * k
    overlap = draw(st.booleans())
    split = draw(st.integers(1, n - 1))

    def expvec(lo, hi):
        return exponents([2 if lo <= i < hi else 0 for i in range(n)], 3)

    def op(xs, ds):
        return draw(st.dictionaries(st.tuples(expvec(*xs), expvec(*ds)),
                                    COEFFS, max_size=4))

    a = op((0, n), (0, split))
    b = op((split, n) if not overlap else (0, n), (0, n))
    if overlap:
        i = draw(st.integers(0, n - 1))
        e = tuple(int(j == i) for j in range(n))
        a[((0,) * n, e)] = draw(st.integers(1, 5))
        b[(e, (0,) * n)] = draw(st.integers(1, 5))
    mono = exponents([3] * n, 5)
    f = Poly.from_exponents(n, draw(st.dictionaries(mono, COEFFS, max_size=5)))
    return (k, WeylOp.from_exponents(n, a), WeylOp.from_exponents(n, b), f,
            overlap)


def sympy_apply(op: WeylOp, f, k: int):
    """sum c x^alpha d^beta f, with the derivatives taken by sympy.diff."""
    xs = gens(k)
    total = sympy.Integer(0)
    for (alpha, beta), c in weyl_sorted_terms(op):
        term = f
        for x, e in zip(xs, beta):
            if e:
                term = sympy.diff(term, x, e)
        for x, e in zip(xs, alpha):
            term = term * x ** e
        total += sympy.Rational(c.numerator, c.denominator) * term
    return sympy.expand(total)


def shares_variable(a: WeylOp, b: WeylOp) -> bool:
    n = a.nvars
    s, mask = halves(n)
    return any(support(d >> s, n) & support(x & mask, n)
               for d in a.terms for x in b.terms)


@settings(max_examples=60, deadline=None)
@given(weyl_cases())
def test_weyl_action_matches_sympy_diff(case):
    k, a, b, f, _ = case
    expr = to_sympy(f, k).as_expr()
    for op in (a, b):
        expected = sympy.Poly(sympy_apply(op, expr, k), *gens(k), domain="QQ")
        assert op.apply(f) == from_sympy(expected, k)


@settings(max_examples=60, deadline=None)
@given(weyl_cases())
def test_weyl_product_acts_as_composition(case):
    k, a, b, f, overlap = case
    assert shares_variable(a, b) == overlap
    composed = a.apply(b.apply(f))
    assert (a * b).apply(f) == composed
    expr = sympy_apply(a, sympy_apply(b, to_sympy(f, k).as_expr(), k), k)
    assert composed == from_sympy(sympy.Poly(expr, *gens(k), domain="QQ"), k)


@pytest.mark.parametrize("k,d", [(k, d) for k in (2, 3) for d in range(6)])
def test_harmonic_basis_is_sympy_nullspace(k, d):
    xs = gens(k)
    n = 2 * k
    # the graded pieces in the reference's order, not the engine's
    monos = [m for m in monomials_up_to(n, d) if sum(m) == d]
    rows = {m: i for i, m in enumerate(
        m for m in monomials_up_to(n, d - 2) if sum(m) == d - 2)}
    # Delta = sum_i d/dx_i d/dy_{k+1-i}, applied by sympy.diff
    lap = sympy.zeros(len(rows), len(monos))
    for j, m in enumerate(monos):
        f = sympy.Mul(*[x ** e for x, e in zip(xs, m)])
        image = sum(sympy.diff(f, xs[i], xs[n - 1 - i]) for i in range(k))
        for m2, c in sympy.Poly(image, *xs).as_dict().items():
            lap[rows[m2], j] = c
    harm, _ = harmonic_decompose(d, k)
    assert [[h.coeff(m) for m in monos] for h in harm] == [
        [Fraction(int(c.p), int(c.q)) for c in v] for v in lap.nullspace()]


@st.composite
def laurent_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    mono = exponents([2] * (2 * k), 4)
    num = Poly.from_exponents(2 * k, draw(st.dictionaries(mono, COEFFS,
                                                          max_size=4)))
    return k, num, draw(st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(laurent_cases())
def test_laplacian_of_q_laurent_matches_sympy(case):
    k, num, m = case
    x = gens(k)
    q = to_sympy(q_form(k), k).as_expr()
    f = to_sympy(num, k).as_expr() / q ** m
    # Delta pairs x_i with y_{k+1-i}
    lap = sum(sympy.diff(f, x[i], x[2 * k - 1 - i]) for i in range(k))
    got = laplacian_qlaurent(QLaurent(k, num, m))
    cleared = sympy.Poly(sympy.cancel(lap * q ** got.qexp), *x, domain="QQ")
    assert got.num == from_sympy(cleared, k)


def sparse_rows(rng: random.Random) -> list:
    """A seeded sparse rational matrix as rows {col: value}, with some rows
    combinations of earlier ones so that the rank drops."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(1, 8)):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            row = {j: a.get(j, 0) + f * b.get(j, 0) for j in {*a, *b}}
        else:
            row = {j: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                   for j in rng.sample(range(ncols),
                                       rng.randint(0, min(4, ncols)))}
        rows.append({j: c for j, c in row.items() if c})
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_sympy(seed):
    rng = random.Random(1900 + seed)
    rows = sparse_rows(rng)
    ncols = max((j for row in rows for j in row), default=0) + 1
    dense = sympy.Matrix([[sympy.Rational(str(row.get(j, 0)))
                           for j in range(ncols)] for row in rows])
    form, pivots = dense.rref()
    got = rref(rows)
    assert sorted(got) == list(pivots)
    for i, p in enumerate(pivots):
        assert got[p] == {j: Fraction(int(c.p), int(c.q))
                          for j, c in enumerate(form.row(i)) if c}
    assert all(type(c) in (int, Fraction) for row in got.values()
               for c in row.values())
    # the form is unique, so no order of the rows changes it
    for _ in range(3):
        rng.shuffle(rows)
        assert rref(rows) == got
