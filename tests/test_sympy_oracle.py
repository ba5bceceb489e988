"""Differential tests of the polynomial kernels against sympy.

Products and single-divisor remainders modulo the split form Q are checked
on random polynomials whose coefficients mix ``int`` and ``Fraction``, at
k = 2 and k = 3.  Graded lex on (x1..xk, y1..yk) is the engine's monomial
order, and sympy's ``grlex`` on the same generator order matches it, so the
remainders must agree term for term.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from quadricops.poly import Poly, normal_form_mod_single, q_form

COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


@st.composite
def poly_pairs(draw):
    k = draw(st.sampled_from([2, 3]))
    n = 2 * k
    mono = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(
        lambda m: sum(m) <= 4)

    def poly():
        return Poly(n, draw(st.dictionaries(mono, COEFFS, max_size=6)))

    return k, poly(), poly()


def gens(k):
    return sympy.symbols([f"x{i + 1}" for i in range(k)]
                         + [f"y{i + 1}" for i in range(k)])


def to_sympy(p: Poly, k: int) -> sympy.Poly:
    terms = {m: sympy.Rational(c.numerator, c.denominator)
             for m, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens(k), domain="QQ")


def from_sympy(p: sympy.Poly, k: int) -> Poly:
    terms = {m: Fraction(int(c.p), int(c.q)) for m, c in p.as_dict().items()}
    return Poly(2 * k, terms)


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
