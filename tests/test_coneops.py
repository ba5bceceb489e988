"""Cone operators: realizations, canonical classes, generator words."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import (d_op, euler_weight_op, genword_eval_by_words,
                     letter_by_formula, preserves_ideal_by_monomials,
                     tau_letterwise, xleft, xx_op, yy_op)
from quadricops import coneops
from quadricops.coneops import (ConeOp, GenWord, NotNormalizing,
                                a_correction, alphabet, fourier_letter,
                                grading, is_ideal_preserving, letter_op,
                                letter_preimage, phi, rho_amb, rho_tilde, tau,
                                tau_hat)
from quadricops.exprparse import (atom_texts, bound, eval_fourier, parse,
                                  to_genword, to_text, word_bound)
from quadricops.lie import LieElt, basis, generators, mat_mul, w0
from quadricops.poly import Poly, divides_exactly, q_form, unpack
from quadricops.suites import lie_hom_checks, run_suite
from quadricops.weyl import WeylOp, euler_op, laplacian_op

K = 2
N = 2 * K


def elt_mu(i):
    e = [0] * N
    e[i] = 1
    return LieElt(K, mu=e)


def elt_lam(i):
    e = [0] * N
    e[i] = 1
    return LieElt(K, lam=e)


def test_tau_on_named_operators():
    assert tau(laplacian_op(K)) == WeylOp.mult(q_form(K))
    assert tau(euler_op(K)) == -(euler_op(K) + WeylOp.const(N, N))
    # involution up to sign: tau(tau(x_i)) = -x_i
    xi = WeylOp.mult(Poly.var(N, 0))
    assert tau(tau(xi)) == -xi


@pytest.mark.parametrize("k", [2, 3])
def test_tau_matches_letterwise_products(k):
    # one normal-ordering per term against one product per letter
    rng = random.Random(700 + k)
    n = 2 * k
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n))
                        for _ in range(2))
            terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        a = WeylOp.from_exponents(n, terms)
        assert tau(a) == tau_letterwise(a), a


def test_phi_translation_is_derivative():
    # a pure translation acts as minus the directional derivative
    assert phi(elt_mu(0)) == -WeylOp.partial(N, 0)


def test_commutator_law_example():
    # [phi(xi), Delta] = 2(B(lam,v) - alpha) Delta
    lap = laplacian_op(K)
    xi = elt_lam(0)
    lhs = phi(xi) * lap - lap * phi(xi)
    from quadricops.coneops import b_form_poly
    rhs = (WeylOp.mult(b_form_poly(K, xi.lam))).scale(2) * lap
    assert lhs == rhs


def test_conjugation_identity_full_basis():
    qs = WeylOp.mult(q_form(K))
    for xi in basis(K):
        ra = rho_amb(xi)
        assert qs * ra == (ra - a_correction(xi)) * qs


def test_rho_tilde_on_distinguished_elements():
    # translations become coordinate multiplications
    assert rho_tilde(elt_mu(0)) == ConeOp(WeylOp.mult(Poly.var(N, 0)))
    # special conformal directions become the second-order operators
    assert rho_tilde(elt_lam(0)) == ConeOp(xx_op(K, 1))
    assert rho_tilde(elt_lam(K)) == ConeOp(yy_op(K, 1))
    # the grading element maps to minus the shifted Euler operator
    assert rho_tilde(LieElt(K, alpha=-1)) == ConeOp(euler_weight_op(K))


def test_rho_tilde_normalizes_ideal():
    for xi in basis(K):
        assert rho_tilde(xi).preserves_ideal()
    assert not is_ideal_preserving(WeylOp.partial(N, 0))


def _random_weyl(rng, n, deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(tuple(rng.choice((0, 0, 0, 1)) for _ in range(n))
                    for _ in range(2))
        if sum(key[0]) <= deg and sum(key[1]) <= deg:
            terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return WeylOp.from_exponents(n, terms)


@pytest.mark.parametrize("k", [2, 3])
def test_one_product_normalizer_matches_monomial_oracle(k):
    n = 2 * k
    bas = basis(k)
    brackets = {xi.bracket(eta) for xi, eta in combinations(bas, 2)}
    images = [rho_amb(xi) - a_correction(xi) for xi in bas]
    ops = images + [rho_amb(z) - a_correction(z) for z in brackets]
    ops += [rho_amb(xi) for xi in bas if not a_correction(xi).is_zero()]
    # seeded random operators: a combination of images, a function times an
    # image and Q* times anything normalize (Q*); the normalizer is a
    # subspace, so adding a derivative, which does not normalize, breaks that
    rng = random.Random(720 + k)
    qs = WeylOp.mult(q_form(k))
    for idx in range(200):
        op = qs * _random_weyl(rng, n, 2)
        for img in rng.sample(images, 2):
            op = op + img.scale(rng.randint(-3, 3))
        op = op + WeylOp.mult(Poly.var(n, rng.randrange(n))) * rng.choice(images)
        if idx % 2:
            op = op + WeylOp.partial(n, rng.randrange(n)) + _random_weyl(rng, n, 2)
        ops.append(op)
    verdicts = [is_ideal_preserving(op) for op in ops]
    assert verdicts == [preserves_ideal_by_monomials(op) for op in ops]
    assert min(verdicts.count(True), verdicts.count(False)) >= 100


def test_memoized_images_are_unchanged():
    # the suites share the memoized images; none may change one
    rho_tilde.cache_clear()
    run_suite("all", 3)
    run_suite("lie-hom", 3)
    # the homomorphism check takes the brackets of the pairs with a member
    # among the generators; the letters are images of their preimages
    bas, gens = basis(3), set(generators(3))
    distinct = set(bas) | {xi.bracket(eta) for i, xi in enumerate(bas)
                           for eta in bas[i + 1:] if xi in gens or eta in gens}
    distinct |= {letter_preimage(3, letter) for letter in alphabet(3)}
    assert len(distinct) == 56 == rho_tilde.cache_info().currsize
    misses = rho_tilde.cache_info().misses
    for xi in distinct:
        img = rho_tilde(xi)
        fresh = rho_amb(xi) - a_correction(xi)
        assert img.op.terms == fresh.terms, xi
        assert img.canonical() == ConeOp(fresh).canonical(), xi
    assert rho_tilde.cache_info().misses == misses


def test_failing_element_is_never_memoized(monkeypatch):
    monkeypatch.setattr(coneops, "a_correction",
                        lambda xi: WeylOp.zero(2 * xi.k))
    for _ in range(2):
        with pytest.raises(NotNormalizing):
            rho_tilde(elt_lam(0))
    info = rho_tilde.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_tau_hat_values():
    # tau_hat of the vector-field realization recovers the cone realization
    xi = elt_lam(0)
    assert tau_hat(phi(xi)) == rho_tilde(xi)
    # the Laplacian maps to the zero class, the identity to itself
    assert tau_hat(laplacian_op(K)).is_zero_class()
    assert tau_hat(WeylOp.identity(N)) == ConeOp(WeylOp.identity(N))


def test_tau_hat_rejects_non_normalizer():
    # bare coordinate multiplication does not normalize the Laplacian ideal
    with pytest.raises(NotNormalizing):
        tau_hat(WeylOp.mult(Poly.var(N, 0)))


def test_lie_homomorphism_sampled():
    bas = basis(K)
    rng = random.Random(11)
    for _ in range(12):
        xi, eta = rng.sample(bas, 2)
        lhs = rho_tilde(xi.bracket(eta))
        rhs = rho_tilde(xi).commutator(rho_tilde(eta))
        assert lhs == rhs


def test_homomorphism_compares_the_pairs_with_a_generator(monkeypatch):
    # each of the 2k generators meets the dim basis elements, less the
    # C(2k, 2) pairs counted twice and the 2k pairs of a generator with
    # itself: 147 commutators instead of 378 at k = 3
    calls = []
    commutator = ConeOp.commutator
    monkeypatch.setattr(ConeOp, "commutator",
                        lambda a, b: calls.append(1) or commutator(a, b))
    [check] = lie_hom_checks(3)
    dim = len(basis(3))
    assert check.ok and len(calls) == 6 * dim - comb(6, 2) - 6 == 147


def test_xxyy_commute_and_fundamental_relation():
    for i in range(1, K + 1):
        for j in range(1, K + 1):
            assert ConeOp(xx_op(K, i).commutator(yy_op(K, j))).is_zero_class()
    total = WeylOp.zero(N)
    for i in range(1, K + 1):
        total = total + xx_op(K, i) * yy_op(K, K + 1 - i)
    assert ConeOp(total).is_zero_class()


def test_canonical_class_detects_sidedness():
    # left multiples of the form are the zero class; right multiples are not
    qs = WeylOp.mult(q_form(K))
    lap = laplacian_op(K)
    assert ConeOp(qs * lap).is_zero_class()
    assert not ConeOp(lap * qs).is_zero_class()


@pytest.mark.parametrize("k", [2, 3])
def test_equality_agrees_with_the_canonical_classes(k):
    # == skips the classes when the operators are equal; on pairs of equal
    # operators, of operators that differ by Q* X and of operators that
    # differ by a derivative (never in Q* D), it must agree with the classes
    n = 2 * k
    rng = random.Random(930 + k)
    qs = WeylOp.mult(q_form(k))
    seen = set()
    for idx in range(150):
        a = _random_weyl(rng, n, 3)
        b = [a + WeylOp.zero(n),
             a + qs * _random_weyl(rng, n, 2),
             a + WeylOp.partial(n, rng.randrange(n)).scale(rng.randint(1, 3))
             ][idx % 3]
        x, y = ConeOp(a), ConeOp(b)
        # the reference classes come from fresh objects, so == computes its
        # own or none
        same = ConeOp(a).canonical() == ConeOp(b).canonical()
        assert (x == y) == (y == x) == same
        assert (x != y) != same
        if same:
            assert hash(x) == hash(y)
        seen.add((a == b, same))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_is_the_reduced_representative_of_the_class(k):
    # on every rho_tilde image and on seeded random operators, some of them
    # with a Q* X part: no x-left coefficient of the representative keeps a
    # monomial divisible by x1*yk, the leading monomial of Q*; it differs
    # from op by Q* times an operator; and it is a cone operator of the same
    # class, equal both when op is its own representative and when not
    n = 2 * k
    qs = q_form(k)
    rng = random.Random(970 + k)
    images = [rho_tilde(xi) for xi in basis(k)]
    images += [rho_tilde(letter_preimage(k, letter))
               for letter in sorted(alphabet(k))]
    randoms = [ConeOp(_random_weyl(rng, n, 3)
                      + WeylOp.mult(qs) * _random_weyl(rng, n, 2))
               for _ in range(100)]
    seen = set()
    for c in images + randoms:
        can = c.canonical()
        assert c.canonical() is can
        for beta, p in xleft(can).items():
            for m in p.terms:
                e = unpack(m, n)
                assert not (e[0] and e[-1]), (c, beta)
        for p in xleft(c.op - can).values():
            assert divides_exactly(qs, p) is not None, c
        back = ConeOp(can)
        assert back == c and c == back
        assert back.canonical() == can
        assert hash(back) == hash(c)
        seen.add(c.op == can)
    assert seen == {True, False}


def test_gradings():
    assert grading(ConeOp(WeylOp.mult(Poly.var(N, 0)))) == 1
    assert grading(ConeOp(xx_op(K, 1))) == -1
    assert grading(ConeOp(d_op(K, 1, 2))) == 0
    assert grading(ConeOp(euler_weight_op(K))) == 0
    mixed = ConeOp(WeylOp.mult(Poly.var(N, 0)) + xx_op(K, 2))
    assert grading(mixed) == "Mixed"


def test_fourier_word_involution_and_values():
    w = GenWord.letter(K, ("x", 1))
    fw = w.fourier()
    assert fw == GenWord.letter(K, ("XX", 1))
    assert ConeOp(genword_eval_by_words(fw)) == ConeOp(xx_op(K, 1))
    assert eval_fourier(parse("x1", K), K) == ConeOp(xx_op(K, 1))
    assert GenWord.letter(K, ("Etil",)).fourier() \
        == GenWord.letter(K, ("Etil",)).scale(-1)
    rng = random.Random(5)
    letters = [("x", 1), ("y", 2), ("XX", 2), ("YY", 1), ("Etil",),
               ("D", 1, 2), ("B", 1, 2), ("C", 1, 2)]
    for _ in range(100):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))):
                 Fraction(rng.randint(-4, 4) or 1) for _ in range(2)}
        word = GenWord(K, terms)
        assert word.fourier().fourier() == word


def test_word_arithmetic_is_that_of_term_maps():
    x1, xx2 = GenWord.letter(K, ("x", 1)), GenWord.letter(K, ("XX", 2))
    w = x1 * xx2 + x1.scale(Fraction(1, 2))
    for c in (3, -1, 0, Fraction(2, 3), Fraction(4, 2)):
        assert w * c == c * w == w.scale(c)
    other_k = GenWord.letter(K + 1, ("x", 1))
    with pytest.raises(ValueError):
        x1 + other_k
    with pytest.raises(ValueError):
        x1 * other_k
    sq = xx2 * xx2 + x1.scale(Fraction(1, 2))
    same = GenWord(K, {(("XX", 2), ("XX", 2)): 1}) + x1.scale(Fraction(1, 2))
    assert sq == same and hash(sq) == hash(same)
    assert len({w, w * 1, w + 0}) == 1
    assert GenWord.const(K, 2) == GenWord(K, {(): 2}) and w.k == K
    for key in (5, "x1"):
        with pytest.raises(TypeError, match="not a GenWord key") as exc:
            GenWord(K, {key: 1})
        # the message names no constructor that GenWord lacks
        msg = str(exc.value)
        assert "from_exponents" not in msg
        assert all(hasattr(GenWord, name)
                   for name in re.findall(r"GenWord\.(\w+)", msg))


def test_word_product_does_not_recheck_letters(monkeypatch):
    # the factors were checked when they were built; their concatenations
    # go straight to the trusted constructor
    x1, xx2 = GenWord.letter(K, ("x", 1)), GenWord.letter(K, ("XX", 2))
    a = x1.scale(Fraction(1, 2)) + xx2.scale(Fraction(2, 3))
    calls = []
    monkeypatch.setattr(coneops, "check_letters",
                        lambda k, word: calls.append(word))
    got = a * (a + 1)
    assert calls == []
    assert got.terms == {(("x", 1), ("x", 1)): Fraction(1, 4),
                         (("x", 1), ("XX", 2)): Fraction(1, 3),
                         (("XX", 2), ("x", 1)): Fraction(1, 3),
                         (("XX", 2), ("XX", 2)): Fraction(4, 9),
                         (("x", 1),): Fraction(1, 2),
                         (("XX", 2),): Fraction(2, 3)}


def test_words_take_only_letters_of_their_alphabet():
    # a letter is a tuple inside the word, and its indices lie in 1..k
    for letter, terms in (("'x'", {("x", 1): 1}),
                          ("('x', 7)", {(("x", 7),): 1})):
        with pytest.raises(ValueError, match=re.escape(
                f"{letter} is not a generator letter at k=2")):
            GenWord(2, terms)
    for bad in (("B", 2, 1), ("C", 1, 1), ("D", 0, 1), ("XX", 3),
                ("Etil", 1), ("E",), "x1"):
        with pytest.raises(ValueError, match="not a generator letter"):
            GenWord(2, {(bad,): 1})
    for k in (2, 3):
        # the letter list of the cone-ops suite
        letters = [("Etil",)]
        for i in range(1, k + 1):
            letters += [("x", i), ("y", i), ("XX", i), ("YY", i)]
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                letters.append(("D", i, j))
                if i < j:
                    letters += [("B", i, j), ("C", i, j)]
        assert set(letters) == alphabet(k)
        for letter in letters:
            assert GenWord.letter(k, letter).terms == {(letter,): 1}


def test_word_evaluation_shares_prefixes_exactly():
    # the oracle multiplies shared prefixes once; one product per letter of
    # every word is the reference
    rng = random.Random(11)
    letters = [("x", 1), ("y", 2), ("XX", 2), ("YY", 1), ("Etil",),
               ("D", 1, 2), ("B", 1, 2), ("C", 1, 2)]
    for _ in range(40):
        terms = {tuple(rng.choice(letters[:rng.randint(1, 8)])
                       for _ in range(rng.randint(0, 4))):
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 12))}
        word = GenWord(K, terms)
        want = WeylOp.zero(N)
        for w, c in word.terms.items():
            op = WeylOp.const(N, c)
            for letter in w:
                op = op * letter_op(K, letter)
            want = want + op
        assert genword_eval_by_words(word) == want


def test_letter_preimages_realize_letters():
    # term for term, not only as cone classes: rho_tilde of the preimage is
    # the hand-written operator of each of the 154 letters at k = 2..5
    letters = [(k, letter) for k in range(2, 6) for letter in alphabet(k)]
    assert len(letters) == 154
    for k, letter in letters:
        assert letter_op(k, letter) == letter_by_formula(k, letter), letter


def test_letters_outside_the_alphabet_are_refused():
    # the letters GenWord refuses: an index outside 1..k, B and C with
    # i >= j, a wrong arity or kind
    for bad in (("x", 0), ("x", 3), ("y", -1), ("XX", 3), ("D", 1, 3),
                ("D", 0, 1), ("B", 2, 1), ("C", 1, 1), ("Etil", 1), ("E",),
                ("x", 1, 1), "x1"):
        for fn in (letter_preimage, letter_op):
            with pytest.raises(ValueError, match="not a generator letter"):
                fn(2, bad)


@pytest.mark.parametrize("warm", [False, True])
def test_letter_indices_must_be_ints(warm):
    # ("x", 1.0) and ("x", True) equal ("x", 1) and hash alike, so neither
    # the alphabet nor a warm memo of x1 may let them through
    coneops._letter_op.cache_clear()
    if warm:
        letter_op(2, ("x", 1))
        letter_op(2, ("D", 1, 2))
    for bad in (("x", 1.0), ("x", True), ("XX", Fraction(1)), ("D", 1, 2.0),
                ("D", True, 2)):
        with pytest.raises(ValueError, match="not a generator letter"):
            letter_op(2, bad)
        with pytest.raises(ValueError, match="not a generator letter"):
            GenWord(2, {(bad,): 1})
        with pytest.raises(ValueError, match="not a generator letter"):
            GenWord.letter(2, bad)
    assert GenWord(2, {(("x", 1),): 1}).text() == "x1"


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_fourier_letter_is_conjugation_by_w0(k):
    # F is Ad(w0) on the preimages: w0 P(l) w0^-1 = s P(F(l))
    g = w0(k)
    for letter in alphabet(k):
        image, s = fourier_letter(letter)
        conj = mat_mul(g.m, mat_mul(letter_preimage(k, letter).matrix(),
                                    g.inv().m))
        want = [[s * c for c in row]
                for row in letter_preimage(k, image).matrix()]
        assert conj == want, letter


def _nodes(tree):
    yield tree
    for a in tree[1:]:
        if type(a) is tuple:
            yield from _nodes(a)


def _rand_generator_tree(rng, leaves, depth, top=False):
    if depth == 0 or not top and rng.random() < 0.3:
        return rng.choice(leaves)
    kind = rng.choice(["add", "sub", "mul", "mul", "pow", "neg"])
    if kind == "pow":
        return ("pow", _rand_generator_tree(rng, leaves, 1), rng.randint(0, 3))
    if kind == "neg":
        return ("neg", _rand_generator_tree(rng, leaves, depth - 1))
    return (kind, _rand_generator_tree(rng, leaves, depth - 1),
            _rand_generator_tree(rng, leaves, depth - 1))


@pytest.mark.parametrize("k", [2, 3])
def test_fourier_fold_matches_the_words(k):
    # the fold in D_C against the words of the transformed generator word,
    # multiplied out in the ambient algebra, on 200 random expressions
    rng = random.Random(900 + k)
    leaves = [parse(a, k) for a in atom_texts(k)
              if not a.startswith(("dx", "dy", "Delta", "Q"))]
    leaves += [("int", 2), ("int", 3)]
    seen, count = set(), 0
    while count < 200:
        tree = _rand_generator_tree(rng, leaves, 3, top=True)
        if max(bound(tree)) > 8 or word_bound(tree) > 64:
            continue
        count += 1
        seen.update(node[0] for node in _nodes(tree))
        seen.update(node[1] for node in _nodes(tree) if node[0] == "atom")
        want = ConeOp(genword_eval_by_words(to_genword(tree, k).fourier()))
        assert eval_fourier(tree, k) == want, to_text(tree)
    assert {"add", "sub", "mul", "pow", "neg", "int", "E", "Dop", "Bop",
            "Cop", "x", "y", "XX", "YY"} <= seen


@pytest.mark.parametrize("k", [2, 3])
def test_fourier_fold_kills_the_relations(k):
    # the images of x_i y_j - y_j x_i and of sum_i x_i y_(k+1-i) are
    # [XX_i, YY_j] and the fundamental relation, both zero classes; the
    # fold multiplies the Fourier images of two letters
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            comm = parse(f"x{i}*y{j} - y{j}*x{i}", k)
            assert eval_fourier(comm, k).is_zero_class(), (i, j)
    fundamental = " + ".join(f"x{i}*y{k + 1 - i}" for i in range(1, k + 1))
    assert eval_fourier(parse(fundamental, k), k).is_zero_class()
    assert not eval_fourier(parse("x1*y1", k), k).is_zero_class()
