"""Conformal orthogonal Lie algebra and its rational group elements."""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from operator import mul

import pytest

from oracles import (blocks_are_canonical, mat_mul_by_loops, mat_sub,
                     matrix_bracket, subalgebra_dimension_by_saturation,
                     u_op_by_matrix)
from quadricops import lie
from quadricops.lie import (DegenerateCell, GroupElt, LieElt, NotQLaurent,
                            _cell_column, _point_column, _q_power_inverse,
                            basis, bruhat_factor, chi0_at, act_at,
                            generated_dimension, generators, levi, mat_inv,
                            mat_mul, u, u_op, w0)
from quadricops.poly import Poly, QLaurent, dual, q_form

K = 2
N = 2 * K


def test_dimension_of_basis():
    # dim o(2k+2) for the split form: (2k+2)(2k+1)/2
    assert len(basis(2)) == 15
    assert len(basis(3)) == 28


def test_skew_constraint_enforced():
    X = [[Fraction(1) if (i, j) == (0, 0) else Fraction(0) for j in range(N)]
         for i in range(N)]
    with pytest.raises(ValueError):
        LieElt(K, X=X)
    with pytest.raises(ValueError):
        LieElt(K, X={(0, 0): 1})
    # the trusted constructor of bracket results checks it too
    with pytest.raises(ValueError):
        LieElt._of(K, 0, (), (((0, 0), Fraction(1)),), ())


def test_malformed_levi_block_rejected():
    zero = [[0] * N for _ in range(N)]
    for X in ([[0]], zero[:-1], [row + [0] for row in zero],
              zero[:-1] + [[0] * (N + 1)]):
        with pytest.raises(ValueError):
            LieElt(K, X=X)
    # an index of any block is an int in range, never a bool or a float
    # that equals one: those would build, compare equal to the int-keyed
    # element and then fail to index a matrix
    for key in ((0, N), (N, 0), (-1, 0), (0, -1), (1.0, 0), (3, 2.0),
                (True, 0), (0, False), (0,), (0, 1, 2), 0):
        with pytest.raises(ValueError):
            LieElt(K, X={key: 0})
    with pytest.raises(ValueError):
        LieElt(K, X={(1.0, 0): 1, (3, 2.0): -1})
    for key in (N, -1, 1.0, True, False, (0,), (0, 1)):
        with pytest.raises(ValueError):
            LieElt(K, mu={key: 1})
        with pytest.raises(ValueError):
            LieElt(K, lam={key: 1})


def jplus_matrix(k: int):
    n = 2 * k + 2
    j = [[0] * n for _ in range(n)]
    for i in range(n):
        j[i][dual(n, i)] = 1
    return j


def random_combination(rng, k):
    """A rational combination of basis elements with every block nonzero:
    the alpha element, one mu, one lambda and one Levi element, and each
    other basis element with probability 1/2.  Basis elements have disjoint
    supports, so no block cancels."""
    bas = basis(k)
    kinds = {}
    for i, xi in enumerate(bas):
        kinds.setdefault(xi.tag[0], []).append(i)
    chosen = {rng.choice(idx) for idx in kinds.values()}
    chosen |= {i for i in range(len(bas)) if rng.random() < 0.5}
    out = LieElt(k)
    for i in sorted(chosen):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        out = out + bas[i].scale(c)
    assert out.alpha and any(out.mu) and any(out.lam) and out.X
    return out


def assert_entries_are_the_matrix(xi: LieElt):
    n = 2 * xi.k + 2
    m = xi.matrix()
    assert xi.entries() == [((r, c), m[r][c]) for r in range(n)
                            for c in range(n) if m[r][c]]


def test_bracket_is_matrix_commutator():
    # every basis pair at k = 2, 3, against the dense commutator
    for k in (2, 3):
        bas = basis(k)
        for xi in bas:
            assert_entries_are_the_matrix(xi)
            for eta in bas:
                a, b = xi.matrix(), eta.matrix()
                br = xi.bracket(eta)
                assert_entries_are_the_matrix(br)
                assert br.matrix() == mat_sub(mat_mul(a, b), mat_mul(b, a))
                assert br == matrix_bracket(xi, eta), (xi.tag, eta.tag)
    # 20 random rational combinations per k, each bracketed with the next
    rng = random.Random(17)
    for k in (2, 3, 4):
        elts = [random_combination(rng, k) for _ in range(20)]
        for xi, eta in zip(elts, elts[1:] + elts[:1]):
            br = xi.bracket(eta)
            assert_entries_are_the_matrix(xi)
            assert_entries_are_the_matrix(br)
            assert br == matrix_bracket(xi, eta)


class CornerOnly(LieElt):
    """Assembles to E_00, which lacks the -alpha corner: not in the algebra."""

    __slots__ = ()

    def matrix(self):
        return [[int(i == j == 0) for j in range(N + 2)] for i in range(N + 2)]


def test_matrix_bracket_checks_the_redundant_blocks():
    # [E_00, eta] = -E_10 for the first mu element: a mu block without
    # its -mu^T J_V row
    eta = basis(K)[1]
    assert eta.tag == ("mu", 0)
    with pytest.raises(ValueError):
        matrix_bracket(CornerOnly(K), eta)


def test_elements_hash_by_value_and_are_frozen():
    e = [0] * N
    e[1] = 1
    a = LieElt(K, mu=e, tag=("mu", 1))
    b = LieElt(K, mu=[Fraction(0), Fraction(2, 2), 0, 0])
    # a mapping, with an explicit zero and an integral Fraction
    c = LieElt(K, mu={1: Fraction(2, 2), 3: 0})
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.mu == b.mu == c.mu == ((1, 1),)
    assert len({a, b, c, LieElt(K, lam=e)}) == 2
    # the same for lam
    lam = [LieElt(K, lam=[0, 0, Fraction(-4, 2), 0]),
           LieElt(K, lam={2: -2, 0: Fraction(0)})]
    assert lam[0] == lam[1] and hash(lam[0]) == hash(lam[1])
    assert lam[0].lam == lam[1].lam == ((2, -2),)
    with pytest.raises(TypeError):
        a.mu[0] = 1
    with pytest.raises(TypeError):
        a.mu[0][1] = 2
    # a dense vector of the wrong length
    for v in ([], [0] * (N - 1), [0] * (N + 1)):
        with pytest.raises(ValueError):
            LieElt(K, mu=v)
        with pytest.raises(ValueError):
            LieElt(K, lam=v)
    # every block of every element sorted and zero-free, sums and brackets
    # included
    bas = basis(3)
    elts = list(bas) + [bas[1] + bas[8] + bas[-1], bas[0].bracket(bas[2]),
                        bas[3].bracket(bas[10]), (bas[2] + bas[9]).scale(0)]
    for xi in elts:
        assert blocks_are_canonical(xi), xi
    # a Levi element from dense rows and from a mapping of its entries
    dense = [[0] * N for _ in range(N)]
    dense[0][1], dense[dual(N, 1)][dual(N, 0)] = 1, -1
    levi_elt = LieElt(K, X=dense)
    mapped = LieElt(K, X={(0, 1): Fraction(2, 2), (dual(N, 1), dual(N, 0)): -1,
                          (1, 2): 0})
    assert levi_elt == mapped and hash(levi_elt) == hash(mapped)
    with pytest.raises(TypeError):
        levi_elt.X[0] = ((0, 1), 2)
    with pytest.raises(TypeError):
        levi_elt.X[0][1] = 2


def ad_w0(xi: LieElt) -> LieElt:
    """Conjugation by the Weyl inversion: swaps mu and lambda, flips alpha."""
    return LieElt(xi.k, -xi.alpha, dict(xi.lam), dict(xi.X), dict(xi.mu),
                  tag=xi.tag)


@pytest.mark.parametrize("k", range(2, 9))
def test_generators_generate_the_algebra(k):
    gens = generators(k)
    n = 2 * k
    assert [xi.tag for xi in gens] == ([("mu", i) for i in range(1, n - 1)]
                                       + [("lam", 0), ("lam", n - 1)])
    # dim so(2k+2) = (2k+2)(2k+1)/2
    dim = (n + 2) * (n + 1) // 2
    assert generated_dimension(k, gens) == len(basis(k)) == dim


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_generator_is_needed(k):
    gens, dim = generators(k), len(basis(k))
    for i in range(2 * k):
        rest = gens[:i] + gens[i + 1:]
        assert generated_dimension(k, rest) < dim, gens[i].tag


def test_generated_dimension_matches_saturation():
    # every subset of the generators at k = 2, against the closure of the
    # span under every bracket
    gens = generators(2)
    for r in range(len(gens) + 1):
        for sub in combinations(gens, r):
            assert (generated_dimension(2, sub)
                    == subalgebra_dimension_by_saturation(sub)), sub


def test_ad_w0_swaps_blocks():
    e = [0] * N
    e[0] = 1
    xi = LieElt(K, alpha=2, mu=e)
    img = ad_w0(xi)
    assert img.alpha == -2 and img.lam == xi.mu == ((0, 1),) and img.mu == ()
    # the block swap is conjugation by the group element w0
    for k in (2, 3):
        g = w0(k)
        for xi in basis(k):
            assert (mat_mul(g.m, mat_mul(xi.matrix(), g.inv().m))
                    == ad_w0(xi).matrix()), xi.tag


def test_group_elements_preserve_form():
    g = w0(K) * u(K, [1, 0, -2, 3]) * levi(K, 2, [[1 if i == j else 0
                                                   for j in range(N)]
                                                  for i in range(N)])
    jp = jplus_matrix(K)
    gt = [[g.m[j][i] for j in range(N + 2)] for i in range(N + 2)]
    assert mat_mul(gt, mat_mul(jp, g.m)) == jp
    identity = [[1 if i == j else 0 for j in range(N + 2)] for i in range(N + 2)]
    assert (g * g.inv()).m == identity


def test_group_element_must_preserve_the_form():
    n = N + 2
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    GroupElt(K, eye)
    stretched = [row[:] for row in eye]
    stretched[1][1] = 2  # breaks the pairing of e_1 with e_dual(1) only
    sheared = [row[:] for row in eye]
    sheared[1][2] = 1  # e_2 -> e_1 + e_2 now pairs with e_dual(1)
    for m in ([[2 * c for c in row] for row in eye], stretched, sheared):
        jp = jplus_matrix(K)
        mt = [list(col) for col in zip(*m)]
        assert mat_mul(mt, mat_mul(jp, m)) != jp
        with pytest.raises(ValueError):
            GroupElt(K, m)


def test_group_elements_check_the_form_with_mat_mul(monkeypatch):
    # the form check M^T J+ M = den^2 J+ is lie.mat_mul of the transpose
    # and M read bottom to top: one call per element built, and a product
    # adds the one that multiplies the two matrices
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return mat_mul(a, b)

    monkeypatch.setattr(lie, "mat_mul", counted)
    g = u(K, [1, 0, -2, 3])
    h = w0(K)
    assert len(calls) == 2
    assert isinstance(g * h, GroupElt)
    assert calls[2:] == [(N + 2, N + 2)] * 2


ZEROS = {"int": 0, "Fraction": Fraction(0), "Poly": Poly.zero(2)}


def _random_entry(rng, kind):
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if rng.random() < 0.4:
        return ZEROS[kind]
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "Fraction":
        return c
    return Poly.const(2, c) + Poly.var(2, rng.randrange(2)).scale(
        rng.randint(-2, 2))


@pytest.mark.parametrize("kind", sorted(ZEROS))
def test_mat_mul_matches_the_triple_loop(kind):
    rng = random.Random(sorted(ZEROS).index(kind))
    for _ in range(30):
        r, p, c = (rng.randint(1, 5) for _ in range(3))
        a = [[_random_entry(rng, kind) for _ in range(p)] for _ in range(r)]
        b = [[_random_entry(rng, kind) for _ in range(c)] for _ in range(p)]
        # a zero row of a and a zero column of b: entries no pair reaches
        a[rng.randrange(r)] = [ZEROS[kind]] * p
        j = rng.randrange(c)
        for row in b:
            row[j] = ZEROS[kind]
        got, want = mat_mul(a, b), mat_mul_by_loops(a, b)
        assert got == want
        assert [[type(e) for e in row] for row in got] == \
            [[type(e) for e in row] for row in want]
        assert [type(row[j]) for row in got] == [int] * r


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _short_row():
    m = _identity(N + 2)
    m[2] = m[2][:-1]
    return GroupElt(K, m)


@pytest.mark.parametrize("build", [
    _short_row,
    lambda: GroupElt(K, _identity(N + 4)),
    lambda: w0(K) * w0(K + 1),
], ids=["short-row", "too-large", "mixed-k"])
def test_malformed_group_matrix_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_w0_factorization_is_inversion():
    # w0 sends v to -v/Q(v), with the cocycle character -Q(v)
    for k in (2, 3):
        vprime, chi = bruhat_factor(w0(k))
        for i in range(2 * k):
            assert vprime[i] == QLaurent(k, Poly.var(2 * k, i, -1), 1)
        assert chi == QLaurent(k, -q_form(k), 0)


def test_unipotent_factorization_polynomial():
    # opposite unipotents translate the big cell: pivot 1, polynomial v'
    g = u_op(K, [1, 0, -2, 0])
    vprime, chi = bruhat_factor(g)
    assert chi == QLaurent(K, Poly.const(N, 1), 0)
    assert all(v.is_poly() for v in vprime)
    # the upper unipotent leaves the Q-power class: reported loudly
    with pytest.raises(NotQLaurent):
        bruhat_factor(u(K, [1, 0, 0, 0]))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_opposite_unipotent_is_the_w0_conjugate(k):
    rng = random.Random(380 + k)
    for _ in range(20):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(2 * k)]
        assert u_op(k, v) == u_op_by_matrix(k, v) == w0(k) * u(k, v) * w0(k)


@pytest.mark.parametrize("k", [2, 3])
def test_q_power_inverse_of_q_powers(k):
    n, q = 2 * k, q_form(k)
    one = QLaurent(k, Poly.const(n, 1), 0)
    for m in range(4):
        for c in (1, -3, Fraction(2, 5)):
            p = (q ** m).scale(c)
            inv = _q_power_inverse(p, k)
            assert inv == QLaurent(k, Poly.const(n, 1 / Fraction(c)), m)
            assert inv * p == one


@pytest.mark.parametrize("k", [2, 3])
def test_q_power_inverse_refuses_other_pivots(k):
    n, q = 2 * k, q_form(k)
    x1 = Poly.var(n, 0)
    # not a multiple of Q, Q times a variable, Q times a non-constant, zero
    for p in (q + x1, x1 * q, q * q + q, x1 * x1, Poly.zero(n)):
        with pytest.raises(NotQLaurent):
            _q_power_inverse(p, k)


def cocycle_generators():
    h = [[Fraction(0)] * N for _ in range(N)]
    diag = [Fraction(2), Fraction(1, 3)]
    for i in range(K):
        h[i][i] = diag[i]
        h[N - 1 - i][N - 1 - i] = 1 / diag[i]
    return [w0(K), u(K, [1, -1, 0, 2]), u_op(K, [0, 1, 1, 0]),
            levi(K, Fraction(3, 2), h)]


def test_inverse_matches_gauss_jordan():
    # the group elements this file builds, and their pairwise products
    elts = cocycle_generators() + [
        u(K, [1, 0, -2, 3]), levi(K, 2, [[1 if i == j else 0 for j in range(N)]
                                         for i in range(N)]),
        u_op(K, [1, 0, -2, 0]), u(K, [1, 0, 0, 0]), u(K, [1, 0, 0, 1])]
    elts += [g1 * g2 for g1 in elts for g2 in elts]
    for g in elts:
        assert g.inv().m == mat_inv(g.m)
        # stored as the integer matrix M over its least denominator
        assert all(type(c) is int for c in chain(*g.M))
        assert g.den > 0 and gcd(g.den, *chain(*g.M)) == 1
        assert g.m == [[Fraction(c, g.den) for c in row] for row in g.M]


def test_inverse_of_a_singular_matrix_is_refused():
    for a in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[Fraction(1, 2), 1, 0],
                                                   [1, 2, 0], [0, 0, 3]]):
        with pytest.raises(ValueError, match="singular matrix"):
            mat_inv(a)
    assert mat_inv([[0, 2], [Fraction(1, 3), 0]]) == [[0, 3],
                                                      [Fraction(1, 2), 0]]


def test_cocycle_at_rational_points():
    gens = cocycle_generators()
    points = [[1, 2, 3, 4], [Fraction(1, 2), 0, -1, 1], [2, -1, 1, 3]]
    tested = 0
    for g1 in gens:
        for g2 in gens:
            for v in points:
                try:
                    v1 = act_at(g1, v)
                    lhs = chi0_at(g1 * g2, v)
                    rhs = chi0_at(g2, v1) * chi0_at(g1, v)
                except (DegenerateCell, ZeroDivisionError):
                    continue
                tested += 1
                assert lhs == rhs
    assert tested >= 20


def lie_cocycle_elements(k, rng):
    """The six generators of the lie-cocycle check, drawn from rng as the
    check draws them from its seed 300 + k, and their 36 pairwise products."""
    n = 2 * k
    gens = [w0(k), u(k, [rng.randint(-2, 2) for _ in range(n)]),
            u_op(k, [rng.randint(-2, 2) for _ in range(n)])]
    d = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k)]
    h = [[0] * n for _ in range(n)]
    for i in range(k):
        h[i][i], h[n - 1 - i][n - 1 - i] = d[i], 1 / d[i]
    gens.append(levi(k, Fraction(3, 2), h))
    gens += [gens[0] * gens[1], gens[3] * gens[2]]
    return gens + [g1 * g2 for g1 in gens for g2 in gens]


@pytest.mark.parametrize("k", [2, 3])
def test_chi0_is_the_pivot_of_the_full_column(k):
    # chi0_at asks _cell_column for row 0 alone; the full column
    # g^{-1} (1, v, -Q(v)) is the reference
    rng = random.Random(300 + k)
    n = 2 * k
    elts = lie_cocycle_elements(k, rng)
    # the origin and an isotropic point lie outside the big cell of w0
    points = [[0] * n, [1] + [0] * (n - 1)]
    points += [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(n)] for _ in range(6)]
    outside = 0
    for g in elts:
        ginv = mat_inv(g.m)
        for v in points:
            pivot = chi0_at(g, v)
            e, scaled = _point_column(tuple(map(Fraction, v)))
            column = [Fraction(c, g.den * e * e)
                      for c in _cell_column(g, scaled, range(n + 2))]
            assert pivot == column[0]
            # the full column against Gauss-Jordan's inverse
            col = [1] + v + [-Fraction(sum(map(mul, v, reversed(v))), 2)]
            assert column == [sum(map(mul, row, col)) for row in ginv]
            outside += pivot == 0
    assert outside >= 2


def _value_at(f, v, qv):
    """The QLaurent f = num / Q^qexp at a rational point v with Q(v) = qv."""
    return Fraction(f.num.eval(v)) / qv ** f.qexp


@pytest.mark.parametrize("k", [2, 3])
def test_symbolic_and_pointwise_big_cell_agree(k):
    # bruhat_factor's v' and chi0, evaluated at a point off the cone and in
    # the big cell, are act_at and chi0_at there
    rng = random.Random(390 + k)
    n, q = 2 * k, q_form(k)
    factored = tested = 0
    for g in lie_cocycle_elements(k, random.Random(300 + k)):
        try:
            vprime, chi = bruhat_factor(g)
        except (DegenerateCell, NotQLaurent):
            continue
        factored += 1
        for _ in range(6):
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(n)]
            qv, pivot = q.eval(v), chi0_at(g, v)
            if qv == 0 or pivot == 0:
                continue
            tested += 1
            assert act_at(g, v) == [_value_at(f, v, qv) for f in vprime]
            assert pivot == _value_at(chi, v, qv)
    assert factored == 20 and tested >= 100


def test_degenerate_cell_detected():
    # w0 sends the origin outside the big cell
    with pytest.raises(DegenerateCell):
        act_at(w0(K), [0, 0, 0, 0])


def test_point_must_be_rational_of_width_2k():
    g = u(K, [1, 0, 0, 1])
    for at in (chi0_at, act_at):
        with pytest.raises(TypeError):
            at(g, [0.5, 0, 0, 1])
        with pytest.raises(ValueError):
            at(g, [1, 2, 3])


def test_action_matches_inversion():
    v = [1, 2, 1, -1]
    qv = Fraction(1) * 1 * (-1) + 2 * 1  # B(v,v)/2 = v1 v4 + v2 v3
    out = act_at(w0(K), v)
    assert out == [Fraction(-c, qv) for c in v]


def test_elements_of_different_k_do_not_combine():
    # zip would truncate the longer blocks to the shorter ones
    for xi, eta in ((basis(K)[0], basis(K + 1)[0]),
                    (basis(K + 1)[1], basis(K)[-1])):
        with pytest.raises(ValueError, match="different k"):
            xi + eta
        with pytest.raises(ValueError, match="different k"):
            xi.bracket(eta)
