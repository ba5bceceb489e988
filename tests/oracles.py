"""Brute-force references for what the engine computes by a shorter route.

The orbit relations prove that every 3x3 minor of the invariant matrix
vanishes modulo Q(w), and that its middle block satisfies the Pluecker
relations, by a rank-2 factorization of the matrix; ``det3`` and
``nonvanishing_minor`` expand the minors one by one instead, and
``pluecker_residues`` expands the relation of every index quadruple.  The
same factorization, with three pairings that vanish, gives M^2 = 0 modulo
Q(w); ``orbit_square_mod_qw`` squares M with ``lie.mat_mul`` and reduces
every entry instead.
``momentorbit.check_descent`` differentiates the moment pairing once along
the fiber shear; ``shear_defect_by_substitution`` substitutes v + t x for v
in a ring with one more variable t.  The Shapovalov
elements come from a recursion in d that rests on the second-order factors
commuting, run in D_C on canonical representatives;
``shapovalov_series_ambient`` runs it on the ambient operators, and
``shapovalov_multinomial`` expands the d-th power term by term.
The Lie bracket is computed in block coordinates on the nonzero entries;
``matrix_bracket`` takes the commutator of the assembled matrices and reads
the blocks back, and ``mat_sub`` with ``lie.mat_mul`` gives that commutator
by dense products.  ``lie.mat_mul`` reads each row of its right factor once,
by its nonzero entries; ``mat_mul_by_loops`` sums entry by entry over a
plain triple loop.  ``lie.u_op`` conjugates the upper unipotent by the Weyl
inversion; ``u_op_by_matrix`` writes its entries out.  The Laplacian acts
on the Q-Laurent class by a closed form proven once per Q by induction;
``apply_by_quotient_rule`` differentiates one variable at a time instead,
and ``shift_by_products`` checks each step of the induction by full
operator products.  The linear Fourier transform ``tau`` reads each x-left
term as a d-left one and normal-orders it once; ``tau_letterwise``
multiplies the images of the letters one by one.  ``WeylOp.apply`` works
one term at a time and skips the terms whose derivative part lies above
every monomial of its argument; ``apply_termwise`` applies every term to
every monomial on exponent tuples.
``exprparse.tokenize`` reads a token's kind and index fields straight from
the group that matched; ``tokenize_groupwise`` filters the tuple of all
groups of the match for every token.  ``coneops.is_ideal_preserving``
decides whether an operator a normalizes (Q*) from the one commutator
[a, Q*]; ``preserves_ideal_by_monomials`` applies a to Q* m for every
monomial m up to the order of a instead.  The products of ``Poly``, ``WeylOp`` and
``GenWord`` run in the one frame of ``poly.TermMap``, which sums the
integer numerators of the factors and keeps the sums over the product of
their denominators, in lowest terms, until the values are read;
``poly_mul_pairwise``, ``weyl_mul_pairwise`` and ``genword_mul_pairwise``
sum one exact rational product per pair of terms, and ``bilinear_eager``
runs a kernel in the same frame but divides every output term at once.  ``WeylOp.commutator`` sums only the exchange
terms that do not cancel; ``commutator_by_products`` subtracts the two full
products.  ``momentorbit.moment`` and ``symbol_invariant`` pair an element
with the one invariant matrix ``orbit_matrix``; ``moment_by_blocks`` and
``symbol_by_blocks`` write each layout out block type by block type, and
``phase_euler_by_pairs`` sums the conjugate pairs one by one.
``poly.normal_form_mod_single`` takes the terms of its dividend from a
max-heap, on integer numerators; ``normal_form_by_max`` takes the largest
remaining term by ``max`` at every step, on the rational coefficients, and
``normal_form_eager`` is the heap division with its last pass, which
divides every output term by the dividend's denominator.
``ConeOp.canonical`` and the two right divisions of ``WeylOp`` divide a
whole term map in one pass, on one half of its keys; ``canonical_by_buckets``,
``divide_right_by_mult_by_buckets`` and
``divide_right_by_constcoef_by_buckets`` split it into one ``Poly`` per
derivative part (``dleft_by_buckets`` for the d-left form) or per
multiplication part (``xleft_coeffs``), divide each alone and reassemble
the result, ``from_dleft`` reordering a d-left form back.
``WeylOp.apply`` makes one pass per term of the operator and skips the
terms above every monomial of its argument; ``apply_by_buckets`` groups the
terms by derivative part in a dict and tests every part.
``harmonic.kelvin`` takes the homogeneous parts of the numerator from
one walk of its sorted keys and sums them by Horner's rule in Q;
``kelvin_termwise`` raises Q to a fresh power for every term.  The engine
reads exponents in place; ``exponent_items``, ``poly_sorted_terms`` and
``weyl_sorted_terms`` give the exponent tuples that the tests compare.
``coneops.letter_op`` realizes a generator letter as ``rho_tilde`` of its
Lie preimage; ``euler_weight_op``, ``xx_op``, ``yy_op``, ``d_op``, ``b_op``
and ``c_op`` write the letters out by hand as operators on the dual space,
and ``letter_by_formula`` picks the formula of a letter.
``lie.generated_dimension`` brackets only the generators with the elements
of the closure that raised its rank, breadth first;
``subalgebra_dimension_by_saturation`` brackets every pair of a basis of
the span until the span stops growing.
``exprparse.eval_fourier`` folds the parse tree of a generator expression
in D_C, cutting every product to its canonical representative;
``genword_eval_by_words`` multiplies the words of a generator word out in
the ambient Weyl algebra.
``quadricops shapovalov`` reads the class of B_d off
``closed_form_induction``; ``shapovalov_cli_by_expansion`` builds B_d with
``shapovalov_expand`` and compares it with the closed form's class.
``poly.monomials`` enumerates a graded piece as sorted sums of packed
variables; ``monomials_up_to`` walks the exponent tuples of every degree up
to a bound recursively, in lex order, which within one degree is graded lex.
``harmonic_decompose`` writes the Laplacian matrix on Sym^d row by row,
each row of Sym^(d-2) at its k columns; ``laplacian_by_columns`` writes
it column by column, testing every monomial of degree d against the k
divisors x_i y_(k+1-i).
The text printers of ``Poly``, ``WeylOp`` and ``ConeOp`` walk the sorted
packed keys once and read each exponent in place; ``poly_text_by_tuples``,
``weyl_text_by_tuples``, ``canonical_text_by_buckets`` and
``canonical_json_by_buckets`` unpack every key into an exponent tuple and
print a class one ``Poly`` per derivative part, grouped by ``xleft``.
"""

import json
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import comb, factorial, lcm, perm

import sympy

from quadricops import momentorbit
from quadricops.coneops import ConeOp, GenWord, letter_op
from quadricops.exprparse import (MAX_TOKENS, _TOKEN, IndexOutOfRange,
                                  ParseError, _regex)
from quadricops.lie import GroupElt, LieElt, mat_mul
from quadricops.momentorbit import (block_var, orbit_matrix, v_vector,
                                    x_vector)
from quadricops.poly import (Poly, QLaurent, add_terms, b_pair,
                             check_degrees, divides_exactly, dual, falling,
                             falling_spec, guard, mdegree, monomials,
                             normal_form_mod_single, q_form, pack, q_of,
                             qcoef, qdiv, reduce_mod, signed_text, unit,
                             unpack)
from quadricops.shapovalov import (FactorsDoNotCommute, euler_to_weyl,
                                   fourier_roots_bezout, shapovalov_closed,
                                   shapovalov_expand, shapovalov_factors)
from quadricops.weyl import (NotDivisible, WeylOp, euler_op, halves,
                             laplacian_op, reorder)


def det3(M, rows, cols) -> Poly:
    (a, b, c) = rows
    (d, e, f) = cols
    return (M[a][d] * (M[b][e] * M[c][f] - M[b][f] * M[c][e])
            - M[a][e] * (M[b][d] * M[c][f] - M[b][f] * M[c][d])
            + M[a][f] * (M[b][d] * M[c][e] - M[b][e] * M[c][d]))


def nonvanishing_minor(k: int, M=None):
    """The first (rows, cols) whose 3x3 minor of the orbit matrix is not zero
    modulo Q(w), or None when every minor vanishes."""
    if M is None:
        M = orbit_matrix(k)
    qw = q_of(x_vector(k))
    idx = range(len(M))
    for rows in combinations(idx, 3):
        for cols in combinations(idx, 3):
            if not normal_form_mod_single(det3(M, rows, cols), qw)[1].is_zero():
                return rows, cols
    return None


def pluecker_residues(k: int) -> list:
    """(i, j, l, m) and the Pluecker relation of the middle block X of the
    orbit matrix at it, reduced modulo Q(w), for every quadruple
    i < j < l < m, with bar(i) = dual(i):
    X[i][bar j] X[l][bar m] - X[i][bar l] X[j][bar m] + X[i][bar m] X[j][bar l].
    """
    n = 2 * k
    M = orbit_matrix(k)
    X = [row[1:n + 1] for row in M[1:n + 1]]
    qw = q_of(x_vector(k))
    return [((i, j, l, m),
             reduce_mod(X[i][dual(n, j)] * X[l][dual(n, m)]
                        - X[i][dual(n, l)] * X[j][dual(n, m)]
                        + X[i][dual(n, m)] * X[j][dual(n, l)], qw))
            for i, j, l, m in combinations(range(n), 4)]


def orbit_square_mod_qw(k: int) -> list:
    """Every entry of M^2, for M the orbit matrix, reduced modulo Q(w)."""
    qw = q_of(x_vector(k))
    M = orbit_matrix(k)
    return [[reduce_mod(c, qw) for c in row] for row in mat_mul(M, M)]


def euler_weight_op(k: int) -> WeylOp:
    """E + k - 1, the shifted Euler operator central to the weight ladder."""
    return euler_op(k) + WeylOp.const(2 * k, k - 1)


def xx_op(k: int, i: int) -> WeylOp:
    """XX_i = (E + k - 1) d_{y_{k+1-i}} - x_i Delta   (i is 1-based)."""
    n = 2 * k
    return (euler_weight_op(k) * WeylOp.partial(n, dual(n, i - 1))
            - WeylOp.mult(Poly.var(n, i - 1)) * laplacian_op(k))


def yy_op(k: int, i: int) -> WeylOp:
    """YY_i = (E + k - 1) d_{x_{k+1-i}} - y_i Delta   (i is 1-based)."""
    n = 2 * k
    return (euler_weight_op(k) * WeylOp.partial(n, dual(n, k + i - 1))
            - WeylOp.mult(Poly.var(n, k + i - 1)) * laplacian_op(k))


def d_op(k: int, i: int, j: int) -> WeylOp:
    """D_ij = x_j d_{x_i} - y_{k+1-i} d_{y_{k+1-j}}   (1-based indices)."""
    n = 2 * k
    return (WeylOp.mult(Poly.var(n, j - 1)) * WeylOp.partial(n, i - 1)
            - WeylOp.mult(Poly.var(n, dual(n, i - 1)))
            * WeylOp.partial(n, dual(n, j - 1)))


def b_op(k: int, i: int, j: int) -> WeylOp:
    """B_ij = y_{k+1-j} d_{x_i} - y_{k+1-i} d_{x_j}   (1-based, i < j)."""
    n = 2 * k
    return (WeylOp.mult(Poly.var(n, dual(n, j - 1))) * WeylOp.partial(n, i - 1)
            - WeylOp.mult(Poly.var(n, dual(n, i - 1))) * WeylOp.partial(n, j - 1))


def c_op(k: int, i: int, j: int) -> WeylOp:
    """C_ij = x_j d_{y_{k+1-i}} - x_i d_{y_{k+1-j}}   (1-based, i < j)."""
    n = 2 * k
    return (WeylOp.mult(Poly.var(n, j - 1)) * WeylOp.partial(n, dual(n, i - 1))
            - WeylOp.mult(Poly.var(n, i - 1)) * WeylOp.partial(n, dual(n, j - 1)))


def letter_by_formula(k: int, letter) -> WeylOp:
    """The hand-written operator of a letter of ``coneops.alphabet(k)``."""
    kind, n = letter[0], 2 * k
    if kind == "x":
        return WeylOp.mult(Poly.var(n, letter[1] - 1))
    if kind == "y":
        return WeylOp.mult(Poly.var(n, k + letter[1] - 1))
    if kind == "Etil":
        return euler_weight_op(k)
    return {"XX": xx_op, "YY": yy_op, "D": d_op, "B": b_op,
            "C": c_op}[kind](k, *letter[1:])


def shapovalov_multinomial(d: int, k: int) -> WeylOp:
    """B_d by the multinomial expansion of B((x,y),(u,v))^d, with u_j -> XX_j
    and v_j -> YY_j: one product Y^alpha X^beta per composition of d into 2k
    parts, built from the identity, times the multinomial coefficient and
    the monomial x^alpha y^beta on the left."""
    n = 2 * k
    total = WeylOp.zero(n)
    XX = [xx_op(k, i + 1) for i in range(k)]
    YY = [yy_op(k, i + 1) for i in range(k)]
    for ab in (m for m in monomials_up_to(n, d) if sum(m) == d):
        alpha, beta = ab[:k], ab[k:]
        coef = factorial(d)
        for e in ab:
            coef = qdiv(coef, factorial(e))
        op = WeylOp.identity(n)
        for i in range(k):
            for _ in range(alpha[i]):
                op = op * YY[k - 1 - i]
            for _ in range(beta[i]):
                op = op * XX[k - 1 - i]
        total = total + WeylOp.mult(Poly.monomial(ab, coef)) * op
    return total


def shapovalov_series_ambient(dmax: int, k: int) -> list:
    """[B_1, ..., B_dmax] as ambient operators, each wrapped as a cone
    operator: the recursion B_d = sum_j m_j B_(d-1) F_j run in the Weyl
    algebra on the ambient B_(d-1), which ``shapovalov_series`` replaces
    by its canonical representative."""
    n = 2 * k
    factors = shapovalov_factors(k)
    for (_, p, f), (_, q, g) in combinations(factors, 2):
        if f.commutator(g):
            raise FactorsDoNotCommute(f"{p} and {q} do not commute")
    prev, series = WeylOp.identity(n), []
    for _ in range(dmax):
        terms: dict = {}
        for shift, _, f in factors:
            add_terms(terms, ((key + shift, c)
                              for key, c in (prev * f).terms.items()))
        prev = WeylOp(n, terms)
        series.append(ConeOp(prev))
    return series


def shapovalov_cli_by_expansion(d: int, k: int) -> dict:
    """The stdout and exit code of ``shapovalov --d d --k k`` by format,
    with B_d built term by term and compared with the closed form."""
    expanded = shapovalov_expand(d, k)
    closed = shapovalov_closed(d, k)
    a, b = fourier_roots_bezout(d, k)

    def factor(shift: int) -> str:
        if shift == 0:
            return "E"
        return f"(E + {shift})" if shift > 0 else f"(E - {-shift})"
    factors = ([factor(1 - j) for j in range(1, d + 1)]
               + [factor(k - j - 1) for j in range(1, d + 1)])
    matches = expanded == ConeOp(euler_to_weyl(closed, k))
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
    lines = [
        f"element (d={d}, k={k})",
        f"expanded canonical class: {obj['expanded_class']}",
        f"closed form: {obj['closed_form']} = {obj['closed_factored']}",
        f"Bezout pair: a = {obj['bezout_a']}; b = {obj['bezout_b']}",
        f"expanded equals closed: {matches}",
    ]
    code = 0 if matches else 1
    return {"json": (json.dumps(obj, indent=2, sort_keys=True) + "\n", code),
            "text": ("\n".join(lines) + "\n", code)}


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul_by_loops(a, b):
    """a b entry by entry: the products of the nonzero pairs, summed in
    order from the first one, and the ``int`` 0 where there is none."""
    out = []
    for i in range(len(a)):
        out.append([])
        for j in range(len(b[0])):
            terms = [a[i][l] * b[l][j] for l in range(len(b))
                     if a[i][l] and b[l][j]]
            out[i].append(sum(terms[1:], terms[0]) if terms else 0)
    return out


def matrix_bracket(xi: LieElt, eta: LieElt) -> LieElt:
    """[xi, eta] as the commutator of the (2k+2)-square matrices, by dense
    products, read back into blocks; raises ValueError when the commutator
    does not assemble from its blocks (it left the conformal Lie algebra)."""
    k, n = xi.k, 2 * xi.k + 2
    a, b = xi.matrix(), eta.matrix()
    m = [[sum(a[r][l] * b[l][c] - b[r][l] * a[l][c] for l in range(n))
          for c in range(n)] for r in range(n)]
    mid = range(1, n - 1)
    elt = LieElt(k, m[0][0], [m[i][0] for i in mid],
                 [[m[i][j] for j in mid] for i in mid],
                 [m[i][n - 1] for i in mid])
    if elt.matrix() != m:
        raise ValueError("matrix is not in the conformal Lie algebra")
    return elt


def blocks_are_canonical(x: LieElt) -> bool:
    """mu, X and lam each hold their nonzero entries sorted by index, each
    index once and in range, an int for the vectors and a pair of ints for
    the Levi block: equality and the rho_tilde memo key rest on it."""
    n = 2 * x.k

    def in_range(i):
        return type(i) is int and 0 <= i < n

    for block, pair in ((x.mu, False), (x.X, True), (x.lam, False)):
        keys = [ix for ix, _ in block]
        if (type(block) is not tuple or keys != sorted(set(keys))
                or not all(c for _, c in block)):
            return False
        if not all(type(ix) is tuple and len(ix) == 2
                   and all(map(in_range, ix)) if pair else in_range(ix)
                   for ix in keys):
            return False
    return True


def subalgebra_dimension_by_saturation(elts) -> int:
    """The dimension of the Lie subalgebra that ``elts`` generate: the span
    is closed under the matrix bracket of every pair of its basis, round by
    round, until a round adds nothing, and each rank is sympy's."""
    def flat(xi):
        return [c for row in xi.matrix() for c in row]

    span = list(elts)
    while True:
        rows = sympy.Matrix([flat(xi) for xi in span])
        # the rows at the pivots of the transpose are a basis of the span
        span = [span[i] for i in rows.T.rref()[1]]
        grown = span + [matrix_bracket(a, b) for a, b in combinations(span, 2)]
        if sympy.Matrix([flat(xi) for xi in grown]).rank() == len(span):
            return len(span)
        span = grown


def u_op_by_matrix(k: int, v) -> GroupElt:
    """The opposite unipotent of v written out entry by entry: 1 on the
    diagonal, v below the corner, -J_V v in the last row and -Q(v) in the
    bottom-left corner."""
    n = 2 * k
    m = [[int(i == j) for j in range(n + 2)] for i in range(n + 2)]
    for j in range(n):
        m[1 + j][0] = v[j]
        m[n + 1][1 + j] = -v[dual(n, j)]
    m[n + 1][0] = -q_of(v)
    return GroupElt(k, m)


def apply_by_quotient_rule(op: WeylOp, f: QLaurent) -> QLaurent:
    """op applied to the Q-Laurent function f term by term: each x-left term
    p d^beta differentiates f one variable at a time by the quotient rule
    (``QLaurent.deriv``), then multiplies by p."""
    n = op.nvars
    total = QLaurent(f.k, Poly.zero(n), 0)
    for beta, p in xleft(op).items():
        g = f
        for i, e in enumerate(unpack(beta, n)):
            for _ in range(e):
                g = g.deriv(i)
        total = total + QLaurent.from_poly(p) * g
    return total


def shift_by_products(k: int, m: int):
    """(Q^(m+1) Delta, R_m Q^m) by full Weyl products, with R_m = Q Delta
    - m E + m(m+1-k), the operator that ``harmonic.laplacian_qlaurent``
    applies factor by factor; the two are equal when the shift holds."""
    q, lap = q_form(k), laplacian_op(k)
    qm = q ** m
    rm = WeylOp.mult(q) * lap - euler_op(k).scale(m) + m * (m + 1 - k)
    return WeylOp.mult(q * qm) * lap, rm * WeylOp.mult(qm)


def laplacian_by_columns(d: int, k: int) -> list:
    """The matrix of Delta on Sym^d as rows {column index: entry}, one per
    monomial of degree d - 2, filled column by column: Delta x^m has the
    term m_i m_dual(i) x^(m - u_i) for each u_i = e_i + e_dual(i) that
    divides x^m."""
    n = 2 * k
    target = monomials(n, d - 2)
    trow = {m: i for i, m in enumerate(target)}
    g = guard(n)
    pairs = [(u, falling_spec(u, n))
             for u in (unit(n, i) + unit(n, dual(n, i)) for i in range(k))]
    rows = [{} for _ in target]
    for j, m in enumerate(monomials(n, d)):
        for u, spec in pairs:
            if not (m - u) & g:
                rows[trow[m - u]][j] = falling(m, spec)
    return rows


def exponent_items(p: Poly):
    """The terms of p as (exponent tuple, coefficient) pairs, in the order
    of its term map."""
    return ((unpack(m, p.nvars), c) for m, c in p.terms.items())


def poly_sorted_terms(p: Poly) -> list:
    """(exponent tuple, coefficient) pairs of p, largest monomial first."""
    return [(unpack(m, p.nvars), p.terms[m])
            for m in sorted(p.terms, reverse=True)]


def weyl_sorted_terms(op: WeylOp) -> list:
    """((alpha tuple, beta tuple), coefficient) pairs of op in key order."""
    n = op.nvars
    s, mask = halves(n)
    return [((unpack(key & mask, n), unpack(key >> s, n)), op.terms[key])
            for key in sorted(op.terms)]


def xleft(op: WeylOp) -> dict:
    """The stored x-left form of op grouped by derivative part, as
    {packed beta: Poly coefficient}; the coefficient acts after d^beta."""
    s, mask = halves(op.nvars)
    out: dict = {}
    for key, c in op.terms.items():
        out.setdefault(key >> s, {})[key & mask] = c
    return {b: Poly(op.nvars, tm) for b, tm in out.items()}


def dleft_by_buckets(op: WeylOp) -> dict:
    """The d-left normal form of op as {packed beta: Poly coefficient}: the
    term map that ``weyl.reorder`` gives, one ``Poly`` per derivative part,
    as ``xleft`` groups it."""
    return xleft(WeylOp(op.nvars, reorder(op.terms, op.nvars, -1)))


def from_dleft(n: int, coeffs: dict) -> WeylOp:
    """The operator of a d-left form {packed beta: Poly coefficient}: each
    term d^beta x^alpha reordered into x-left form."""
    s = halves(n)[0]
    return WeylOp(n, reorder({beta << s | alpha: c
                              for beta, p in coeffs.items()
                              for alpha, c in p.terms.items()}, n, 1))


def xleft_coeffs(op: WeylOp) -> dict:
    """The x-left form of op as {packed alpha: Poly in the d-symbols}."""
    s, mask = halves(op.nvars)
    out: dict = {}
    for key, c in op.terms.items():
        out.setdefault(key & mask, {})[key >> s] = c
    return {alpha: Poly(op.nvars, tm) for alpha, tm in out.items()}


def canonical_by_buckets(op: WeylOp) -> WeylOp:
    """The canonical representative of the cone class of op, one derivative
    part at a time: each x-left coefficient reduced mod Q* as its own
    ``Poly``, and op itself when no x-part is divisible by x1*yk."""
    n = op.nvars
    qs = q_form(n // 2)
    lm, g = max(qs.terms), guard(n)
    s, mask = halves(n)
    if all((key & mask) - lm & g for key in op.terms):
        return op
    terms = {}
    for beta, p in xleft(op).items():
        for alpha, c in reduce_mod(p, qs).terms.items():
            terms[beta << s | alpha] = c
    return WeylOp(n, terms)


def divide_right_by_mult_by_buckets(w: WeylOp, q: Poly) -> WeylOp:
    """u with w = u * (mult by q), each d-left coefficient divided by q as
    its own ``Poly``; raises NotDivisible at the first that q does not
    divide."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quo = {}
    for beta, v in dleft_by_buckets(w).items():
        u = divides_exactly(q, v)
        if u is None:
            raise NotDivisible(f"d-left coefficient at beta={beta}")
        quo[beta] = u
    return from_dleft(w.nvars, quo)


def divide_right_by_constcoef_by_buckets(w: WeylOp, d: WeylOp) -> WeylOp:
    """u with w = u * d for a constant-coefficient d, each x-left
    coefficient divided by the symbol of d as its own ``Poly``; raises
    NotDivisible at the first that the symbol does not divide."""
    n = w.nvars
    s, mask = halves(n)
    if any(key & mask for key in d.terms):
        raise ValueError("divisor must have constant coefficients")
    dsym = Poly(n, {key >> s: c for key, c in d.terms.items()})
    quo = {}
    for alpha, qa in xleft_coeffs(w).items():
        u = divides_exactly(dsym, qa)
        if u is None:
            raise NotDivisible(f"x-left coefficient at alpha={alpha}")
        quo.update((b << s | alpha, c) for b, c in u.terms.items())
    return WeylOp(n, quo)


def tau_letterwise(a: WeylOp) -> WeylOp:
    """tau(a) letter by letter: each x-left term x^alpha d^beta becomes the
    product of d_i for every x_i, then of -x_i for every d_i, built from the
    identity by single products."""
    n = a.nvars
    out = WeylOp.zero(n)
    for (alpha, beta), c in weyl_sorted_terms(a):
        word = WeylOp.const(n, c)
        for i in range(n):
            for _ in range(alpha[i]):
                word = word * WeylOp.partial(n, i)
        for i in range(n):
            for _ in range(beta[i]):
                word = word * WeylOp.mult(Poly.var(n, i, -1))
        out = out + word
    return out


def apply_termwise(op: WeylOp, f: Poly) -> Poly:
    """op applied to f term by term on exponent tuples: c x^alpha d^beta
    sends c_m x^m, for every m >= beta, to
    c c_m prod_i m_i! / (m_i - beta_i)! x^(m - beta + alpha)."""
    n = op.nvars
    terms: dict = {}
    for (alpha, beta), c in weyl_sorted_terms(op):
        for m, cm in exponent_items(f):
            if any(mi < bi for mi, bi in zip(m, beta)):
                continue
            w = c * cm
            for mi, bi in zip(m, beta):
                w *= perm(mi, bi)
            key = pack([mi - bi + ai for mi, bi, ai in zip(m, beta, alpha)])
            terms[key] = terms.get(key, 0) + w
    return Poly(n, terms)


def apply_by_buckets(op: WeylOp, f: Poly) -> Poly:
    """op applied to f one derivative part b at a time, the parts kept in a
    dict of buckets: every part, the parts above every monomial of f
    included, is tested against every monomial of f."""
    n, g = op.nvars, guard(op.nvars)
    s, mask = halves(n)
    buckets: dict = {}
    for key, c in op.terms.items():
        b = key >> s
        buckets.setdefault(b, []).append(((key & mask) - b, c))
    terms: dict = {}
    for b, offsets in buckets.items():
        kept = [(m, cm) for m, cm in f.terms.items() if not (m - b) & g]
        if not kept:
            continue  # d^b kills f
        check_degrees(max(offsets)[0] + b, max(kept)[0] - b, n)
        spec = falling_spec(b, n)
        for m, cm in kept:
            w = cm * falling(m, spec) if spec else cm
            for off, c in offsets:
                t = terms.get(m + off, 0) + c * w
                if t:
                    terms[m + off] = t
                else:
                    del terms[m + off]
    return Poly(n, terms)


def kelvin_termwise(f: QLaurent) -> QLaurent:
    """The Kelvin transform of f one term at a time: each term c x^m of
    degree d adds (-1)^d c x^m Q^(deg - d) to the numerator."""
    k = f.k
    n = 2 * k
    q = q_form(k)
    deg = max(f.num.degree(), 0)
    num = Poly.zero(n)
    for m, c in f.num.terms.items():
        d = mdegree(m, n)
        sign = -1 if d % 2 else 1
        num = num + Poly(n, {m: c * sign}) * q ** (deg - d)
    sign = -1 if (k - 1) % 2 else 1
    shift = (k - 1) + deg - f.qexp
    if shift >= 0:
        return QLaurent(k, num.scale(sign), shift)
    return QLaurent(k, num.scale(sign) * q ** (-shift), 0)


def poly_mul_pairwise(a: Poly, b: Poly) -> Poly:
    """a * b with one rational product and sum per pair of terms."""
    terms: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 + m2
            s = terms.get(m, 0) + c1 * c2
            if s:
                terms[m] = s
            else:
                del terms[m]
    return Poly(a.nvars, terms)


def _numerators_of(terms: dict):
    """(d, nums) of a map of values: their least common denominator and the
    integer numerators over it."""
    d = lcm(*(qcoef(c).denominator for c in terms.values()))
    return d, {key: c.numerator * (d // c.denominator)
               for key, c in terms.items()}


def bilinear_eager(a, b, kernel):
    """kernel(t1, t2, n) on the integer numerators of the values of a and b
    over one common denominator d, then one division by d per output term:
    every coefficient a product reads, as an ``int`` exactly where it is
    integral."""
    n = a.nvars
    if not (a.terms and b.terms):
        return type(a)(n, {})
    (d1, t1), (d2, t2) = _numerators_of(a.terms), _numerators_of(b.terms)
    terms, d = kernel(t1, t2, n), d1 * d2
    return type(a)(n, {key: qdiv(c, d) for key, c in terms.items()})


def normal_form_eager(p, d, scale: int = 1):
    """(quotient, remainder) of p by d by the heap division of
    ``normal_form_mod_single``, on the integer numerators of the values of p
    over their denominator e, with a last pass that divides every output
    term by e, whatever d is."""
    g = guard(p.nvars) * scale
    lm = max(d.terms)
    lc = d.terms[lm]
    tail = [((m2 - lm) * scale, c2) for m2, c2 in d.terms.items() if m2 != lm]
    lm *= scale
    quotient: dict = {}
    remainder: dict = {}
    e, work = _numerators_of(p.terms)
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        if (m - lm) & g:
            remainder[m] = c
            continue
        f = qdiv(c, lc)
        quotient[m - lm] = f
        for off, c2 in tail:
            if m + off not in work:
                heappush(heap, -(m + off))
            add_terms(work, [(m + off, -f * c2)])
    return tuple(type(p)(p.nvars, {m: qdiv(c, e) for m, c in part.items()})
                 for part in (quotient, remainder))


def normal_form_by_max(p: Poly, d: Poly):
    """(quotient, remainder) of p by d in graded lex order, on the rational
    coefficients of p, taking the largest remaining monomial by ``max`` at
    every step."""
    g = guard(p.nvars)
    lm = max(d.terms)
    lc = d.terms[lm]
    tail = [(m2 - lm, c2) for m2, c2 in d.terms.items() if m2 != lm]
    quotient: dict = {}
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        m = max(work)
        c = work.pop(m)
        if (m - lm) & g:
            remainder[m] = qcoef(c)
            continue
        f = qdiv(c, lc)
        quotient[m - lm] = f
        add_terms(work, ((m + off, -f * c2) for off, c2 in tail))
    return Poly(p.nvars, quotient), Poly(p.nvars, remainder)


def genword_mul_pairwise(a: GenWord, b: GenWord) -> GenWord:
    """a * b with one rational product and sum per pair of words, each pair
    giving the concatenation of its two words."""
    terms: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            terms[w1 + w2] = terms.get(w1 + w2, 0) + c1 * c2
    return GenWord(a.k, terms)


def genword_eval_by_words(w: GenWord) -> WeylOp:
    """The ambient operator of a generator word, word by word.

    The words are multiplied out in sorted order, keeping the products of
    the prefixes of the last word, so words with a common prefix share its
    product; the terms are summed into one dict.
    """
    n = 2 * w.k
    last, prefix = (), [WeylOp.identity(n)]  # prefix[i]: last[:i]
    total: dict = {}
    for word in sorted(w.terms):
        keep = 0
        while keep < min(len(word), len(last)) and word[keep] == last[keep]:
            keep += 1
        del prefix[keep + 1:]
        for letter in word[keep:]:
            prefix.append(prefix[-1] * letter_op(w.k, letter))
        last = word
        c = w.terms[word]
        add_terms(total, ((key, c * v) for key, v in prefix[-1].terms.items()))
    return WeylOp(n, total)


def weyl_mul_pairwise(a: WeylOp, b: WeylOp) -> WeylOp:
    """a * b with one rational product per pair of terms and per term of the
    exchange d^b1 x^a2 = sum_t w_t x^(a2-t) d^(b1-t), on exponent tuples:
    w_t = prod C(b1_i,t_i) C(a2_i,t_i) t_i! over every t <= min(b1, a2),
    t = 0 included."""
    terms: dict = {}
    for (a1, b1), c1 in weyl_sorted_terms(a):
        for (a2, b2), c2 in weyl_sorted_terms(b):
            for t in product(*(range(min(p, q) + 1) for p, q in zip(b1, a2))):
                w = 1
                for p, q, ti in zip(b1, a2, t):
                    w *= comb(p, ti) * comb(q, ti) * factorial(ti)
                key = (tuple(p + q - ti for p, q, ti in zip(a1, a2, t)),
                       tuple(p + q - ti for p, q, ti in zip(b1, b2, t)))
                terms[key] = terms.get(key, 0) + c1 * c2 * w
    return WeylOp.from_exponents(a.nvars, terms)


def commutator_by_products(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] as a * b - b * a."""
    return a * b - b * a


def _no_token_by_completion(src: str, start: int, pos: int) -> ParseError:
    """The error for text at start (pos with the whitespace before it) that
    no token matches.  Where the text begins with an atom name, a prefix of
    it is viable when one of the completions "", "0", "00", "_0" makes it a
    whole token of that atom; the error names the character that ends the
    longest viable prefix, or the missing index at the end of the input."""
    def viable(text, name):
        return any((m := _regex(_TOKEN).fullmatch(text + c))
                   and m.lastgroup == name
                   for c in ("", "0", "00", "_0"))

    for name in ("x", "y", "dx", "dy", "XX", "YY", "Dop", "Bop", "Cop"):
        if src.startswith(name, start):
            end = start + len(name)
            while end < len(src) and viable(src[start:end + 1], name):
                end += 1
            if end == len(src):
                return ParseError(f"missing index after {name!r}", end,
                                  expected=("index",))
            return ParseError(f"unexpected character {src[end]!r}", end,
                              expected=("index",))
    return ParseError(f"unexpected character {src[start]!r}", pos,
                      expected=("token",))


def tokenize_groupwise(src: str, k: int):
    """``exprparse.tokenize`` as it read every index from the filtered tuple
    of all groups of the match."""
    pos = 0
    out = []
    while pos < len(src):
        m = _regex(_TOKEN).match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise _no_token_by_completion(src, len(src) - len(stripped), pos)
        if len(out) == MAX_TOKENS:
            raise ParseError(f"expression has more than {MAX_TOKENS} tokens",
                             m.start(), expected=("end",))
        kind = m.lastgroup if m.lastgroup != "op" else m.group("op")
        groups = [g for g in m.groups() if g is not None]
        if m.lastgroup in ("XX", "YY", "dx", "dy", "x", "y"):
            i = int(groups[1])
            if not 1 <= i <= k:
                raise IndexOutOfRange(
                    f"index {i} out of range for k={k} in {m.group().strip()!r}")
            out.append((m.lastgroup, (i,), m.start()))
        elif m.lastgroup in ("Dop", "Bop", "Cop"):
            if src[m.end():m.end() + 1] in tuple("0123456789"):
                raise ParseError(
                    f"digit after {m.group().strip()!r}; write the pair as "
                    f"{m.lastgroup}<i>_<j> when an index has two digits",
                    m.end(), expected=("_",))
            i, j = int(groups[1]), int(groups[2])
            if not (1 <= i <= k and 1 <= j <= k):
                raise IndexOutOfRange(
                    f"indices ({i},{j}) out of range for k={k}")
            if m.lastgroup in ("Bop", "Cop") and not i < j:
                raise IndexOutOfRange(
                    f"{m.lastgroup} requires i < j, got ({i},{j})")
            out.append((m.lastgroup, (i, j), m.start()))
        elif m.lastgroup == "int":
            out.append(("int", (int(groups[0]),), m.start()))
        elif m.lastgroup in ("E", "Delta", "Q"):
            out.append((m.lastgroup, (), m.start()))
        else:
            out.append((kind, (), m.start()))
        pos = m.end()
    out.append(("end", (), len(src)))
    return out


def monomials_up_to(nvars: int, degree: int):
    """All exponent tuples of total degree <= degree."""
    def rec(pos, rem):
        if pos == nvars:
            yield ()
            return
        for e in range(rem + 1):
            for tail in rec(pos + 1, rem - e):
                yield (e,) + tail
    yield from rec(0, degree)


def preserves_ideal_by_monomials(a: WeylOp) -> bool:
    """Whether a(Q* m) lies in (Q*) for every monomial m of degree at most
    the order of a; higher degrees follow by triangularity of the action in
    total degree."""
    qs = q_form(a.nvars // 2)
    for m in monomials_up_to(a.nvars, max(a.order(), 0)):
        if not reduce_mod(a.apply(qs * Poly.monomial(m)), qs).is_zero():
            return False
    return True


def moment_by_blocks(xi: LieElt) -> Poly:
    """The moment pairing in the V layout, block type by block type:

    B(x,mu) + B(x,Xv) - alpha B(x,v) + B(lam,v) B(x,v) - Q(v) B(x,lam).
    """
    k = xi.k
    nv = 4 * k
    v = v_vector(k)
    x = x_vector(k)
    # mu and lam as dense vectors of constants, from their stored entries
    mu, lam = ([Poly.zero(nv) for _ in v] for _ in range(2))
    for dense, block in ((mu, xi.mu), (lam, xi.lam)):
        for i, c in block:
            dense[i] = Poly.const(nv, c)
    xv = [Poly.zero(nv) for _ in v]
    for (i, j), c in xi.X:
        xv[i] = xv[i] + v[j].scale(c)
    out = b_pair(x, mu) + b_pair(x, xv)
    if xi.alpha:
        out = out - b_pair(x, v).scale(xi.alpha)
    if xi.lam:
        out = out + b_pair(lam, v) * b_pair(x, v)
        out = out - q_of(v) * b_pair(x, lam)
    return out


def shear_defect_by_substitution(xi: LieElt) -> Poly:
    """Phi(v + t x, x) - Phi(v, x) mod (Q(x)) for Phi = ``moment(xi)``, in
    the 4k + 1 variables of the phase space and one formal parameter t.

    Looks ``moment`` up in ``momentorbit`` on every call, so a test can feed
    it any phase-space polynomial."""
    k = xi.k
    n, nv = 2 * k, 4 * k + 1
    phi = momentorbit.moment(xi)
    ring = [Poly.var(nv, i) for i in range(nv)]
    v, x, t = ring[:n], ring[n:2 * n], ring[-1]
    sheared = [vi + t * xi_ for vi, xi_ in zip(v, x)]
    return reduce_mod(phi.subs_vars(sheared + x) - phi.subs_vars(v + x),
                      q_of(x))


def symbol_by_blocks(xi: LieElt) -> Poly:
    """The descended invariant function in the cone layout (block 0 the base
    point w, block 1 the fiber point v), block type by block type:
    alpha: -a B(v,w); mu: B(mu, w); X: 1/2 tr((v wedge w) X^T);
    lambda: B(mu_{v,w}, lam) with mu_{v,w} = B(v,w) v - Q(v) w."""
    k = xi.k
    n = 2 * k
    w = v_vector(k)
    v = x_vector(k)
    alpha = b_pair(v, w)
    out = Poly.zero(4 * k)
    if xi.alpha:
        out = out - alpha.scale(xi.alpha)
    qv = q_of(v)
    for i, c in xi.mu:
        out = out + w[i].scale(c)
    for i, c in xi.lam:
        out = out + (alpha * v[i] - qv * w[i]).scale(c)
    for (i, j), c in xi.X:
        wedge = w[i] * v[dual(n, j)] - v[i] * w[dual(n, j)]
        out = out + wedge.scale(qdiv(c, 2))
    return out


def phase_euler_by_pairs(k: int) -> Poly:
    """sum_j q_j p_dual(j) over the conjugate pairs, one product each."""
    n = 2 * k
    out = Poly.zero(4 * k)
    for j in range(n):
        out = out + block_var(k, 0, j) * block_var(k, 1, dual(n, j))
    return out


def names_by_parity(nvars: int) -> list:
    """x1..xk, y1..yk when nvars is even; generic v1.. otherwise."""
    if nvars % 2 == 0:
        k = nvars // 2
        return [f"x{i+1}" for i in range(k)] + [f"y{i+1}" for i in range(k)]
    return [f"v{i+1}" for i in range(nvars)]


def mono_text_by_tuple(exps, names) -> str:
    """The monomial with exponent tuple exps, as ``x1^2*y1``; "" for 1."""
    return "*".join(nm if e == 1 else f"{nm}^{e}"
                    for nm, e in zip(names, exps) if e)


def poly_text_by_tuples(p: Poly, names=None) -> str:
    """p as ``Poly.text`` prints it, from its exponent tuples."""
    if names is None:
        names = names_by_parity(p.nvars)
    return signed_text((c, mono_text_by_tuple(m, names))
                       for m, c in poly_sorted_terms(p))


def weyl_text_by_tuples(op: WeylOp) -> str:
    """op as ``WeylOp.text`` prints it, from its pairs of exponent tuples."""
    names = names_by_parity(op.nvars)
    names += ["d" + nm for nm in names]
    return signed_text((c, mono_text_by_tuple(a + b, names))
                       for (a, b), c in weyl_sorted_terms(op))


def canonical_text_by_buckets(c: ConeOp) -> str:
    """The class of c as ``canonical_text`` prints it: one ``Poly`` per
    derivative part of the representative, printed by
    ``poly_text_by_tuples``, in ascending order of the part."""
    n = 2 * c.k
    dnames = ["d" + nm for nm in names_by_parity(n)]
    can = xleft(c.canonical())
    parts = [(poly_text_by_tuples(can[b]),
              mono_text_by_tuple(unpack(b, n), dnames)) for b in sorted(can)]
    return " + ".join(f"({p})*{d}" if d else f"({p})"
                      for p, d in parts) or "0"


def canonical_json_by_buckets(c: ConeOp) -> list:
    """The class of c as ``canonical_json`` gives it, one ``Poly`` per
    derivative part of the representative."""
    can = xleft(c.canonical())
    return [{"d": list(unpack(b, 2 * c.k)), "coefficient": can[b].to_json()}
            for b in sorted(can)]
