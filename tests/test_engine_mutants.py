"""Checks that fail on a wrong engine, one mutant per proof step, per
scale factor of the exact arithmetic and per operator kernel that the
checks share.

Each case replaces one function in the engine module or class that defines
it (a library function, such as ``math.comb``, or an engine helper imported
by name, such as ``poly.monomials``, in the engine module that imports it),
never a name bound in the module ``quadricops.suites`` (a method of a class
defined there, such as ``SuiteReport.from_json_obj``, is replaced on the
class), runs the suite at k=2 and
asserts that the named check fails with the residue of the step that the
mutant breaks, and that the suite exits 1.  The engine memoizes its
constructors and realization images in LRU caches that outlive a test;
``conftest.py`` empties them around every case, so no cached object hides
a mutant and none a mutant built reaches a later test.  Some fakes reach
their check only through a cached caller, so they prove that too.

A fast path that only saves work has a work case instead: its fake keeps
every value and redoes the saved work, and the pin on the products and
powers of the suite at k=3 is what fails.  ``VALUE_BUILDS`` pins, the same
way, the maps over a denominator d > 1 whose values a suite reads.  ``GUARDS``
lists the fast paths of the engine, ``FAST_PATHS`` names the row that
forces the guard of each one wrong, and ``UNGUARDED`` the paths that have
no row yet.
"""

import pytest

from oracles import xx_op, yy_op
from quadricops import (coneops, exprparse, harmonic, lie, momentorbit,
                        poly, shapovalov, suites, weyl)
from quadricops.poly import (Poly, QLaurent, TermMap, dual, mdegree, q_form,
                             q_of)
from quadricops.suites import run_suite


def _wrong_weight_factor(k):
    # F_0 plus the contracted product sum_i XX_i YY_(k+1-i): that part has
    # weight -2, commutes with every factor and is zero on the cone, so
    # B_d keeps its class and its graded scalars and only step 1 can fail
    (m, name, f), *rest = ORIGINAL["shapovalov_factors"](k)
    for i in range(1, k + 1):
        f = f + xx_op(k, i) * yy_op(k, k + 1 - i)
    return [(m, name, f)] + rest


def _factor_squared(k):
    # F_0 F_0 has weight -2, so B_d no longer acts on a graded piece by a
    # scalar and the probes of that piece disagree
    (m, name, f), *rest = ORIGINAL["shapovalov_factors"](k)
    return [(m, name, f * f)] + rest


def _wrong_constant_in_p1(d, k):
    # E (E + k - 1) for E (E + k - 2)
    return ORIGINAL["shapovalov_closed"](d, k + (d == 1))


def _wrong_shift(p, s):
    return ORIGINAL["euler_shift"](p, s - 1)


def _levi_image_negated(xi):
    # the last basis element is in the Levi part, outside the generators
    out = ORIGINAL["rho_amb"](xi)
    return -out if xi == lie.basis(xi.k)[-1] else out


def _generator_missing(k):
    return ORIGINAL["generators"](k)[1:]


def _levi_term_negated(k, X):
    # rho_tilde keeps normalizing the cone ideal, so only the checks fail
    return -ORIGINAL["dual_field"](k, X)


def _is_levi(xi):
    return not (xi.alpha or xi.mu or xi.lam)


def _levi_bracket_negated(xi, eta):
    # the negated bracket is still skew, so the trusted constructor takes it
    out = ORIGINAL["bracket"](xi, eta)
    return out.scale(-1) if _is_levi(xi) and _is_levi(eta) else out


def _denominator_dropped(self, other, kernel):
    # products read the integer numerators of their factors and never
    # divide them back: each factor is taken over the denominator 1
    return ORIGINAL["_bilinear"](type(self)._of(self.nvars, self.nums),
                                 type(other)._of(other.nvars, other.nums),
                                 kernel)


def _point_scale_doubled(point):
    # chi0_at divides by (2e)^2; act_at cancels the scale against its pivot
    e, col = ORIGINAL["_point_column"](point)
    return 2 * e, col


def _refuses_degree_8(d, p):
    # a numerator of degree 8 or more is never divisible, so a Q-Laurent
    # value of high degree keeps the powers of Q it could cancel; reached
    # through the QLaurent constructor, which looks the name up in poly
    return None if p.degree() >= 8 else ORIGINAL["divides_exactly"](d, p)


def _least_term_dropped(t1, t2, n):
    # a product of two factors of two terms or more loses its least term,
    # so Q p no longer reduces to zero modulo Q
    out = ORIGINAL["Poly._product"](t1, t2, n)
    if len(t1) >= 2 and len(t2) >= 2 and out:
        del out[min(out)]
    return out


def _monomial_path_for_two_terms(t1, t2, n):
    # the monomial path of the product taken for a factor of two terms too:
    # products that meet at one key overwrite each other instead of adding,
    # so Q p, Q of two terms at k=2, leaves a remainder modulo Q
    if min(len(t1), len(t2)) == 2:
        return {m1 + m2: c1 * c2 for m1, c1 in t1.items()
                for m2, c2 in t2.items()}
    return ORIGINAL["Poly._product"](t1, t2, n)


def _product_swapped(t1, t2, n):
    # the kernel of b * a for a * b: the opposite product is still
    # associative, so only the checks that keep the factors in order fail
    return ORIGINAL["_product"](t2, t1, n)


def _high_order_dropped(t1, t2, n):
    # the product loses its terms of derivative order above 3; those terms
    # annihilate the suite's test polynomials of degree 3, so only
    # associativity, which compares products as operators, sees the loss
    return {key: c for key, c in ORIGINAL["_product"](t1, t2, n).items()
            if mdegree(key >> weyl.halves(n)[0], n) <= 3}


def _order_one_rows_skipped(t1, t2, n, sign, terms):
    # the guard of the exchange kernel taken for rows of derivative order 1
    # too, not only for those of order 0: x^a d_i loses its exchange terms,
    # so d_x1 x1 comes out x1 d_x1 in every product and commutator
    sh = weyl.halves(n)[0]
    rows = {key: c for key, c in t1.items() if mdegree(key >> sh, n) != 1}
    return ORIGINAL["_exchange_sum"](rows, t2, n, sign, terms)


def _commutator_reversed(a, b):
    # [b, a] = -[a, b]: every commutator comes out negated
    return ORIGINAL["commutator"](b, a)


def _falling_off_by_one(m, spec):
    # d^b sends x^m to x^(m-b) with weight m!/(m-b)! + 1: every operator
    # with a derivative part acts wrongly, so the Laplacian of -Q comes out
    # -2k, and the harmonic checks that apply operators see it
    return ORIGINAL["falling"](m, spec) + 1


def _xx_to_y(letter):
    # XX_i -> y_i: the image of XX keeps its grading, but F(F(XX_i)) = YY_i
    if letter[0] == "XX":
        return ("y", letter[1]), 1
    return ORIGINAL["fourier_letter"](letter)


def _x_to_y(letter):
    # x_i -> y_i: F(F(x_i)) = x_i still, but the image has degree +1
    if letter[0] == "x":
        return ("y", letter[1]), 1
    return ORIGINAL["fourier_letter"](letter)


def _yy_rotated(k, letter):
    # YY_i -> YY_(i mod k + 1): the second-order letters still commute, but
    # the contracted product leaves the zero class and the Shapovalov factors
    # no longer pair with their coordinates; reached only through the cached
    # letter_op
    if letter[0] == "YY":
        letter = ("YY", letter[1] % k + 1)
    return ORIGINAL["letter_preimage"](k, letter)


def _yy_to_y(k, letter):
    # YY_i -> y_i: the translation does not commute with XX_i
    if letter[0] == "YY":
        letter = ("y", letter[1])
    return ORIGINAL["letter_preimage"](k, letter)


def _d12_to_x1(k, letter):
    # D_12 -> x_1: the letter no longer commutes with E, so the weight-zero
    # check cannot take the corollary of the induction and its commutators
    # find [B_1, x_1] outside the zero class
    if letter == ("D", 1, 2):
        letter = ("x", 1)
    return ORIGINAL["letter_preimage"](k, letter)


def _cofactor_shifted(a, b):
    # s + 1 for the Bezout cofactor s, so s a + t b misses g by a
    g, s, t = ORIGINAL["xgcd"](a, b)
    return g, s + 1, t


def _x_vector_swapped(k):
    # the last two fiber coordinates exchanged; reached in the symbol checks
    # only through the cached symbol_invariant
    v = ORIGINAL["x_vector"](k)
    v[-2], v[-1] = v[-1], v[-2]
    return v


def _v_vector_doubled(k):
    # the base coordinates scaled by 2; phase_euler reads the module global,
    # while the suite's own binding of v_vector builds the bracket unscaled
    return [p.scale(2) for p in ORIGINAL["v_vector"](k)]


def _mu_without_q_term(k):
    # mu = B(v,w) v for B(v,w) v - Q(v) w, in its column and in its row;
    # moment reads the mu block only through lambda, so the descent fails
    # first at ('lam', 0)
    n = 2 * k
    m = [list(row) for row in ORIGINAL["orbit_matrix"](k)]
    qv = q_of(momentorbit.v_vector(k))
    w = momentorbit.x_vector(k)
    for i in range(n):
        m[1 + i][0] = m[1 + i][0] + qv * w[i]
        m[n + 1][1 + i] = m[n + 1][1 + i] - qv * w[dual(n, i)]
    return tuple(map(tuple, m))


def _q_power_inverse_negated(p, k):
    # 1/p with the wrong sign: the big-cell factorization of w0 gives v/Q
    return -ORIGINAL["_q_power_inverse"](p, k)


def _deriv_doubled(self, i):
    # twice every partial derivative: the Poisson bracket of two symbols
    # doubles, while the symbol of their commutator does not
    return ORIGINAL["deriv"](self, i).scale(2)


def _symbol_plus_one(self):
    # sigma + 1 is not multiplicative: (sigma(a) + 1)(sigma(b) + 1) carries
    # the cross terms sigma(a) + sigma(b) that sigma(ab) + 1 lacks
    return ORIGINAL["principal_symbol"](self) + 1


def _from_dleft_without_exchange(terms, n, sign):
    # from d-left to x-left, each d^beta x^alpha read as x^alpha d^beta, as
    # if d and x commuted; the suite reaches reorder through weyl
    return dict(terms) if sign == 1 else ORIGINAL["reorder"](terms, n, sign)


def _binomial_one_variable_short(n, r):
    # comb(n - 1, r - 1): dim Sym^d counted in 2k - 1 variables, so the
    # binomial difference of harmonic_dimension misses the harmonics of
    # one variable from degree 1 on
    return ORIGINAL["comb"](n - 1, r - 1)


def _first_monomial_only(n, d):
    # each graded piece cut to its least monomial, the last variable to the
    # d-th power, which the Laplacian sends to 0 at every degree
    return poly.monomials(n, d)[:1]


def _kelvin_weight_lowered(f):
    # -Q K f = (-Q)^(-(k-2)) f(-v/Q): the inversion of the wrong conformal
    # weight, which no longer intertwines the Laplacian; the suite's own
    # binding of kelvin stays exact, so only the intertwining defect, which
    # looks kelvin up in harmonic, sees it
    return ORIGINAL["kelvin"](f) * QLaurent(f.k, -q_form(f.k), 0)


def _b_form_unflipped(k, vec):
    # B(lam, .) read as <lam, .>, no entry moved to its dual: phi of a
    # special conformal element no longer normalizes the Laplacian ideal;
    # the suite's own binding of b_form_poly stays exact, and phi looks the
    # name up in coneops
    return coneops.linear_form(k, vec)


def _letter_plus_identity(k, letter):
    # each letter plus the identity: XX_i(1) and YY_i(1) come out 1, which
    # no multiple of Q* reaches; dirac_relations looks the name up in
    # harmonic
    return ORIGINAL["letter_op"](k, letter) + weyl.WeylOp.identity(2 * k)


def _reduction_skipped(p, q):
    # p returned as it is, not reduced modulo the cone equation: the defect
    # of the exponential is Q(x) itself; exp_harmonicity_defect looks the
    # name up in harmonic
    return p


def _b_pair_doubled(a, b):
    # 2 B(a, b), the pairing with B(v, v) = 4 Q(v): B(x, w) - eps B(x, u)
    # is still lam B(x, x), zero modulo Q(x), so the boundary phase first
    # fails at its quadratic term; boundary_phase_check looks the name up
    # in harmonic
    return ORIGINAL["b_pair"](a, b).scale(2)


def _least_monomial_dropped(n, d):
    # each graded piece loses its least monomial, the last variable to the
    # d-th power: Sym^0 loses the constant, so the enumerated count of the
    # harmonics reads 0 at d = 0, while the rank certificate, which runs on
    # the same enumeration, holds; reached through harmonic_count
    return poly.monomials(n, d)[1:]


def _euler_minus_one(q):
    # E - 1 for E: Delta(n/Q^m) gains m n/Q^(m+1), as R_m + m would give, so
    # the Kelvin image 1/Q^(k-1) of 1 is no longer harmonic;
    # laplacian_qlaurent looks the name up in harmonic
    lap, e, mq = ORIGINAL["_shift_generators"](q)
    return lap, e - 1, mq


def _leading_term_lost(heap):
    # a dividend of more than three terms loses its leading term (the least
    # negated key), so a remainder of more than three terms is not its own
    # normal form; the suite binds the division by name, and the division
    # looks heapify up in poly
    if len(heap) > 3:
        heap.remove(min(heap))
    ORIGINAL["heapify"](heap)


def _one_term_quotient_unchecked(self, d):
    # a dividend of one term comes back as the zero quotient, unchecked, so
    # a bare derivative passes for a right multiple of the Laplacian; Delta
    # x1 has three terms and is still refused
    if len(self.terms) == 1:
        return weyl.WeylOp.zero(self.nvars)
    return ORIGINAL["divide_right_by_constcoef"](self, d)


def _top_key_terms_skipped(self, f):
    # WeylOp.apply skips each term whose derivative part b >= max(f), not
    # b > max(f), so the terms whose b is the top key of f, which divides
    # the top monomial of f, are lost
    s = weyl.halves(self.nvars)[0]
    top = max(f.nums, default=-1)
    kept = {key: c for key, c in self.nums.items() if key >> s != top}
    return ORIGINAL["apply"](weyl.WeylOp._over(self.nvars, kept, self.den), f)


def _canonical_shortcut_on_the_top_key(self):
    # the own-representative shortcut of ConeOp.canonical tested on the
    # largest key alone: when x1*yk does not divide its x-part, the operator
    # passes for its own representative, whatever its other terms, so the
    # class of B_1 no longer equals that of p_1(E)
    lm, g = max(q_form(self.k).terms), poly.guard(2 * self.k)
    if self._canonical is None and (max(self.op.terms, default=0) - lm) & g:
        self._canonical = self.op
    return ORIGINAL["canonical"](self)


def _exchange_return_on_least_row(t1, t2, n, sign, terms):
    # the early return of the exchange kernel tested on the least row of t1,
    # not the greatest: an operator with one derivative-free term loses the
    # exchange terms of all its rows
    if t1 and not min(t1) >> weyl.halves(n)[0]:
        return terms
    return ORIGINAL["_exchange_sum"](t1, t2, n, sign, terms)


def _last_pass_always_skipped(p, d, scale=1):
    # the division leaves out its last pass whatever the denominator, and
    # stores the numerators as values: the quotient and remainder come back
    # times the common denominator of the dividend; the QLaurent
    # constructor reaches it through divides_exactly, which looks the name
    # up in poly
    e = p.den
    quo, rem = ORIGINAL["normal_form_mod_single"](p, d, scale)
    return quo.scale(e), rem.scale(e)


def _lowest_terms_skipped(cls, nvars, nums, d):
    # the numerators kept over the denominator they were summed over, with
    # no common factor divided out, so equal values over two denominators
    # no longer compare equal: the invariant function of alpha, a moment
    # map of even numerators scaled by 1/2, is kept over 2, and the
    # principal symbol it equals over 1.  Products of maps kept so stay
    # over the product of their denominators on both sides of an identity,
    # so the Weyl symbol check and ring-axioms still hold
    return cls._of(nvars, nums, d if nums else 1)


def _horner_from_q_power(f):
    # kelvin's Horner sum started at 0 * Q^d0, d0 the least degree of f, not
    # at the least part itself: the same value, for one more power of Q and
    # one more product per call; kelvin_intertwine_defect looks kelvin up in
    # harmonic
    n = 2 * f.k
    if f.num:
        _ = Poly.zero(n) * q_form(f.k) ** mdegree(min(f.num.terms), n)
    return ORIGINAL["kelvin"](f)


def _residue_dropped(cls, obj):
    # every check parsed back with the empty residue
    out = ORIGINAL["from_json_obj"](obj)
    return cls(out.suite, out.k, [c._replace(residue="") for c in out.checks])


def _sub_as_add(node, target):
    # a - b evaluated as a + b; the fold recurses through this fake
    if node[0] == "sub":
        node = ("add", *node[1:])
    return ORIGINAL["_fold"](node, target)


def _never_parenthesized(value, prec):
    # the printer writes every operand bare, so a - (b + c) prints as a - b + c
    return value[0]


ORIGINAL = {name: getattr(module, name) for module, name in [
    (shapovalov, "shapovalov_factors"), (shapovalov, "shapovalov_closed"),
    (shapovalov, "euler_shift"), (shapovalov, "xgcd"), (coneops, "rho_amb"),
    (lie, "generators"),
    (coneops, "dual_field"), (coneops.ConeOp, "canonical"),
    (lie.LieElt, "bracket"),
    (lie, "_point_column"), (weyl.WeylOp, "_product"), (weyl, "reorder"),
    (weyl.WeylOp, "commutator"), (weyl, "_exchange_sum"), (weyl, "falling"),
    (coneops, "fourier_letter"), (coneops, "letter_preimage"),
    (momentorbit, "x_vector"), (momentorbit, "v_vector"),
    (momentorbit, "orbit_matrix"),
    (lie, "_q_power_inverse"), (exprparse, "_fold"),
    (harmonic, "comb"), (harmonic, "kelvin"), (harmonic, "letter_op"),
    (harmonic, "_shift_generators"), (harmonic, "b_pair"),
    (poly, "divides_exactly"), (poly.Poly, "deriv"),
    (weyl.WeylOp, "principal_symbol"), (weyl.WeylOp, "apply"),
    (poly, "heapify"), (poly, "normal_form_mod_single"),
    (weyl.WeylOp, "divide_right_by_constcoef"),
    (suites.SuiteReport, "from_json_obj"), (TermMap, "_bilinear")]}
# the polynomial kernel shares its name with the operator kernel
ORIGINAL["Poly._product"] = poly.Poly._product

# case: (module, function, fake, suite, check id, start of its residue)
CASES = {
    "factor-of-wrong-weight": (
        shapovalov, "shapovalov_factors", _wrong_weight_factor, "shapovalov",
        "shapovalov-expand-vs-closed", "E YY2 != YY2 (E - 1)"),
    "factor-squared": (
        shapovalov, "shapovalov_factors", _factor_squared, "shapovalov",
        "shapovalov-graded-scalars", "d=1 r=1: graded piece probes disagree"),
    "wrong-constant-in-p1": (
        shapovalov, "shapovalov_closed", _wrong_constant_in_p1, "shapovalov",
        "shapovalov-expand-vs-closed", "d=1"),
    "wrong-shift": (
        shapovalov, "euler_shift", _wrong_shift, "shapovalov",
        "shapovalov-expand-vs-closed", "d=2: p_d(E) != p_1(E) p_(d-1)(E - 1)"),
    "bezout-cofactor-shifted": (
        shapovalov, "xgcd", _cofactor_shifted, "shapovalov",
        "shapovalov-bezout", "d=1: Bezout certificate failed"),
    "levi-image-sign": (
        coneops, "rho_amb", _levi_image_negated, "lie-hom",
        "cone-lie-homomorphism", "first failing pair"),
    "generator-missing": (
        lie, "generators", _generator_missing, "lie-hom",
        "cone-lie-homomorphism",
        "3 generators and their brackets span 6 of 15 dimensions"),
    "closed-form-levi-term-sign": (
        coneops, "dual_field", _levi_term_negated, "cone-ops",
        "cone-fourier-bridge", "element ('levi', 0)"),
    "levi-bracket-sign": (
        lie.LieElt, "bracket", _levi_bracket_negated, "lie-orthogonal",
        "lie-block-bracket", "pair ('levi', "),
    "denominator-dropped": (
        poly.TermMap, "_bilinear", _denominator_dropped, "algebra-core",
        "ring-axioms", "a="),
    "divisibility-refused-from-degree-8": (
        poly, "divides_exactly", _refuses_degree_8, "algebra-core",
        "qlaurent-normalization", "p="),
    "poly-product-least-term-dropped": (
        poly.Poly, "_product", staticmethod(_least_term_dropped),
        "algebra-core", "exact-divisibility", "p="),
    "poly-product-monomial-path-for-two-terms": (
        poly.Poly, "_product", staticmethod(_monomial_path_for_two_terms),
        "algebra-core", "exact-divisibility",
        "p=-1/2*x1^2*x2*y1*y2^2 + 3/4*x1*x2^2*y1^2*y2"),
    "point-scale": (
        lie, "_point_column", _point_scale_doubled, "lie-orthogonal",
        "lie-cocycle", "g1,g2 sample with v="),
    "product-swapped-module-action": (
        weyl.WeylOp, "_product", staticmethod(_product_swapped), "weyl",
        "weyl-module-action", "module action failed"),
    "product-swapped-division": (
        weyl.WeylOp, "_product", staticmethod(_product_swapped), "weyl",
        "weyl-division-multiply-back", "right division refused: "),
    "product-high-order-dropped": (
        weyl.WeylOp, "_product", staticmethod(_high_order_dropped), "weyl",
        "weyl-associativity", "associativity failed on a random triple"),
    "exchange-order-one-rows-skipped": (
        weyl, "_exchange_sum", _order_one_rows_skipped, "weyl",
        "weyl-module-action", "module action failed: (ab)f != a(bf)"),
    "exchange-return-on-the-least-row": (
        weyl, "_exchange_sum", _exchange_return_on_least_row, "weyl",
        "weyl-module-action", "module action failed: (ab)f != a(bf)"),
    "commutator-reversed": (
        weyl.WeylOp, "commutator", _commutator_reversed, "lie-hom",
        "cone-lie-homomorphism", "first failing pair"),
    "commutator-reversed-conjugation": (
        weyl.WeylOp, "commutator", _commutator_reversed, "cone-ops",
        "cone-conjugation-identity", "element ('alpha',): -4*x2*y1 - 4*x1*y2"),
    "falling-off-by-one-nonexample": (
        weyl, "falling", _falling_off_by_one, "harmonic-kelvin",
        "harmonic-nonexample", "-4"),
    "falling-off-by-one-bessel": (
        weyl, "falling", _falling_off_by_one, "harmonic-kelvin",
        "harmonic-bessel-series", "1/796675461120000*y2^10 + "),
    "falling-off-by-one-n2": (
        weyl, "falling", _falling_off_by_one, "harmonic-kelvin",
        "harmonic-n2-counterexample", "(3, 3, '2*y1^2')"),
    "falling-off-by-one-kelvin-harmonicity": (
        weyl, "falling", _falling_off_by_one, "harmonic-kelvin",
        "kelvin-preserves-harmonicity", "d=1: (-2*y2) / Q^3"),
    "fourier-xx-to-y": (
        coneops, "fourier_letter", _xx_to_y, "cone-ops",
        "cone-fourier-involution", "word #"),
    "fourier-x-to-y": (
        coneops, "fourier_letter", _x_to_y, "cone-ops",
        "cone-grading-negation", "letter ('x', 1)"),
    "canonical-shortcut-on-the-top-key": (
        coneops.ConeOp, "canonical", _canonical_shortcut_on_the_top_key,
        "shapovalov", "shapovalov-expand-vs-closed", "d=1"),
    "yy-rotated-fundamental-relation": (
        coneops, "letter_preimage", _yy_rotated, "cone-ops",
        "cone-fundamental-relation", "(2)*dx2*dy2"),
    "yy-rotated-weight-zero": (
        coneops, "letter_preimage", _yy_rotated, "shapovalov",
        "shapovalov-weight-zero", "d=1: "),
    "levi-letter-not-weight-zero": (
        coneops, "letter_preimage", _d12_to_x1, "shapovalov",
        "shapovalov-weight-zero", "d=1: "),
    "yy-to-y-commute": (
        coneops, "letter_preimage", _yy_to_y, "cone-ops",
        "cone-xxyy-commute", "[XX1,YY1] = "),
    "fiber-swap-symbol-match": (
        momentorbit, "x_vector", _x_vector_swapped, "cone-ops",
        "cone-symbol-match", "element ('alpha',)"),
    "fiber-swap-symbol-bridge": (
        momentorbit, "x_vector", _x_vector_swapped, "moment-orbit",
        "moment-symbol-bridge", "element ('alpha',)"),
    "mu-without-q-term-descent": (
        momentorbit, "orbit_matrix", _mu_without_q_term, "moment-orbit",
        "moment-descent", "element ('lam', 0): "),
    "mu-without-q-term-relations": (
        momentorbit, "orbit_matrix", _mu_without_q_term, "moment-orbit",
        "moment-orbit-relations", "Q(mu): "),
    "base-doubled-euler-pairing": (
        momentorbit, "v_vector", _v_vector_doubled, "moment-orbit",
        "moment-euler-pairing", "x1*y4 + x2*y3 + x3*y2 + x4*y1"),
    "q-power-inverse-negated": (
        lie, "_q_power_inverse", _q_power_inverse_negated, "lie-orthogonal",
        "lie-w0-inversion", "w0 factorization mismatch"),
    "deriv-doubled-poisson": (
        poly.Poly, "deriv", _deriv_doubled, "moment-orbit",
        "moment-poisson-compatibility", "pair ('levi', 2) ('mu', 3)"),
    "symbol-plus-one": (
        weyl.WeylOp, "principal_symbol", _symbol_plus_one, "weyl",
        "weyl-symbol-multiplicative",
        "symbol of a product is not the product of symbols"),
    "from-dleft-without-exchange": (
        weyl, "reorder", _from_dleft_without_exchange,
        "weyl", "weyl-normal-order-roundtrip",
        "round trip through derivative-left form failed"),
    "apply-skip-taken-at-the-top-key": (
        weyl.WeylOp, "apply", _top_key_terms_skipped, "weyl",
        "weyl-module-action", "module action failed: (ab)f != a(bf)"),
    "extensional-first-monomial-only": (
        weyl, "monomials", _first_monomial_only, "weyl",
        "weyl-extensional-determinacy",
        "determinacy test misclassified an operator"),
    "binomial-one-variable-short": (
        harmonic, "comb", _binomial_one_variable_short, "harmonic-kelvin",
        "harmonic-dimensions", "d=1: got 4, expected 3"),
    "kelvin-weight-lowered": (
        harmonic, "kelvin", _kelvin_weight_lowered, "harmonic-kelvin",
        "kelvin-involution-intertwine",
        "intertwine defect on x1^6: (-6*x1^6) / Q^7"),
    "letter-plus-identity-dirac": (
        harmonic, "letter_op", _letter_plus_identity, "harmonic-kelvin",
        "harmonic-dirac-relations", "XX1(1) = 1"),
    "reduction-skipped-exponential": (
        harmonic, "reduce_mod", _reduction_skipped, "harmonic-kelvin",
        "harmonic-exponential", "y1*y4 + y2*y3"),
    "b-pair-doubled-boundary-phase": (
        harmonic, "b_pair", _b_pair_doubled, "harmonic-kelvin",
        "harmonic-boundary-phase", "quadratic_term: -x1*y3*y4*y5"),
    "least-monomial-dropped-dimensions": (
        harmonic, "monomials", _least_monomial_dropped, "harmonic-kelvin",
        "harmonic-dimensions", "d=0: got 0, expected 1"),
    "laplacian-shift-plus-m-fundamental-solution": (
        harmonic, "_shift_generators", _euler_minus_one,
        "harmonic-kelvin", "kelvin-fundamental-solution", "(-1) / Q^1"),
    "b-form-unflipped": (
        coneops, "b_form_poly", _b_form_unflipped, "harmonic-kelvin",
        "harmonic-symmetry-certificates", "no certificate for ('lam', 0)"),
    "division-leading-term-lost": (
        poly, "heapify", _leading_term_lost, "algebra-core",
        "normal-form-idempotent", "p="),
    "numerator-form-lowest-terms-skipped": (
        poly.TermMap, "_over", classmethod(_lowest_terms_skipped),
        "cone-ops", "cone-symbol-match", "element ('alpha',)"),
    "division-last-pass-always-skipped": (
        poly, "normal_form_mod_single", _last_pass_always_skipped,
        "algebra-core", "qlaurent-normalization",
        "p=7/2*x1^2*y1*y2^2 - 4*x2^2*y2^2"),
    "one-term-quotient-unchecked": (
        weyl.WeylOp, "divide_right_by_constcoef",
        _one_term_quotient_unchecked, "harmonic-kelvin",
        "harmonic-symmetry-rejections",
        "x1 rejected: True, dy_k rejected: False"),
    "report-residue-dropped": (
        suites.SuiteReport, "from_json_obj", classmethod(_residue_dropped),
        "cli", "cli-emit-roundtrip", ""),
    "fold-sub-as-add": (
        exprparse, "_fold", _sub_as_add, "cli", "cli-eval-examples",
        "[Delta,Q]="),
    "printer-without-parentheses": (
        exprparse, "_wrap", _never_parenthesized, "cli",
        "cli-parser-roundtrip", "expression #0: "),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutant_fails_its_check(case, monkeypatch):
    module, name, fake, suite, check_id, residue = CASES[case]
    monkeypatch.setattr(module, name, fake)
    report = run_suite(suite, 2)
    assert report.exit_status == 1
    [check] = [c for c in report.checks if c.check_id == check_id]
    assert not check.ok
    assert check.residue.startswith(residue), check.residue


def test_dropped_monomials_fail_kelvin_harmonicity(monkeypatch):
    # the certificate runs on the mutant enumeration and holds; the basis
    # check against the Laplacian is what refuses the "harmonics" of d=2
    monkeypatch.setattr(harmonic, "monomials", _least_monomial_dropped)
    with pytest.raises(ArithmeticError, match="the Laplacian does not kill"):
        harmonic.harmonic_decompose(2, 2)
    [check] = [c for c in run_suite("harmonic-kelvin", 2).checks
               if c.check_id == "kelvin-preserves-harmonicity"]
    assert not check.ok and check.residue.startswith("d=2: "), check.residue


# the work of a suite at k=3, as (TermMap._bilinear calls, TermMap.__pow__
# calls); a count that rises means a fast path was lost, and a change that
# lowers one lowers its pin
WORK = {"harmonic-kelvin": (635, 238)}

# case: (module, function, fake, suite); the fake keeps every value and
# adds work, so the suite passes and test_suite_work_is_pinned fails
WORK_CASES = {
    "kelvin-horner-from-q-power": (
        harmonic, "kelvin", _horner_from_q_power, "harmonic-kelvin"),
}


def _suite_work(monkeypatch, suite: str) -> tuple:
    """(products, powers) of term maps in one passing run of suite at k=3."""
    counts = [0, 0]
    bilinear, power = TermMap._bilinear, TermMap.__pow__

    def counted_bilinear(self, other, kernel):
        counts[0] += 1
        return bilinear(self, other, kernel)

    def counted_power(self, n):
        counts[1] += 1
        return power(self, n)

    monkeypatch.setattr(TermMap, "_bilinear", counted_bilinear)
    monkeypatch.setattr(TermMap, "__pow__", counted_power)
    assert run_suite(suite, 3).exit_status == 0
    return tuple(counts)


@pytest.mark.parametrize("suite", sorted(WORK))
def test_suite_work_is_pinned(suite, monkeypatch):
    products, powers = _suite_work(monkeypatch, suite)
    most_products, most_powers = WORK[suite]
    assert products <= most_products, f"{products} products in {suite}"
    assert powers <= most_powers, f"{powers} powers in {suite}"


@pytest.mark.parametrize("case", sorted(WORK_CASES))
def test_work_mutant_breaks_its_pin(case, monkeypatch):
    module, name, fake, suite = WORK_CASES[case]
    monkeypatch.setattr(module, name, fake)
    products, powers = _suite_work(monkeypatch, suite)
    most_products, most_powers = WORK[suite]
    assert products > most_products and powers > most_powers


# the term maps that build their value cache from their numerators in one
# run of a suite at k=3: a map over a denominator d > 1 keeps only its
# numerators until its values are read, so a count that rises means a
# reader of values that needs none; a change that lowers one lowers its pin
VALUE_BUILDS = {"algebra-core": 0, "weyl": 0}


def _value_builds(monkeypatch, suite: str) -> int:
    """Term maps over d > 1 whose value cache one passing run of suite at
    k=3 builds."""
    count = 0
    terms = TermMap.terms.fget

    def counted_terms(self):
        nonlocal count
        count += self.den != 1 and self._values is None
        return terms(self)

    monkeypatch.setattr(TermMap, "terms", property(counted_terms))
    assert run_suite(suite, 3).exit_status == 0
    return count


@pytest.mark.parametrize("suite", sorted(VALUE_BUILDS))
def test_value_builds_are_pinned(suite, monkeypatch):
    builds = _value_builds(monkeypatch, suite)
    assert builds <= VALUE_BUILDS[suite], f"{builds} value builds in {suite}"


def _product_values_read(self, other, kernel):
    # every product reads its values as soon as it is built, one division
    # per output term, as an eager frame would
    out = ORIGINAL["_bilinear"](self, other, kernel)
    out.terms
    return out


def test_eager_reads_break_the_value_pin(monkeypatch):
    monkeypatch.setattr(TermMap, "_bilinear", _product_values_read)
    for suite, most in VALUE_BUILDS.items():
        assert _value_builds(monkeypatch, suite) > most, suite


@pytest.mark.parametrize("suite", ["shapovalov", "lie-hom", "cone-ops",
                                   "lie-orthogonal", "algebra-core",
                                   "moment-orbit", "weyl", "cli"])
def test_unmutated_suites_pass(suite):
    assert run_suite(suite, 2).exit_status == 0


# the ids of run_suite("all", 2) that no case covers yet; a new check needs
# a case, and a new case takes its id off this list
UNCOVERED = []


def test_every_check_but_the_listed_has_a_mutant():
    covered = {case[4] for case in CASES.values()}
    ids = [c.check_id for c in run_suite("all", 2).checks]
    assert sorted(set(ids) - covered) == UNCOVERED


# every fast path of the engine that skips work behind a guard, with the
# function that holds it; a guard taken wrongly changes a value, or, in a
# work case, the work
GUARDS = {
    "apply-skips-terms-above-the-top-key": (weyl.WeylOp, "apply"),
    "canonical-own-representative": (coneops.ConeOp, "canonical"),
    "division-last-pass-skipped": (poly, "normal_form_mod_single"),
    "exchange-returns-without-derivative-rows": (weyl, "_exchange_sum"),
    "exchange-skips-derivative-free-rows": (weyl, "_exchange_sum"),
    "harmonic-count-in-place-of-the-basis": (harmonic, "harmonic_count"),
    "ideal-preserving-by-one-commutator": (coneops, "is_ideal_preserving"),
    "induction-builds-no-b-past-b1": (shapovalov, "closed_form_induction"),
    "kelvin-horner-from-the-least-part": (harmonic, "kelvin"),
    "numerator-form-equality": (poly.TermMap, "__eq__"),
    "orbit-square-read-off-the-factorization": (
        momentorbit, "verify_orbit_relations"),
    "poly-product-monomial-path": (poly.Poly, "_product"),
}

# guard: the row of CASES or WORK_CASES that forces it wrong
FAST_PATHS = {
    "apply-skips-terms-above-the-top-key": "apply-skip-taken-at-the-top-key",
    "canonical-own-representative": "canonical-shortcut-on-the-top-key",
    "division-last-pass-skipped": "division-last-pass-always-skipped",
    "exchange-returns-without-derivative-rows":
        "exchange-return-on-the-least-row",
    "exchange-skips-derivative-free-rows": "exchange-order-one-rows-skipped",
    "harmonic-count-in-place-of-the-basis":
        "least-monomial-dropped-dimensions",
    "kelvin-horner-from-the-least-part": "kelvin-horner-from-q-power",
    "numerator-form-equality": "numerator-form-lowest-terms-skipped",
    "poly-product-monomial-path": "poly-product-monomial-path-for-two-terms",
}

# the guards that no row forces wrong yet; a new row takes its guard off
# this list
UNGUARDED = [
    "ideal-preserving-by-one-commutator",
    "induction-builds-no-b-past-b1",
    "orbit-square-read-off-the-factorization",
]


def test_every_fast_path_but_the_listed_has_a_row():
    for owner, name in GUARDS.values():
        assert callable(getattr(owner, name)), name
    assert set(FAST_PATHS.values()) <= CASES.keys() | WORK_CASES.keys()
    assert set(FAST_PATHS) <= set(GUARDS)
    assert sorted(set(GUARDS) - set(FAST_PATHS)) == UNGUARDED
