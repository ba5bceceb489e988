"""Named verification suites and deterministic report emission.

Each suite bundles the invariants of one module into a list of checks; the
suite names match the module names, plus the alias ``lie-hom`` for the
homomorphism block of ``cone-ops`` and the aggregate ``all``.  Reports are
deterministic for fixed inputs (checks sorted by id) so they can be used as
golden files.

The check contract: a check body returns the residue of its first failure,
a string, or ``None`` when it passes, and ``_check`` alone turns that into a
``CheckResult``: a passing check has an empty residue, and a failing one's
residue is clipped at 240 characters.  A body stops at its first failure,
so residues are built only for failing checks.  Each suite seeds its own
``random.Random`` and its checks draw from it in a fixed order, so a failure
changes the draws of the checks after it and nothing outside the suite.

The symbolic corpora are fixed in each suite; no option or environment
variable changes them, so a report depends on the suite and k alone.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction

from . import exprparse, lie, weyl
from .coneops import (ConeOp, GenWord, a_correction, alphabet, grading,
                      letter_op, phi, rho_amb, rho_tilde, tau, b_form_poly)
from .harmonic import (bessel_check, boundary_phase_check,
                       dirac_relations, exp_harmonicity_defect,
                       harmonic_count, harmonic_decompose, harmonic_dimension,
                       is_higher_symmetry, kelvin,
                       kelvin_intertwine_defect, laplacian_qlaurent,
                       n2_counterexample, orbit_representatives,
                       pair_generators)
from .lie import (DegenerateCell, act_at, basis, bruhat_factor, chi0_at, levi,
                  u, u_op, w0)
from .momentorbit import (check_descent, phase_euler, poisson,
                          symbol_invariant, v_vector, verify_orbit_relations,
                          x_vector)
from .poly import (Poly, QLaurent, dual, normal_form_mod_single, q_form, q_of,
                   qdiv)
from .shapovalov import (NotScalar, closed_form_induction,
                         fourier_roots_bezout, scalar_on_graded,
                         shapovalov_closed, shapovalov_series)
from .weyl import (NotDivisible, WeylOp, euler_op,
                   is_zero_extensional, laplacian_op, permute_vars)


CheckResult = namedtuple("CheckResult", "check_id anchor ok residue",
                         defaults=("",))


class SuiteReport:
    """A suite's checks, sorted by id."""

    def __init__(self, suite: str, k: int, checks=()):
        self.suite = suite
        self.k = k
        self.checks = sorted(checks, key=lambda c: c.check_id)

    @property
    def exit_status(self) -> int:
        return 0 if all(c.ok for c in self.checks) else 1

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "k": self.k,
            "checks": [
                {"id": c.check_id, "anchor": c.anchor, "ok": c.ok,
                 "residue": c.residue}
                for c in self.checks
            ],
            "exit_status": self.exit_status,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SuiteReport":
        return cls(obj["suite"], obj["k"],
                   [CheckResult(c["id"], c["anchor"], c["ok"], c["residue"])
                    for c in obj["checks"]])

    def __eq__(self, other):
        if not isinstance(other, SuiteReport):
            return NotImplemented
        return (self.suite == other.suite and self.k == other.k
                and self.checks == other.checks)


class UnknownSuite(exprparse.UsageError):
    pass


def emit(report: SuiteReport, fmt: str = "text") -> bytes:
    if fmt == "json":
        return (json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
                + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"suite: {report.suite} (k={report.k})"]
    for c in report.checks:
        mark = "PASS" if c.ok else "FAIL"
        line = f"[{mark}] {c.check_id}: {c.anchor}"
        if not c.ok and c.residue:
            line += f" | residue: {c.residue}"
        lines.append(line)
    lines.append(f"exit status: {report.exit_status}")
    return ("\n".join(lines) + "\n").encode()


def _clip(s: str, limit: int = 240) -> str:
    return s if len(s) <= limit else s[:limit] + "..."


def _check(check_id: str, anchor: str, residue: str | None) -> CheckResult:
    """The result of a check whose first failure left residue (None: pass)."""
    if residue is None:
        return CheckResult(check_id, anchor, True)
    return CheckResult(check_id, anchor, False, _clip(residue))


def _run(out: list, check_id: str, anchor: str):
    """Decorator: call the check body (which returns its first failure's
    residue, or None) at once and append its result to out."""
    return lambda body: out.append(_check(check_id, anchor, body()))


def _rand_poly(rng: random.Random, nvars: int, deg: int, nterms: int = 5) -> Poly:
    terms = {}
    for _ in range(nterms):
        m = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            m[rng.randrange(nvars)] += 1
        terms[tuple(m)] = qdiv(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly.from_exponents(nvars, terms)


def _rand_weyl(rng: random.Random, nvars: int, deg: int = 3, nterms: int = 4) -> WeylOp:
    terms = {}
    for _ in range(nterms):
        a = [0] * nvars
        b = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            a[rng.randrange(nvars)] += 1
        for _ in range(rng.randint(0, deg)):
            b[rng.randrange(nvars)] += 1
        terms[(tuple(a), tuple(b))] = qdiv(rng.randint(-6, 6), rng.randint(1, 3))
    return WeylOp.from_exponents(nvars, terms)


# ---------------------------------------------------------------- algebra-core


def algebra_core_checks(k: int) -> list:
    rng = random.Random(100 + k)
    n = 2 * k
    deg = 6
    qs = q_form(k)
    out = []

    @_run(out, "ring-axioms",
          "associativity and distributivity on random sparse polynomials")
    def first_failure():
        for _ in range(20):
            a, b, c = (_rand_poly(rng, n, deg) for _ in range(3))
            if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
                return f"a={a.text()} b={b.text()} c={c.text()}"

    @_run(out, "normal-form-idempotent",
          "the single-divisor normal form of a normal form is itself")
    def first_failure():
        for _ in range(20):
            p = _rand_poly(rng, n, deg)
            r = normal_form_mod_single(p, qs)[1]
            r2 = normal_form_mod_single(r, qs)[1]
            if r != r2:
                return f"p={p.text()}"

    @_run(out, "exact-divisibility",
          "multiples of the dual quadratic form reduce to zero")
    def first_failure():
        for _ in range(20):
            p = _rand_poly(rng, n, deg)
            r = normal_form_mod_single(qs * p, qs)[1]
            if not r.is_zero():
                return f"p={p.text()} r={r.text()}"

    @_run(out, "qlaurent-normalization",
          "two representations of the same Q-Laurent value normalize identically")
    def first_failure():
        for _ in range(20):
            p = _rand_poly(rng, n, deg)
            j = rng.randint(1, 3)
            m = rng.randint(0, 2)
            a = QLaurent(k, p * qs ** (j + m), j + m)
            b = QLaurent(k, p * qs ** m, m)
            if a != b:
                return f"p={p.text()} j={j} m={m}"
    return out


# ------------------------------------------------------------------------ weyl


def weyl_checks(k: int) -> list:
    rng = random.Random(200 + k)
    n = 2 * k
    deg = 3
    qs = q_form(k)
    lap = laplacian_op(k)
    out = []

    @_run(out, "weyl-associativity",
          "operator composition is associative on random triples")
    def first_failure():
        for _ in range(10):
            a, b, c = (_rand_weyl(rng, n, deg) for _ in range(3))
            if (a * b) * c != a * (b * c):
                return "associativity failed on a random triple"

    @_run(out, "weyl-module-action",
          "applying a composite equals applying the factors in order")
    def first_failure():
        for _ in range(10):
            a, b = _rand_weyl(rng, n, deg), _rand_weyl(rng, n, deg)
            f = _rand_poly(rng, n, deg)
            if (a * b).apply(f) != a.apply(b.apply(f)):
                return "module action failed: (ab)f != a(bf)"

    @_run(out, "weyl-normal-order-roundtrip",
          "x-left and derivative-left normal forms are inverse presentations")
    def first_failure():
        for _ in range(10):
            a = _rand_weyl(rng, n, deg)
            if weyl.reorder(weyl.reorder(a.terms, n, -1), n, 1) != a.terms:
                return "round trip through derivative-left form failed"

    @_run(out, "weyl-division-multiply-back",
          "both one-sided divisions reproduce the dividend exactly")
    def first_failure():
        try:
            for _ in range(10):
                a = _rand_weyl(rng, n, deg, nterms=3)
                w = a * WeylOp.mult(qs)
                quo = w.divide_right_by_mult(qs)
                if quo * WeylOp.mult(qs) != w:
                    return "right division by the form did not multiply back"
                w2 = a * lap
                quo2 = w2.divide_right_by_constcoef(lap)
                if quo2 * lap != w2:
                    return ("right division by the Laplacian did not multiply "
                            "back")
        except NotDivisible as exc:
            return f"right division refused: {exc}"

    @_run(out, "weyl-symbol-multiplicative",
          "principal symbols multiply when orders add")
    def first_failure():
        count = 0
        while count < 10:
            a, b = _rand_weyl(rng, n, deg), _rand_weyl(rng, n, deg)
            ab = a * b
            if a.is_zero() or b.is_zero() or ab.order() != a.order() + b.order():
                continue
            count += 1
            if ab.principal_symbol() != a.principal_symbol() * b.principal_symbol():
                return "symbol of a product is not the product of symbols"

    a = _rand_weyl(rng, n, deg)
    ok = is_zero_extensional(a - a) and not is_zero_extensional(lap)
    out.append(_check("weyl-extensional-determinacy",
                      "an operator vanishing on low-degree monomials is zero; the Laplacian is not",
                      None if ok else "determinacy test misclassified an operator"))
    return out


# -------------------------------------------------------------- lie-orthogonal


def _sparse_commutator(a, b) -> list:
    """AB - BA for square matrices given by their nonzero entries ((r, c), v),
    row by row through a row index of the right factor (Gustavson, "Two fast
    algorithms for sparse matrices", ACM TOMS 1978); sorted and zero-free,
    as ``LieElt.entries`` returns them."""
    out: dict = {}
    for s, left, right in ((1, a, b), (-1, b, a)):
        rows: dict = {}
        for (l, c), w in right:
            rows.setdefault(l, []).append((c, w))
        for (r, l), v in left:
            for c, w in rows.get(l, ()):
                out[r, c] = out.get((r, c), 0) + s * v * w
    return sorted(e for e in out.items() if e[1])


def lie_orthogonal_checks(k: int) -> list:
    rng = random.Random(300 + k)
    n = 2 * k
    bas = basis(k)
    out = []

    @_run(out, "lie-block-bracket",
          "block-coordinate bracket equals the full matrix commutator on all basis pairs")
    def first_failure():
        ents = [xi.entries() for xi in bas]
        for i, (xi, a) in enumerate(zip(bas, ents)):
            for eta, b in zip(bas[i:], ents[i:]):
                if xi.bracket(eta).entries() != _sparse_commutator(a, b):
                    return f"pair {xi.tag} {eta.tag}"

    # sampled rational group elements and points for the character cocycle
    def rand_h():
        # diagonal middle-block element preserving the split form
        d = [qdiv(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(k)]
        h = [[0] * n for _ in range(n)]
        for i in range(k):
            h[i][i] = d[i]
            h[dual(n, i)][dual(n, i)] = qdiv(1, d[i])
        return h

    gens = [w0(k),
            u(k, [rng.randint(-2, 2) for _ in range(n)]),
            u_op(k, [rng.randint(-2, 2) for _ in range(n)]),
            levi(k, Fraction(3, 2), rand_h())]
    gens.append(gens[0] * gens[1])
    gens.append(gens[3] * gens[2])

    @_run(out, "lie-cocycle",
          "the conformal character is multiplicative along the rational action")
    def first_failure():
        tried = 0
        for g1 in gens:
            for g2 in gens:
                g12 = g1 * g2
                for _ in range(4):
                    v = [qdiv(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(n)]
                    try:
                        v1 = act_at(g1, v)
                        lhs = chi0_at(g12, v)
                        rhs = chi0_at(g2, v1) * chi0_at(g1, v)
                    except (DegenerateCell, ZeroDivisionError):
                        continue  # outside the big cell for this sample
                    tried += 1
                    if lhs != rhs:
                        return f"g1,g2 sample with v={v}"
        if tried < 20:
            return f"only {tried} in-cell samples"

    vprime, _ = bruhat_factor(w0(k))
    expected = [QLaurent(k, Poly.var(n, i, -1), 1) for i in range(n)]
    out.append(_check("lie-w0-inversion",
                      "the big-cell factorization of the Weyl element is v -> -v/Q(v)",
                      None if vprime == expected else "w0 factorization mismatch"))
    return out


# -------------------------------------------------------------------- cone-ops


def _symbol_mismatch(bas):
    """The residue of the first basis element whose corrected image has a
    principal symbol other than its invariant function, or None."""
    for xi in bas:
        if rho_tilde(xi).op.principal_symbol() != symbol_invariant(xi):
            return f"element {xi.tag}"


def lie_hom_checks(k: int) -> list:
    """rho_tilde([xi, eta]) = [rho_tilde(xi), rho_tilde(eta)], proven on
    generators.

    Lemma: the set S of xi with rho_tilde[xi, eta] = [rho_tilde xi,
    rho_tilde eta] for every eta is a Lie subalgebra (see Humphreys,
    Introduction to Lie Algebras and Representation Theory, section 1).  S is
    a subspace because rho_tilde is linear in the block coordinates by
    construction and the bracket is bilinear.  For xi1, xi2 in S, the Jacobi
    identity in the Lie algebra, then xi1, xi2 in S, then the Jacobi
    identity of the commutator give

        rho_tilde[[xi1, xi2], eta]
          = [rho_tilde xi1, rho_tilde[xi2, eta]]
            - [rho_tilde xi2, rho_tilde[xi1, eta]]
          = [[rho_tilde xi1, rho_tilde xi2], rho_tilde eta].

    This rests on three facts:
    - rho_tilde is linear;
    - every image normalizes (Q*), which ``rho_tilde`` proves for each
      distinct element, brackets included, with the one commutator of
      ``is_ideal_preserving``, so the commutators are taken in D_C, where Q*
      times any operator is zero;
    - ``LieElt.bracket`` obeys the Jacobi identity, which ``lie-block-bracket``
      proves by showing that it is the matrix commutator.

    So with G the 2k elements of ``lie.generators``: once the iterated
    brackets of G span the algebra, and the identity holds on every pair
    with a member in G, S contains the subalgebra that G generates, which
    is everything.

    The span is the exact rank of ``lie.generated_dimension``, which
    brackets each generator with the elements of the closure that raised
    the rank, breadth first, and stops at dim so(2k+2); it reaches that
    rank at depth 3 for k = 2..12.
    """
    bas = basis(k)
    images = [rho_tilde(xi) for xi in bas]
    gens = lie.generators(k)
    out = []

    @_run(out, "cone-lie-homomorphism",
          "the corrected realization preserves brackets on all basis pairs")
    def first_failure():
        rank = lie.generated_dimension(k, gens)
        if rank != len(bas):
            return (f"{len(gens)} generators and their brackets span "
                    f"{rank} of {len(bas)} dimensions")
        in_gens = set(gens)
        for i, xi in enumerate(bas):
            for j in range(i + 1, len(bas)):
                eta = bas[j]
                if xi not in in_gens and eta not in in_gens:
                    continue
                lhs = rho_tilde(xi.bracket(eta))
                rhs = images[i].commutator(images[j])
                if lhs != rhs:
                    return f"first failing pair {xi.tag} {eta.tag}"
    return out


def cone_ops_checks(k: int) -> list:
    rng = random.Random(400 + k)
    n = 2 * k
    qs = q_form(k)
    bas = basis(k)
    out = lie_hom_checks(k)

    @_run(out, "cone-fourier-bridge",
          "the letterwise Fourier transform of the vector-field realization "
          "is the ambient dual realization, full basis")
    def first_failure():
        for xi in bas:
            if tau(phi(xi)) != rho_amb(xi):
                return f"element {xi.tag}"

    @_run(out, "cone-conjugation-identity",
          "conjugating the ambient realization by the form costs exactly "
          "the first-order correction, full basis")
    def first_failure():
        mq = WeylOp.mult(qs)
        for xi in bas:
            # Q ra - (ra - a) Q
            defect = mq.commutator(rho_amb(xi)) + a_correction(xi) * mq
            if not defect.is_zero():
                return f"element {xi.tag}: {defect.text()}"

    @_run(out, "cone-xxyy-commute",
          "the second-order coordinate images commute pairwise in canonical class")
    def first_failure():
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                c = ConeOp(letter_op(k, ("XX", i)).commutator(
                    letter_op(k, ("YY", j))))
                if not c.is_zero_class():
                    return f"[XX{i},YY{j}] = {c.canonical_text()}"

    total = WeylOp.zero(n)
    for i in range(1, k + 1):
        total = total + (letter_op(k, ("XX", i))
                         * letter_op(k, ("YY", k + 1 - i)))
    fund = ConeOp(total)
    out.append(_check("cone-fundamental-relation",
                      "the contracted product of the second-order images is the zero class",
                      None if fund.is_zero_class() else fund.canonical_text()))

    letters = sorted(alphabet(k))

    @_run(out, "cone-fourier-involution",
          "the quadric Fourier automorphism squares to the identity "
          "on 500 random generator words")
    def first_failure():
        for idx in range(500):
            nterms = rng.randint(1, 3)
            terms = {}
            for _ in range(nterms):
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                terms[word] = rng.randint(-5, 5) or 1
            w = GenWord(k, terms)
            if w.fourier().fourier() != w:
                return f"word #{idx}: {w.text()}"

    @_run(out, "cone-grading-negation",
          "generator letters are graded and the Fourier automorphism negates the degree")
    def first_failure():
        for letter in letters:
            g = grading(ConeOp(letter_op(k, letter)))
            [((image,), s)] = GenWord.letter(k, letter).fourier().terms.items()
            gf = grading(ConeOp(letter_op(k, image).scale(s)))
            expected = {"x": 1, "y": 1, "XX": -1, "YY": -1}.get(letter[0], 0)
            if g != expected or gf != -expected:
                return f"letter {letter}: grading {g}, image grading {gf}"

    out.append(_check("cone-symbol-match",
                      "principal symbols of the corrected realization match the "
                      "invariant-function table per block type",
                      _symbol_mismatch(bas)))
    return out


# ------------------------------------------------------------------ shapovalov


def shapovalov_checks(k: int) -> list:
    out = []
    [b1] = shapovalov_series(1, k)
    # by induction on d from B_1; the induction and its corollaries are
    # written out in closed_form_induction
    induction = closed_form_induction(b1, 3)
    out.append(_check("shapovalov-expand-vs-closed",
                      "the multinomial expansion equals the factored Euler "
                      "polynomial as canonical classes, d = 1..3", induction))
    # B_1..B_3, built once for the probes that run only when a corollary
    # cannot be read off the induction
    built = []

    def series() -> list:
        if not built:
            built.extend(shapovalov_series(3, k))
        return built

    @_run(out, "shapovalov-graded-scalars",
          "the expansion acts on each graded piece by the closed-form scalar, "
          "enough points to pin the polynomial")
    def first_failure():
        # the graded-scalar corollary of closed_form_induction
        if induction is None:
            return None
        for d, expanded in enumerate(series(), 1):
            closed = shapovalov_closed(d, k)
            for r in range(2 * d + 2):
                try:
                    scalar = scalar_on_graded(expanded, r)
                except NotScalar as exc:
                    return f"d={d} r={r}: {exc}"
                if scalar != closed.eval((r,)):
                    return f"d={d} r={r}"

    @_run(out, "shapovalov-bezout",
          "the element and its Fourier image generate the unit ideal "
          "in the Euler polynomial ring")
    def first_failure():
        for d in range(1, 4):
            try:
                fourier_roots_bezout(d, k)
            except ArithmeticError as exc:
                return f"d={d}: {exc}"

    @_run(out, "shapovalov-weight-zero",
          "the element commutes with the Euler operator and the Levi generators")
    def first_failure():
        e = euler_op(k)
        levi_ops = [e] + [letter_op(k, (kind, 1, 2))
                          for kind in ("D", "B", "C")]
        # the weight-zero corollary of closed_form_induction: every d at once
        if induction is None and not any(op.commutator(e) for op in levi_ops):
            return None
        for d, bop in enumerate(series()[:2], 1):
            for op in levi_ops:
                c = bop.commutator(ConeOp(op))
                if not c.is_zero_class():
                    return f"d={d}: {c.canonical_text()}"
    return out


# ---------------------------------------------------------------- moment-orbit


def moment_orbit_checks(k: int) -> list:
    bas = basis(k)
    out = []

    @_run(out, "moment-descent",
          "the moment pairing is invariant under fiber shears modulo the "
          "cone equation, full basis")
    def first_failure():
        for xi in bas:
            defect = check_descent(xi)
            if not defect.is_zero():
                return f"element {xi.tag}: {defect.text()}"

    rel = verify_orbit_relations(k)
    failing = [f"{name}: {txt}" for name, okr, txt in rel if not okr]
    out.append(_check("moment-orbit-relations",
                      f"all {len(rel)} quadratic, rank and square relations of the "
                      "invariant matrix vanish on the cone",
                      "; ".join(failing) if failing else None))

    out.append(_check("moment-symbol-bridge",
                      "operator principal symbols equal the descended invariant "
                      "functions per block type",
                      _symbol_mismatch(bas)))

    @_run(out, "moment-poisson-compatibility",
          "the Poisson bracket of symbols is the symbol of the commutator "
          "when the top order survives")
    def first_failure():
        symbols = [(xi, rho_tilde(xi)) for xi in bas]
        rng = random.Random(600 + k)
        pairs = 0
        while pairs < 12:
            (xi, a), (eta, b) = rng.sample(symbols, 2)
            comm = a.op.commutator(b.op)
            if comm.is_zero() or comm.order() != a.op.order() + b.op.order() - 1:
                continue
            pairs += 1
            if poisson(a.op.principal_symbol(), b.op.principal_symbol(), k) \
                    != comm.principal_symbol():
                return f"pair {xi.tag} {eta.tag}"

    # on T*V the dual form lives on the momentum block and the form on the base
    qstar = q_of(x_vector(k))
    qbase = q_of(v_vector(k))
    bracket = poisson(qstar, qbase, k)
    out.append(_check("moment-euler-pairing",
                      "the Poisson bracket of the dual form against the form is the "
                      "phase-space Euler function",
                      None if bracket == phase_euler(k) else bracket.text()))
    return out


# ------------------------------------------------------------- harmonic-kelvin


def harmonic_kelvin_checks(k: int) -> list:
    n = 2 * k
    lap = laplacian_op(k)
    out = []

    @_run(out, "harmonic-symmetry-certificates",
          "every conformal vector field normalizes the Laplacian ideal "
          "with the expected first-order shift")
    def first_failure():
        for xi in basis(k):
            cert = is_higher_symmetry(phi(xi))
            if cert is None:
                return f"no certificate for {xi.tag}"
            scalar = (WeylOp.mult(b_form_poly(k, xi.lam))
                      - WeylOp.const(n, xi.alpha)).scale(2)
            if cert.delta != phi(xi) - scalar:
                return f"certificate shape wrong for {xi.tag}"

    no_x1 = is_higher_symmetry(WeylOp.mult(Poly.var(n, 0))) is None
    try:
        WeylOp.partial(n, n - 1).divide_right_by_constcoef(lap)
        no_dyk = False
    except NotDivisible:
        no_dyk = True
    out.append(_check("harmonic-symmetry-rejections",
                      "multiplication by a coordinate is not a symmetry; a bare "
                      "derivative is not a right multiple of the Laplacian",
                      None if no_x1 and no_dyk
                      else f"x1 rejected: {no_x1}, dy_k rejected: {no_dyk}"))

    @_run(out, "kelvin-involution-intertwine",
          "the Kelvin transform is an involution and intertwines the "
          "Laplacian on all monomials of degree <= 6 and on 1/Q")
    def first_failure():
        # kelvin reads only degrees and Q, and laplacian_qlaurent is Delta:
        # both commute with a renaming that fixes Q and Delta, so one
        # monomial per orbit of the renamings stands for the whole orbit
        q = q_form(k)
        for perm in pair_generators(k):
            if permute_vars(q, perm) != q:
                return f"the renaming {perm} does not fix Q"
            if permute_vars(lap, perm) != lap:
                return f"the renaming {perm} does not fix the Laplacian"
        tests = [QLaurent(k, Poly.monomial(m), 0)
                 for m in orbit_representatives(k, 6)]
        tests.append(QLaurent.one_over_q(k))
        for f in tests:
            if kelvin(kelvin(f)) != f:
                return f"involution fails on {f.text()}"
            defect = kelvin_intertwine_defect(f)
            if not defect.is_zero():
                return f"intertwine defect on {f.text()}: {defect.text()}"

    kone = kelvin(QLaurent(k, Poly.const(n, 1), 0))
    ok = laplacian_qlaurent(kone).is_zero()
    out.append(_check("kelvin-fundamental-solution",
                      "the Kelvin image of 1 is annihilated by the Laplacian",
                      None if ok else kone.text()))

    @_run(out, "harmonic-dimensions",
          "harmonic nullspace dimensions match the binomial difference, d <= 5")
    def first_failure():
        for d in range(6):
            got, want = harmonic_count(d, k), harmonic_dimension(d, k)
            if got != want:
                return f"d={d}: got {got}, expected {want}"

    @_run(out, "kelvin-preserves-harmonicity",
          "Kelvin images of harmonic polynomials stay harmonic (k=2, d <= 3)")
    def first_failure():
        if k == 2:
            for d in range(4):
                try:
                    harm, _ = harmonic_decompose(d, k)
                except ArithmeticError as exc:
                    return f"d={d}: {exc}"
                for h in harm:
                    img = laplacian_qlaurent(kelvin(QLaurent(k, h, 0)))
                    if not img.is_zero():
                        return f"d={d}: {img.text()}"

    val = lap.apply(q_form(k).scale(-1))
    ok = val == Poly.const(n, -k)
    out.append(_check("harmonic-nonexample",
                      "the Laplacian of the negated form is the nonzero constant -k",
                      None if ok else val.text()))

    out.append(_check("harmonic-dirac-relations",
                      "the second-order images annihilate constants and coordinates "
                      "span the degree-one piece", dirac_relations(k)))

    bes = bessel_check(k, 12)
    out.append(_check("harmonic-bessel-series",
                      "the truncated radial series solves the system to order 12",
                      None if bes["ok"] else bes["residue_low_degree"].text()))

    defect = exp_harmonicity_defect(k)
    out.append(_check("harmonic-exponential",
                      "the exponential of the cone pairing is harmonic modulo the "
                      "cone equation", None if defect.is_zero() else defect.text()))

    @_run(out, "harmonic-boundary-phase",
          "the boundary phase expansion identities hold modulo the cone equation")
    def first_failure():
        bnd = boundary_phase_check(k)
        for name in ("linear_term", "quadratic_term", "cleared_phase"):
            if not bnd[name].is_zero():
                return f"{name}: {bnd[name].text()}"

    n2 = n2_counterexample()
    out.append(_check("harmonic-n2-counterexample",
                      "in the excluded rank-one case the inverse-coordinate field "
                      "satisfies the commutator law but leaves the polynomial class",
                      None if n2["ok"] else str(n2["commutator_worst"])))
    return out


# ------------------------------------------------------------------------- cli


def cli_checks(k: int) -> list:
    rng = random.Random(700 + k)
    out = []

    atoms = exprparse.atom_texts(k) + [str(rng.randint(0, 20))
                                       for _ in range(4)]
    leaves = [exprparse.parse(atom, k) for atom in atoms]

    def rand_tree(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        kind = rng.choice(["add", "sub", "mul", "pow", "neg"])
        if kind == "pow":
            return ("pow", rand_tree(0), rng.randint(0, 4))
        if kind == "neg":
            return ("neg", rand_tree(depth - 1))
        return (kind, rand_tree(depth - 1), rand_tree(depth - 1))

    @_run(out, "cli-parser-roundtrip",
          "printing and reparsing 1000 random expressions is the identity")
    def first_failure():
        for idx in range(1000):
            tree = rand_tree(4)
            text = exprparse.to_text(tree)
            if exprparse.parse(text, k) != tree:
                return f"expression #{idx}: {text}"

    lhs = exprparse.eval_weyl(exprparse.parse("Delta*Q - Q*Delta", k), k)
    rhs = euler_op(k) + WeylOp.const(2 * k, k)
    ok1 = lhs == rhs
    comm = ConeOp(exprparse.eval_weyl(
        exprparse.parse("XX1*YY2 - YY2*XX1", k), k))
    ok2 = comm.is_zero_class()
    out.append(_check("cli-eval-examples",
                      "the bracket of Laplacian and form evaluates to the shifted Euler "
                      "operator; the second-order images commute",
                      None if ok1 and ok2 else f"[Delta,Q]={lhs.text()}"))

    sample = SuiteReport("sample", k, [
        CheckResult("a", "first", True, ""),
        CheckResult("b", "second", False, "residue text"),
    ])
    parsed = SuiteReport.from_json_obj(json.loads(emit(sample, "json")))
    out.append(_check("cli-emit-roundtrip",
                      "JSON report emission parses back to an equal report",
                      None if parsed == sample else ""))
    return out


SUITES = {
    "algebra-core": algebra_core_checks,
    "weyl": weyl_checks,
    "lie-orthogonal": lie_orthogonal_checks,
    "lie-hom": lie_hom_checks,
    "cone-ops": cone_ops_checks,
    "shapovalov": shapovalov_checks,
    "moment-orbit": moment_orbit_checks,
    "harmonic-kelvin": harmonic_kelvin_checks,
    "cli": cli_checks,
}

SUITE_ORDER = ["algebra-core", "weyl", "lie-orthogonal", "cone-ops",
               "shapovalov", "moment-orbit", "harmonic-kelvin", "cli"]


def run_suite(name: str, k: int = 2) -> SuiteReport:
    """Run a named suite (or 'all') and return its deterministic report."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if name == "all":
        checks = []
        for sub in SUITE_ORDER:
            checks.extend(SUITES[sub](k))
        return SuiteReport("all", k, checks)
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           + ", ".join(sorted(SUITES) + ["all"]))
    return SuiteReport(name, k, SUITES[name](k))
