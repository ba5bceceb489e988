"""Term maps are not changed once built.

A term map is stored as its pair: a denominator and a dict of integer
numerators.  ``TermMap._of`` keeps the dict it is given, and the public
constructor keeps the values it was given as the cache of ``terms``, which
otherwise builds the values on the first read over a denominator above 1.
Shared objects rely on no caller changing the numerators or the values of
a built ``Poly`` or ``WeylOp`` afterwards.  The engine hands one cached instance to every caller from the
bounded LRU caches of

- ``poly.q_form``;
- ``weyl.euler_op`` and ``weyl.laplacian_op``;
- ``coneops._letter_op`` (behind ``letter_op``), ``phi``, ``rho_amb`` and
  ``rho_tilde``; a letter's operator is the ``rho_tilde`` image of its Lie
  preimage;
- ``momentorbit.orbit_matrix``, a tuple of tuple rows, and
  ``symbol_invariant``;
- ``lie.basis``, a tuple;
- ``harmonic._shift_generators``.

The caches outlive a test, so ``conftest.py`` empties them around each
test here: their entries are built while the constructors are recorded,
and no entry built then reaches a later test.

The same records show that every key the engine stores is valid: the
trusted ``_of`` checks no key, so a ``Poly`` key must be a packed monomial
and a ``WeylOp`` key one in each half.
"""

from fractions import Fraction

from quadricops import cli
from quadricops.poly import Poly, TermMap, is_packed, q_form, qdiv, unit
from quadricops.suites import SUITES, run_suite
from quadricops.weyl import WeylOp, euler_op, halves, laplacian_op

# one run of each CLI subcommand other than verify, at k=2
CLI_COMMANDS = [
    ["reduce", "E*XX1 + Dop12*YY2 - Bop12*Cop12", "--k", "2"],
    ["fourier-transform", "x1*XX2*E + Bop12*y1 + Dop21", "--k", "2"],
    ["kelvin", "x1*y2 + x1^2", "--k", "2"],
    ["bessel", "--k", "2"],
    ["boundary", "--k", "2"],
    ["counterexample-n2"],
    ["moment", "verify", "--k", "2"],
    ["harmonic", "--d", "3", "--k", "2"],
    ["shapovalov", "--d", "2", "--k", "2"],
]


def _record_builds(monkeypatch) -> list:
    """Record every term map stored from now on, once, with its pair, as
    (map, denominator, numerators, copy of the numerators): ``_of`` stores
    every map the engine builds, through ``_over`` too, and the public
    constructor every map built from values."""
    built = []
    of, init = TermMap._of.__func__, TermMap.__init__

    def recording_of(cls, nvars, nums, d=1):
        out = of(cls, nvars, nums, d)
        built.append((out, d, nums, dict(nums)))
        return out

    def recording_init(self, nvars, terms=None):
        init(self, nvars, terms)
        built.append((self, self.den, self.nums, dict(self.nums)))

    monkeypatch.setattr(TermMap, "_of", classmethod(recording_of))
    monkeypatch.setattr(TermMap, "__init__", recording_init)
    return built


def _changed(built) -> list:
    """(class name, term count) of every recorded map whose pair changed,
    or whose values, read here if no caller read them, are not its
    numerators over its denominator."""
    bad = []
    for obj, d, nums, copy in built:
        ok = (obj.den == d and obj.nums is nums and nums == copy
              and obj.terms == {key: qdiv(c, d) for key, c in copy.items()})
        if not ok:
            bad.append((type(obj).__name__, len(copy)))
    return bad


def _invalid_keys(built) -> list:
    """(class name, nvars, key) for every key of a recorded ``Poly`` or
    ``WeylOp`` that is not a packed monomial, in both halves of a
    ``WeylOp`` key; each distinct key is checked once."""
    keys = {(type(obj), obj.nvars, key) for obj, _, _, copy in built
            if type(obj) in (Poly, WeylOp) for key in copy}
    bad = []
    for cls, n, key in keys:
        s, mask = halves(n)
        if type(key) is not int or not all(
                is_packed(m, n)
                for m in ((key,) if cls is Poly else (key & mask, key >> s))):
            bad.append((cls.__name__, n, key))
    return bad


def test_invalid_keys_are_reported():
    s = halves(4)[0]
    good = [(f, None, None, dict(f.terms)) for f in (
        WeylOp.partial(4, 0), euler_op(2), laplacian_op(2), q_form(2),
        WeylOp.mult(q_form(2)), Poly.const(4, 1))]
    # a guard bit in the low half, in the high half, a bit above both
    # halves, an x1 without its degree, and a tuple key
    bad = [(cls.zero(4), None, None, {key: 1}) for cls, key in (
        (Poly, 1 << 63), (WeylOp, 1 << 63 << s), (WeylOp, 1 << 2 * s),
        (Poly, 1 << 48), (WeylOp, 1 << 48 << s), (WeylOp, (0, 0)))]
    assert _invalid_keys(good) == []
    assert len(_invalid_keys(good + bad)) == len(bad)


def test_changed_maps_are_reported(monkeypatch):
    # a map built from its values, which it keeps, then two products over
    # the denominator 2: one changes its numerators, one the values built
    # from them
    x, x3 = Poly.var(4, 0), Poly.var(4, 0, 3)
    built = _record_builds(monkeypatch)
    half = Poly(4, {0: Fraction(1, 2)})
    one, two = half * x, half * x3
    assert [d for _, d, _, _ in built] == [2, 2, 2]
    assert _changed(built) == []
    half.terms[0] = 1
    one.nums[unit(4, 0)] = 3
    two.terms[unit(4, 0)] = 7
    assert _changed(built) == [("Poly", 1)] * 3


# not vacuous: the least number of term maps each suite builds at k=2, run
# in the order of SUITES, so no suite's share of the record is empty
SUITE_BUILDS = {"algebra-core": 700, "weyl": 350, "lie-orthogonal": 50,
                "lie-hom": 500, "cone-ops": 2000, "shapovalov": 350,
                "moment-orbit": 1200, "harmonic-kelvin": 3500, "cli": 10}


def test_no_suite_changes_a_built_term_map(monkeypatch):
    assert list(SUITE_BUILDS) == list(SUITES)
    built = _record_builds(monkeypatch)
    for name, floor in SUITE_BUILDS.items():
        before = len(built)
        assert run_suite(name, 2).exit_status == 0, name
        assert len(built) - before >= floor, name
    assert _changed(built) == []
    assert _invalid_keys(built) == []


# not vacuous: the least number of term maps each command builds, run in
# the order of CLI_COMMANDS, so no command's share of the record is empty
CLI_BUILDS = {"reduce": 150, "fourier-transform": 80, "kelvin": 75,
              "bessel": 10, "boundary": 60, "counterexample-n2": 1400,
              "moment": 750, "harmonic": 35, "shapovalov": 200}


def test_no_cli_command_changes_a_built_term_map(monkeypatch, capsys):
    assert list(CLI_BUILDS) == [argv[0] for argv in CLI_COMMANDS]
    built = _record_builds(monkeypatch)
    for argv in CLI_COMMANDS:
        before = len(built)
        assert cli.main(argv) == 0, argv
        assert len(built) - before >= CLI_BUILDS[argv[0]], argv
    capsys.readouterr()
    assert _changed(built) == []
    assert _invalid_keys(built) == []
