"""Failing branches of the verification suites, pinned against a record.

Each case replaces one engine function inside ``quadricops.suites`` so that
one or more checks fail at k=2, and compares the whole report with the JSON
recorded in ``golden/forced_failures_k2.json``.  A passing report cannot show
how a check stops, so these cases pin what a passing run leaves unseen: the
residue of the first failure, its clipping at 240 characters, the exit of a
nested loop, an exception turned into a residue, and the random draws of the
checks that run after a failure.
"""

import json
from pathlib import Path

import pytest

from quadricops import suites
from quadricops.poly import Poly

RECORD = Path(__file__).parent / "golden" / "forced_failures_k2.json"


def _raise_boom(d, k):
    raise ArithmeticError("boom")


CASES = {
    # draw-dependent residues; exact-divisibility's is clipped
    "normal-form-squares": ("algebra-core", {
        "normal_form_mod_single": lambda p, q: (None, p * p)}),
    "cocycle-first-coordinate": ("lie-orthogonal", {
        "chi0_at": lambda g, v: v[0]}),
    # the inner loop's failure ends the outer loop; the graded scalars are
    # probed only when the induction fails
    "graded-scalar-minus-one": ("shapovalov", {
        "closed_form_induction": lambda b1, dmax: "d=1",
        "scalar_on_graded": lambda expanded, r: -1}),
    "bezout-raises": ("shapovalov", {
        "fourier_roots_bezout": _raise_boom}),
    "harmonic-dimension-minus-one": ("harmonic-kelvin", {
        "harmonic_dimension": lambda d, k: -1}),
    "tau-none": ("cone-ops", {
        "tau": lambda x: None}),
    # a poisson returning None would crash moment-euler-pairing's residue
    # (None has no text()); the zero bracket fails both Poisson checks
    "poisson-zero": ("moment-orbit", {
        "poisson": lambda a, b, k: Poly.zero(4 * k)}),
    # a failure whose residue is the text of the failing relation
    "dirac-false": ("harmonic-kelvin", {
        "dirac_relations": lambda k: "XX1(1) = 1"}),
}


def _forced_report(case, monkeypatch):
    suite, patches = CASES[case]
    for name, fake in patches.items():
        monkeypatch.setattr(suites, name, fake)
    return suites.run_suite(suite, 2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_forced_failure_report(case, monkeypatch):
    report = _forced_report(case, monkeypatch)
    recorded = json.loads(RECORD.read_text())[case]
    assert report.exit_status == 1
    assert report.to_json_obj() == recorded


def test_record_covers_every_case():
    assert sorted(json.loads(RECORD.read_text())) == sorted(CASES)
