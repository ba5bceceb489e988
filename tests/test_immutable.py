"""Term maps are not changed once built.

``TermMap._of`` keeps the dict it is given, and shared objects rely on no
caller changing that dict, or the map of a built ``Poly`` or ``WeylOp``,
afterwards: the images in the LRU cache of ``coneops.rho_tilde`` and the
cached ``harmonic._shift_generators`` are handed to every caller.  Both
caches outlive a test, so the test starts and ends with them empty: their
entries are built while the constructors are recorded, and no entry built
then reaches a later test.
"""

import pytest

from quadricops import harmonic
from quadricops.coneops import rho_tilde
from quadricops.poly import TermMap
from quadricops.suites import SUITES, run_suite


@pytest.fixture(autouse=True)
def empty_caches():
    rho_tilde.cache_clear()
    harmonic._shift_generators.cache_clear()
    yield
    rho_tilde.cache_clear()
    harmonic._shift_generators.cache_clear()


def test_no_suite_changes_a_built_term_map(monkeypatch):
    built = []
    of, init = TermMap._of.__func__, TermMap.__init__

    def recording_of(cls, nvars, terms):
        out = of(cls, nvars, terms)
        built.append((out, terms, dict(terms)))
        return out

    def recording_init(self, nvars, terms=None):
        init(self, nvars, terms)
        built.append((self, self.terms, dict(self.terms)))

    monkeypatch.setattr(TermMap, "_of", classmethod(recording_of))
    monkeypatch.setattr(TermMap, "__init__", recording_init)
    for name in SUITES:
        assert run_suite(name, 2).exit_status == 0, name
    assert len(built) > 10000
    changed = [(type(obj).__name__, len(copy)) for obj, terms, copy in built
               if obj.terms is not terms or obj.terms != copy]
    assert changed == []
