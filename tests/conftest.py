"""Test isolation for the engine's memo caches.

The engine memoizes its pure constructors in LRU caches that outlive a
test.  A test that patches the engine with ``monkeypatch`` must neither see
entries built before the patch, which would hide it, nor leave entries
built with the patch to later tests.  So around every such test, before and
after, every cache of a function defined in a ``quadricops`` module is
emptied.  The caches are found by walking the package, so a new one is
covered without being named here.
"""

import importlib
import pkgutil

import pytest

import quadricops


def _engine_caches() -> list:
    out = []
    for info in pkgutil.iter_modules(quadricops.__path__):
        module = importlib.import_module(f"quadricops.{info.name}")
        out += [fn for fn in vars(module).values()
                if hasattr(fn, "cache_clear")
                and getattr(fn, "__module__", None) == module.__name__]
    return out


CACHES = _engine_caches()


@pytest.fixture(autouse=True)
def empty_engine_caches(request):
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    for fn in CACHES:
        fn.cache_clear()
    yield
    for fn in CACHES:
        fn.cache_clear()
