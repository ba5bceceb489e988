"""Span tracing of the engine's layers, applied from outside the package.

`install` wraps the public functions and methods listed in LAYERS.  Engine
modules import each other's names with ``from .x import f``, so a function
object is bound under several module attributes; every attribute bound to
the original object is replaced, or cross-module calls would escape the
span.  Spans stay in memory until `dump` writes them out.

A span is the tuple (id, layer, start_ns, end_ns, parent_id, request, count,
size): `count` is the layer's work count for that call (term pairs of a
product, quotient terms of a normal form) and `size` the term count of the
result.  `aggregate` turns a list of spans into per-layer metrics; a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time


def _pairs(args, result):
    a, b = args[0], args[1]
    return len(a.terms) * len(getattr(b, "terms", (None,)))


def _quotient_terms(args, result):
    return len(result[0].terms)


def _result_terms(result):
    return len(getattr(result, "terms", ()))


# (layer, module, attribute path, work counter or None)
LAYERS = [
    ("poly.mul", "poly", "Poly.__mul__", _pairs),
    ("poly.add", "poly", "Poly.__add__", None),
    ("poly.normal_form", "poly", "normal_form_mod_single", _quotient_terms),
    ("poly.qlaurent", "poly", "QLaurent.__init__", None),
    ("weyl.mul", "weyl", "WeylOp.__mul__", _pairs),
    ("weyl.apply", "weyl", "WeylOp.apply", None),
    ("lie.matrix", "lie", "LieElt.matrix", None),
    ("lie.bracket", "lie", "LieElt.bracket", None),
    ("lie.mat_mul", "lie", "mat_mul", None),
    ("lie.mat_inv", "lie", "mat_inv", None),
    ("coneops.canonical", "coneops", "ConeOp.canonical", None),
    ("coneops.is_ideal_preserving", "coneops", "is_ideal_preserving", None),
    ("shapovalov.expand", "shapovalov", "shapovalov_expand", None),
    ("momentorbit.orbit_relations", "momentorbit", "verify_orbit_relations",
     None),
    ("momentorbit.check_descent", "momentorbit", "check_descent", None),
    ("harmonic.kelvin", "harmonic", "kelvin", None),
    ("harmonic.kelvin_intertwine", "harmonic", "kelvin_intertwine_defect",
     None),
    ("harmonic.decompose", "harmonic", "harmonic_decompose", None),
    ("exprparse.parse", "exprparse", "parse", None),
    ("exprparse.eval_weyl", "exprparse", "eval_weyl", None),
]
LAYER_NAMES = [name for name, *_ in LAYERS]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.next_id = 0
        self.request = 0

    def _wrap(self, layer: int, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = (counter(args, result)
                         if counter and result is not None else 0)
                spans.append((sid, layer, start, end, parent, self.request,
                              count, _result_terms(result)))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, package: str = "quadricops") -> None:
        """Wrap every layer of the already imported engine package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for layer, (_, modname, path, counter) in enumerate(LAYERS):
            owner = sys.modules[f"{package}.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, counter)
            # class attributes first (aliases such as __radd__ = __add__)
            if cls_path:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, name, wrapper)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def dump(self, path: str, requests: list) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": LAYER_NAMES, "requests": requests,
                       "spans": self.spans}, fh, separators=(",", ":"))


def load(path: str) -> list:
    with open(path) as fh:
        data = json.load(fh)
    if data["layers"] != LAYER_NAMES:
        raise ValueError(f"{path}: span file has another layer table")
    return data["spans"]


def aggregate(spans: list) -> dict:
    """Per-layer metrics over spans from one or more traced processes.

    Span ids are only unique within one process, so each process's spans
    must be passed as its own list inside `spans` (a list of lists).
    """
    n = len(LAYER_NAMES)
    self_ns = [0] * n
    calls = [0] * n
    work = [0] * n
    peak = [0] * n
    q_divisions = 0
    qlaurent = LAYER_NAMES.index("poly.qlaurent")
    normal_form = LAYER_NAMES.index("poly.normal_form")
    for proc in spans:
        layer_of = {s[0]: s[1] for s in proc}
        child_ns: dict = {}
        for sid, layer, start, end, parent, _req, count, size in proc:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
                if layer == normal_form and layer_of[parent] == qlaurent:
                    q_divisions += 1
        for sid, layer, start, end, parent, _req, count, size in proc:
            self_ns[layer] += (end - start) - child_ns.get(sid, 0)
            calls[layer] += 1
            work[layer] += count
            peak[layer] = max(peak[layer], size)

    def i(name):
        return LAYER_NAMES.index(name)

    out = {f"{name}.self_s": (self_ns[j] / 1e9, "s")
           for j, name in enumerate(LAYER_NAMES)}
    mul = i("poly.mul")
    out["poly.mul.calls"] = (calls[mul], "count")
    out["poly.mul.term_pairs"] = (work[mul], "count")
    out["poly.mul.peak_terms"] = (peak[mul], "count")
    out["poly.mul.ns_per_pair"] = (
        self_ns[mul] / work[mul] if work[mul] else 0.0, "ns")
    out["poly.normal_form.steps"] = (work[normal_form], "count")
    out["poly.qlaurent.inits"] = (calls[qlaurent], "count")
    out["poly.qlaurent.q_divisions"] = (q_divisions, "count")
    out["weyl.mul.term_pairs"] = (work[i("weyl.mul")], "count")
    out["lie.mat_inv.calls"] = (calls[i("lie.mat_inv")], "count")
    return out
