"""Per-layer counters and timers, recorded around the public functions of
each cmpoisson module.

install() replaces each listed function or method by a wrapper: in the class
for a method, and for a module-level function under every name that refers to
it in a loaded cmpoisson or benchmark module, so calls made from inside the
package are caught as well.  A layer's time is the wall time of its outermost
calls; a call nested in another call of the same layer is counted but not
timed twice.  Nothing in the program itself changes.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import weakref
from collections import defaultdict

# by module path: the package namespace rebinds `bracket` to the function
bracket, catalog, chains, closure, cm, flows, grammar, models, poly, span, words = (
    importlib.import_module(f"cmpoisson.{name}")
    for name in ("bracket", "catalog", "chains", "closure", "cm", "flows",
                 "grammar", "models", "poly", "span", "words")
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# (owner, attribute, layer); owner is a module or a class
WRAPPED = [
    (cm.PointEvaluator, "poly_value", "cm.eval"),
    (cm.PointEvaluator, "poly_value_and_magnitude", "cm.eval"),
    (cm, "sample_cm", "cm.sample"),
    (cm, "numeric_gradient", "cm.gradient"),
    (cm, "symplectic_pullback_residual", "cm.pullback"),
    (bracket, "bracket", "bracket.bracket"),
    (bracket, "bracket_standard", "bracket.bracket"),
    (bracket, "bracket_traceless", "bracket.bracket"),
    (bracket, "fit_tail_on_variety", "bracket.fit_tail"),
    (poly.TracePolynomial, "cayley_hamilton_reduce", "poly.ch_reduce"),
    (span, "lstsq_fit", "span.lstsq"),
    (span.SpanTracker, "add", "span.tracker_add"),
    (closure, "build_closure", "closure.build"),
    (closure, "reduce_pipeline", "closure.reduce"),
    (closure.MembershipChecker, "check", "closure.check"),
    (flows, "certify_symplectic", "flows.certify"),
    (flows, "ode_flow", "flows.ode"),
    (chains, "replay_lemma_chain", "chains.replay"),
    (models, "model_generation", "models.generation"),
    (grammar, "parse_polynomial", "grammar.parse"),
    (catalog, "load_catalog_entries", "catalog.load"),
]

# lru caches whose hit ratio is reported: metric name -> cached function
CACHES = {
    "bracket.word_bracket_hit_ratio": bracket._word_bracket,
    "words.canonical_hit_ratio": words._canonical_runs,
}


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.depth = defaultdict(int)
        self.build_seconds: dict[int, float] = {}
        self.tracker_accepted = 0
        self.kept_elements = 0
        self.candidates = 0
        self._point_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._point_keys: dict[bytes, int] = {}
        self._poly_ids: dict = {}
        self._eval_pairs: set[int] = set()
        self._cache_start = {name: fn.cache_info() for name, fn in CACHES.items()}

    def _note_eval(self, evaluator, p) -> None:
        pid = self._point_ids.get(evaluator)
        if pid is None:
            pair = evaluator.point.pair
            key = pair.X.tobytes() + pair.Y.tobytes()
            pid = self._point_ids[evaluator] = self._point_keys.setdefault(key, len(self._point_keys))
        qid = self._poly_ids.setdefault(p, len(self._poly_ids))
        self._eval_pairs.add(qid << 32 | pid)

    def _wrap(self, fn, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            if layer == "cm.eval":
                tracer._note_eval(args[0], args[1])
            elif layer == "closure.reduce" and tracer.depth["closure.build"]:
                tracer.candidates += 1
            outer = tracer.depth[layer] == 0
            tracer.depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.depth[layer] -= 1
                if outer:
                    tracer.seconds[layer] += elapsed
            if layer == "span.tracker_add" and result:
                tracer.tracker_accepted += 1
            elif layer == "closure.build":
                tracer.build_seconds[result.n_value] = tracer.build_seconds.get(result.n_value, 0.0) + elapsed
                tracer.kept_elements += len(result.elements)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "cmpoisson" or name.startswith("cmpoisson.")
                                  or os.path.abspath(getattr(m, "__file__", None) or "/").startswith(BENCH_DIR))
        ]
        for owner, attr, layer in WRAPPED:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cm.eval_s": s["cm.eval"],
            "cm.eval_calls": c["cm.eval"],
            "cm.eval_distinct_ratio": ratio(len(self._eval_pairs), c["cm.eval"]),
            "cm.sample_s": s["cm.sample"],
            "cm.sample_calls": c["cm.sample"],
            "cm.gradient_s": s["cm.gradient"],
            "cm.gradient_calls": c["cm.gradient"],
            "cm.pullback_s": s["cm.pullback"],
            "cm.pullback_calls": c["cm.pullback"],
            "bracket.bracket_s": s["bracket.bracket"],
            "bracket.bracket_calls": c["bracket.bracket"],
            "bracket.fit_tail_s": s["bracket.fit_tail"],
            "bracket.fit_tail_calls": c["bracket.fit_tail"],
            "poly.ch_reduce_s": s["poly.ch_reduce"],
            "poly.ch_reduce_calls": c["poly.ch_reduce"],
            "span.lstsq_s": s["span.lstsq"],
            "span.lstsq_calls": c["span.lstsq"],
            "span.tracker_add_s": s["span.tracker_add"],
            "span.tracker_accept_ratio": ratio(self.tracker_accepted, c["span.tracker_add"]),
            "closure.build_s.n2": self.build_seconds.get(2, 0.0),
            "closure.build_s.n3": self.build_seconds.get(3, 0.0),
            "closure.candidates": self.candidates,
            "closure.accept_ratio": ratio(self.kept_elements, self.candidates),
            "closure.check_s": s["closure.check"],
            "closure.check_calls": c["closure.check"],
            "flows.certify_s": s["flows.certify"],
            "flows.ode_s": s["flows.ode"],
            "flows.ode_calls": c["flows.ode"],
            "chains.replay_s": s["chains.replay"],
            "models.generation_s": s["models.generation"],
            "grammar.parse_s": s["grammar.parse"],
            "catalog.load_s": s["catalog.load"],
        }
        for name, fn in CACHES.items():
            before, after = self._cache_start[name], fn.cache_info()
            hits = after.hits - before.hits
            out[name] = ratio(hits, hits + after.misses - before.misses)
        return out
