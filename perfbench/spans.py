"""Outside-in span tracing of the exact1q layers.

`Tracer.install` replaces every public function of the layer modules
with a timing wrapper, both in its home module and under every name an
exact1q module imported it as (``classify.decide_reduced`` is the same
object as ``feasibility.decide_reduced`` until it is wrapped). The
program's own files are never edited. Spans stay in memory until
`Tracer.dump` writes them out; `layer_metrics` turns a span file into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: The layers are the modules of the package, by short name.
LAYERS = ("cli", "jsonio", "classify", "feasibility", "reduction", "poly", "simulate")

#: Names whose results are counted: an LP answer is feasible or not.
_DECIDERS = ("feasibility.decide", "feasibility.decide_reduced", "feasibility.decide_with_fixed_zeros")


class Tracer:
    """Spans as [name, start, end, parent, request]; the span id is its index."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self.feasible_answers = 0
        self.decide_rows = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _observe(self, name, args, result) -> None:
        if name in _DECIDERS and result.feasible:
            self.feasible_answers += 1
        if name == "feasibility.decide":
            f = args[0]
            self.decide_rows += len({a ^ b for a in f.zeros for b in f.ones})

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # Each resumption is its own span, so the time a consumer spends
            # between items is not charged to the generator's layer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self.close(sid)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions everywhere they are bound."""
        package = "exact1q"
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                    "feasible_answers": self.feasible_answers,
                    "decide_rows": self.decide_rows,
                    **extra,
                },
                handle,
            )


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass.

    Times are shares (%) of the traced pass's wall time. A layer's time
    counts only its outermost spans; its self time is that minus the
    spans of other layers nested directly inside it.
    """
    spans = trace["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]

    def nested_in(i: int, pred) -> bool:
        p = spans[i][3]
        while p is not None:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    calls: dict[str, int] = {}
    name_time: dict[str, float] = {}
    layer_time: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for i, (name, *_rest) in enumerate(spans):
        layer = _layer(name)
        calls[name] = calls.get(name, 0) + 1
        if not nested_in(i, lambda other: other == name):
            name_time[name] = name_time.get(name, 0.0) + dur[i]
        if not nested_in(i, lambda other: _layer(other) == layer):
            layer_time[layer] = layer_time.get(layer, 0.0) + dur[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    out: dict[str, float] = {
        "feasibility.pct": pct(layer_time.get("feasibility", 0.0)),
        "classify.pct": pct(layer_time.get("classify", 0.0)),
        "classify.self_pct": pct(layer_self.get("classify", 0.0)),
        "cli.self_pct": pct(layer_self.get("cli", 0.0)),
        "jsonio.load.pct": pct(
            name_time.get("jsonio.load_function", 0.0) + name_time.get("jsonio.load_witness", 0.0)
        ),
    }
    for name in (
        "feasibility.decide_reduced",
        "feasibility.decide_with_fixed_zeros",
        "feasibility.decide",
        "reduction.reduce",
        "poly.represent",
        "simulate.success_probabilities",
        "cli.main",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.pct"] = pct(name_time.get(name, 0.0))

    cache = trace.get("cache")
    deciders = sum(calls.get(name, 0) for name in _DECIDERS[1:])
    if cache is not None:
        hits, misses = cache["hits"], cache["misses"]
    else:
        # without a solver cache every reduced-system call is a solve
        hits, misses = 0, deciders
    lp_solves = calls.get("feasibility.decide", 0) + misses
    out["feasibility.decide.rows"] = trace["decide_rows"]
    out["feasibility.lp_solves"] = lp_solves
    out["feasibility.cache_hits"] = hits
    out["feasibility.feasible_ratio"] = trace["feasible_answers"] / lp_solves if lp_solves else 0.0
    out["trace.spans"] = len(spans)
    return out
