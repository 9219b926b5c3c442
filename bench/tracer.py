"""Per-layer tracing from outside the package.

:class:`Tracer` patches hamconc's functions where they are looked up at
call time, wrapping each with a span recorder (name, start, end, parent,
op id) or a plain call counter.  Spans stay in memory until the run
writes them out.  A layer's self time is its span's duration minus the
time of the traced spans it encloses.  A tracer made with
``memory=True`` also records each span's tracemalloc peak; tracemalloc
slows allocation-heavy Python code several times over, so times are
taken from a tracer without it.

Metric names are the ones BENCHMARK.json lists: ``<span>.s`` for self
time unless a span names another key (``verify.flow.self_s``),
``<span>.calls`` for calls unless it names another (``bounds.evals``),
and ``<span>.peak_mb`` for peaks.

Layers and their span names:

========================================  =====================================
patched where                             recorded as
========================================  =====================================
verify.exact_set_stats                    estimators.exact_set_stats
estimators.mc_tail                        estimators.mc_tail (+ .samples)
verify.check_lipschitz / _drop_condition  functionals.check_lipschitz / ...
/ _self_bounding
verify.exact_functional_stats             estimators.exact_functional_stats
estimators.stats_from_law                 functionals.stats_from_law
verify.mgf_from_law                       estimators.mgf_from_law
estimators.law_arrays                     space.law_arrays (+ space.outcomes)
TailCurve.from_law                        estimators.tail_curve (+ .support)
verify.verify_set / _median / _gap /      verify.flow (+ verify.rows)
_drop_functional
verify.scenario_to_dict                   verify.scenario_to_dict
BoundReport.to_json                       verify.to_json
cli.load_scenario                         scenario_io.load_scenario
cli.main                                  cli.main
every function in bounds.__all__          bounds (outermost call only)
Functional.value / .drop_value            functionals.value_calls / drop_value_calls
functionals/hamming.hamming_distance      hamming.hamming_distance.calls
========================================  =====================================
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

_MB = float(1 << 20)


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._op = None
        self._next_id = 0
        self._restore: list[tuple] = []
        # Span name -> (self-time key, calls key) of its metrics.
        self._keys: dict[str, tuple[str, str]] = {}

    # -- spans -------------------------------------------------------

    def _enter(self, name: str) -> dict:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["hi"] = max(parent["hi"], peak)
            tracemalloc.reset_peak()
        frame = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "op": self._op,
            "base": cur,
            "hi": cur,
            "child_s": 0.0,
        }
        self._next_id += 1
        self._stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def _exit(self, frame: dict) -> None:
        end = time.perf_counter()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frame["hi"] = max(frame["hi"], peak)
        self._stack.pop()
        duration = end - frame["start"]
        if self._stack:
            parent = self._stack[-1]
            parent["child_s"] += duration
            parent["hi"] = max(parent["hi"], frame["hi"])
        self.spans.append(
            {
                "id": frame["id"],
                "parent": frame["parent"],
                "op": frame["op"],
                "name": frame["name"],
                "start": frame["start"],
                "end": end,
                "self_s": duration - frame["child_s"],
                "peak_mb": (frame["hi"] - frame["base"]) / _MB if self.memory else None,
            }
        )

    @contextmanager
    def op(self, op_id: str):
        """Root span of one benchmark operation; its spans share ``op_id``."""
        self._op = op_id
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def _span(
        self,
        fn,
        name: str,
        after=None,
        outermost_only: bool = False,
        time_key: str = "s",
        calls_key: str = "calls",
    ):
        self._keys[name] = (f"{name}.{time_key}", f"{name}.{calls_key}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and self._stack and self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _install(self) -> None:
        from hamconc import bounds, cli, estimators, functionals, hamming, verify

        span = self._span
        add = self._add
        for owner, attr, name, after in (
            (verify, "exact_set_stats", "estimators.exact_set_stats", None),
            (
                estimators,
                "mc_tail",
                "estimators.mc_tail",
                lambda r: add("estimators.mc_tail.samples", r.n_samples),
            ),
            (verify, "check_lipschitz", "functionals.check_lipschitz", None),
            (verify, "check_drop_condition", "functionals.check_drop_condition", None),
            (verify, "check_self_bounding", "functionals.check_self_bounding", None),
            (verify, "exact_functional_stats", "estimators.exact_functional_stats", None),
            (estimators, "stats_from_law", "functionals.stats_from_law", None),
            (verify, "mgf_from_law", "estimators.mgf_from_law", None),
            (
                estimators,
                "law_arrays",
                "space.law_arrays",
                lambda r: add("space.outcomes", int(r[1].size)),
            ),
            (verify, "scenario_to_dict", "verify.scenario_to_dict", None),
            (verify.BoundReport, "to_json", "verify.to_json", None),
            (cli, "load_scenario", "scenario_io.load_scenario", None),
        ):
            self._patch(owner, attr, span(getattr(owner, attr), name, after))
        self._patch(cli, "main", span(cli.main, "cli.main", time_key="self_s"))
        for attr in ("verify_set", "verify_median", "verify_gap", "verify_drop_functional"):
            wrapped = span(
                getattr(verify, attr),
                "verify.flow",
                lambda r: add("verify.rows", len(r.rows)),
                time_key="self_s",
            )
            self._patch(verify, attr, wrapped)
        from_law = estimators.TailCurve.__dict__["from_law"].__func__
        self._patch(
            estimators.TailCurve,
            "from_law",
            classmethod(
                span(
                    from_law,
                    "estimators.tail_curve",
                    lambda r: add("estimators.tail_curve.support", len(r.support)),
                )
            ),
        )
        for attr in bounds.__all__:
            fn = getattr(bounds, attr)
            if inspect.isfunction(fn):
                wrapped = span(fn, "bounds", outermost_only=True, calls_key="evals")
                self._patch(bounds, attr, wrapped)
        Functional = functionals.Functional
        self._patch(Functional, "value", self._counter(Functional.value, "functionals.value_calls"))
        self._patch(
            Functional,
            "drop_value",
            self._counter(Functional.drop_value, "functionals.drop_value_calls"),
        )
        for module in (functionals, hamming):
            self._patch(
                module,
                "hamming_distance",
                self._counter(module.hamming_distance, "hamming.hamming_distance.calls"),
            )

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Patch hamconc (and trace memory, if asked) for the duration of the block."""
        if self.memory:
            tracemalloc.start()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()
            if self.memory:
                tracemalloc.stop()

    # -- results -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds, calls and (memory tracers) peak MB of each span name, and the counters."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        peak: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_s[s["name"]] += s["self_s"]
            calls[s["name"]] += 1
            if self.memory:
                peak[s["name"]] = max(peak[s["name"]], s["peak_mb"])
        out: dict[str, float] = dict(self.counts)
        for name in self_s:
            time_key, calls_key = self._keys.get(name, (f"{name}.s", f"{name}.calls"))
            out[time_key] = self_s[name]
            out[calls_key] = calls[name]
        for name in peak:
            out[f"{name}.peak_mb"] = peak[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
