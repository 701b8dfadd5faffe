"""Per-layer tracing for the benchmark: timed wrappers around layer entry points.

The wrappers live here, not in the program: :class:`LayerTracer` swaps each
public layer function (and a few methods) for a timing wrapper in every
loaded ``repro`` module that references it, runs the workload, and restores
the originals.  A wrapper's *self* time is its wall time minus the time of
the wrappers nested inside it, so e.g. ``collectives.build_s`` is
``transfer_table_for`` minus the ``lower_schedule`` it calls, and
``compiled_plan_for`` minus ``compile_plan``.

Work counts that the program already tallies (cache hits and misses, DES
events) come from ``repro.obs`` counter deltas; the rest are counted by the
wrappers themselves from call arguments and return values.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# (layer, module, attribute) — the functions whose calls are timed.  The
# layer names the self-time bucket each wrapper's time goes to.
FUNCTIONS = (
    ("collectives.build", "repro.model.compiled", "transfer_table_for"),
    ("collectives.build", "repro.collectives.verify", "compiled_plan_for"),
    ("model.lower", "repro.model.compiled", "lower_schedule"),
    ("model.profile", "repro.model.compiled", "profile_table"),
    ("model.evaluate", "repro.model.compiled", "evaluate_grid"),
    ("des.simulate", "repro.des.engine", "simulate_profile"),
    ("runtime.plan", "repro.runtime.compiled", "compile_plan"),
    ("verify.execute", "repro.collectives.verify", "run_and_check_compiled"),
    ("tune.build", "repro.tune.tables", "build_decision_table"),
    ("tune.query", "repro.tune.serve", "select_algorithms"),
)

# (layer, module, class, method)
METHODS = (
    ("sweep.fill", "repro.analysis.sweep", "ProfileCache", "get"),
    ("checkpoint.journal", "repro.checkpoint.journal", "JournalWriter", "append"),
    ("checkpoint.journal", "repro.checkpoint.journal", "JournalWriter", "flush"),
)

# obs span name -> the layer whose wrapper self time it should agree with
OBS_SPANS = {
    "schedule.build": "collectives.build",
    "lower.schedule": "model.lower",
    "profile.table": "model.profile",
    "profile.analytic": "model.analytic",
    "lower.plan": "runtime.plan",
    "des.simulate": "des.simulate",
}

# layer -> the end-to-end metric its speed-up should move, and where; the
# workloads not named are the controls on which no change is predicted
PREDICTIONS = {
    "collectives.build": "records_per_s, peak_rss_mb on table3_cold and verify_cold",
    "model.lower": "records_per_s on table3_cold; table reuse on timeline_des",
    "model.profile": "records_per_s on table3_cold",
    "model.analytic": "records_per_s on table3_cold",
    "model.evaluate": "nothing: under 1% of table3_cold",
    "des.simulate": "records_per_s on timeline_des",
    "runtime.plan": "records_per_s, peak_rss_mb on verify_cold",
    "verify.execute": "records_per_s on verify_cold",
    "sweep.fill": "records_per_s on table3_cold",
    "checkpoint.journal": "records_per_s on table3_cold",
    "tune.build": "records_per_s on table3_cold",
    "tune.query": "records_per_s on table3_cold",
}
LAYERS = tuple(PREDICTIONS)

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "collectives.build_s": "s",
    "collectives.builds": "count",
    "collectives.transfers": "count",
    "model.lower_s": "s",
    "model.lowerings": "count",
    "model.table_cache_hit_ratio": "ratio",
    "model.profile_s": "s",
    "model.profiles": "count",
    "model.analytic_s": "s",
    "model.analytic_profiles": "count",
    "model.evaluate_s": "s",
    "model.evaluated_sizes": "count",
    "des.simulate_s": "s",
    "des.simulations": "count",
    "des.events": "count",
    "des.preemptions": "count",
    "des.reroutes": "count",
    "des.host_us_per_event": "us",
    "runtime.plan_s": "s",
    "runtime.plans": "count",
    "verify.execute_s": "s",
    "verify.cells": "count",
    "sweep.fill_self_s": "s",
    "sweep.cache_writes": "count",
    "sweep.cache_bytes": "bytes",
    "checkpoint.flush_s": "s",
    "checkpoint.entries": "count",
    "checkpoint.bytes": "bytes",
    "tune.build_s": "s",
    "tune.query_us": "us",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
    **{f"obs_gap.{span}": "ratio" for span in OBS_SPANS},
}

# metrics that count work: identical on every run at one seed, on any host
WORK_COUNTS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "bytes") or name == "model.table_cache_hit_ratio"
)


class LayerTracer:
    """Install timing wrappers, collect per-layer self times and counts.

    Use as a context manager around one workload pass; read
    :meth:`metrics` afterwards.
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.transfers = 0
        self.evaluated_sizes = 0
        self.queries = 0
        self._stack: list[float] = []  # nested-wrapper time, per open frame
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer: str, fn, count=None):
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
            if count is not None:
                count(args, result)
            if stack:
                # the parent excludes this call and its bookkeeping
                stack[-1] += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_table(self, args, table) -> None:
        self.transfers += table.num_transfers

    def _count_plan_input(self, args, plan) -> None:
        self.transfers += sum(len(step.transfers) for step in args[0].steps)

    def _count_sizes(self, args, grid) -> None:
        self.evaluated_sizes += len(grid.time)

    def _count_queries(self, args, answers) -> None:
        self.queries += len(answers)

    # -- install / restore ----------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def __enter__(self) -> "LayerTracer":
        import importlib

        counters = {
            "lower_schedule": self._count_table,
            "compile_plan": self._count_plan_input,
            "evaluate_grid": self._count_sizes,
            "select_algorithms": self._count_queries,
        }
        for layer, module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._replace_everywhere(
                original, self._timed(layer, original, counters.get(attr))
            )
        for layer, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._timed(layer, original))
            self._undo.append((cls, attr, original))
        from repro.model.analytic import ANALYTIC_PROFILES

        for key, original in list(ANALYTIC_PROFILES.items()):
            ANALYTIC_PROFILES[key] = self._timed("model.analytic", original)
            self._undo.append((ANALYTIC_PROFILES, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def metrics(
        self,
        counters: dict,
        obs_spans: dict,
        scratch: dict[str, Path | None],
    ) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value of the traced pass but the
        tracing overhead and the host calibration, which come from outside
        the pass.

        ``counters`` are the pass's ``repro.obs`` counter deltas,
        ``obs_spans`` its span aggregates, ``scratch`` the pass's
        disk-cache and journal directories (``None`` when unused).
        """
        s, n = self.self_s, self.calls
        hits = counters.get("cache.table.hit", 0)
        misses = counters.get("cache.table.miss", 0)
        events = counters.get("des.events", 0)
        cache_files = _files(scratch.get("cache"))
        journal_files = _files(scratch.get("journal"))
        out = {
            "collectives.build_s": s["collectives.build"],
            "collectives.builds": misses + counters.get("cache.plan.miss", 0),
            "collectives.transfers": self.transfers,
            "model.lower_s": s["model.lower"],
            "model.lowerings": n["model.lower"],
            "model.table_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "model.profile_s": s["model.profile"],
            "model.profiles": n["model.profile"],
            "model.analytic_s": s["model.analytic"],
            "model.analytic_profiles": n["model.analytic"],
            "model.evaluate_s": s["model.evaluate"],
            "model.evaluated_sizes": self.evaluated_sizes,
            "des.simulate_s": s["des.simulate"],
            "des.simulations": n["des.simulate"],
            "des.events": events,
            "des.preemptions": counters.get("des.preemptions", 0),
            "des.reroutes": counters.get("des.reroutes", 0),
            "des.host_us_per_event": s["des.simulate"] * 1e6 / events if events else 0.0,
            "runtime.plan_s": s["runtime.plan"],
            "runtime.plans": n["runtime.plan"],
            "verify.execute_s": s["verify.execute"],
            "verify.cells": n["verify.execute"],
            "sweep.fill_self_s": s["sweep.fill"],
            "sweep.cache_writes": len(cache_files),
            "sweep.cache_bytes": sum(f.stat().st_size for f in cache_files),
            "checkpoint.flush_s": s["checkpoint.journal"],
            "checkpoint.entries": counters.get("checkpoint.journal.append", 0),
            "checkpoint.bytes": sum(f.stat().st_size for f in journal_files),
            "tune.build_s": s["tune.build"],
            "tune.query_us": s["tune.query"] * 1e6 / self.queries if self.queries else 0.0,
        }
        for span, layer in OBS_SPANS.items():
            obs_s = obs_spans.get(span, {}).get("total_us", 0.0) / 1e6
            out[f"obs_gap.{span}"] = s[layer] / obs_s - 1.0 if obs_s else 0.0
        return out


def _files(directory: Path | None) -> list[Path]:
    if directory is None:
        return []
    return [p for p in directory.rglob("*") if p.is_file()]
