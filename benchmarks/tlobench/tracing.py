"""In-memory span recording around calls into the tlo modules.

The tracer swaps module attributes for timing wrappers and puts the
originals back afterwards. Each span is (name, start, end, parent). A
function that no longer exists is listed as missing, and its layer then
reads as zero calls; the traced run does not fail on it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Span name -> every (module, attribute) the hot path looks the function up
# from. `from x import f` copies the reference, so a function is wrapped in
# each namespace that calls it, not only where it is defined.
LAYERS = (
    ("simplex.solve_arrays", (("tlo.simplex", "solve_arrays"),)),
    ("arrangement.muscle_jacobian", (("tlo.feasibility", "muscle_jacobian"),)),
    ("model.forward_kinematics", (("tlo.arrangement", "forward_kinematics"),)),
    ("arrangement.genome_decode", (("tlo.nsga2", "genome_decode"),)),
    ("nsga2.non_dominated_sort", (("tlo.nsga2", "non_dominated_sort"),)),
    ("nsga2.crowding_distance", (("tlo.nsga2", "crowding_distance"),)),
    ("nsga2.pareto_front_indices", (("tlo.nsga2", "pareto_front_indices"),)),
    ("nsga2.evolve", (("tlo.cli", "evolve"),)),
    ("config.load_config", (("tlo.cli", "load_config"),)),
    ("feasibility.make_evaluator", (("tlo.cli", "make_evaluator"),)),
    ("feasibility.evaluate", (("tlo.cli", "evaluate"),)),
    ("feasibility.trace_polygon", (("tlo.cli", "trace_polygon"), ("tlo.feasibility", "trace_polygon"))),
    ("feasibility.gravity_center", (("tlo.cli", "gravity_center"), ("tlo.feasibility", "gravity_center"))),
    ("svgplot.space_panel", (("tlo.svgplot", "space_panel"),)),
    ("svgplot.arrangement_panel", (("tlo.svgplot", "arrangement_panel"),)),
)

# One span per call of the evaluator that make_evaluator returns.
EVALUATOR = "feasibility.evaluator"

# Top-level spans, one per CLI command, are named cli.<command>.
COMMANDS = ("optimize", "evaluate", "plot")

# simplex.solve_arrays status codes (tlo.simplex.INFEASIBLE / UNBOUNDED)
_LP_OUTCOMES = {1: "infeasible", 2: "unbounded"}


class Tracer:
    """Span recorder; install() wraps LAYERS, uninstall() restores them."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: dict[int, str] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                return on_result(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _tag_lp(self, idx, result):
        outcome = _LP_OUTCOMES.get(result[0]) if isinstance(result, tuple) else None
        if outcome:
            self.tags[idx] = outcome
        return result

    def _tag_design(self, idx, result):
        feasible = getattr(result, "feasible", None)
        if feasible is not None:
            self.tags[idx] = "feasible" if feasible else "pruned"
        return result

    def _wrap_evaluator(self, idx, evaluator):
        return self.wrap(EVALUATOR, evaluator, self._tag_design) if callable(evaluator) else evaluator

    def install(self) -> None:
        hooks = {"simplex.solve_arrays": self._tag_lp,
                 "feasibility.make_evaluator": self._wrap_evaluator}
        self.missing = []
        for name, sites in self.layers:
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found = True
                self._restore.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, hooks.get(name)))
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def arrays(self):
        names = np.array(self.names, dtype=object)
        start = np.array(self.starts, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.int64) - start
        parent = np.array(self.parents, dtype=np.int64)
        return names, start, dur, parent

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover (ns)."""
        _, _, dur, parent = self.arrays()
        covered = np.zeros(len(dur), dtype=np.int64)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def nearest(self, name: str) -> np.ndarray:
        """Index of each span's nearest enclosing span called `name`, or -1."""
        out = np.full(len(self.names), -1, dtype=np.int64)
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            if n == name:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return out

    def write(self, path: Path) -> None:
        """Spans as parallel arrays; times in ns from the first span."""
        t0 = self.starts[0] if self.starts else 0
        doc = {
            "names": self.names,
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
            "parent": self.parents,
            "tags": {str(k): v for k, v in self.tags.items()},
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(tracer: Tracer, runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced run.

    `runs` holds one record per optimize command (its run_meta counts) so
    that per-generation figures have a base.
    """
    names, _, dur, parent = tracer.arrays()
    top = parent < 0
    wall = float(dur[top].sum()) or 1.0
    self_ns = tracer.self_times()
    calls = Counter(tracer.names)

    def total(name):
        return float(dur[names == name].sum())

    def per_call(name, scale):
        n = calls.get(name, 0)
        return total(name) / n / scale if n else 0.0

    tags = tracer.tags
    m: dict[str, tuple[float, str]] = {}

    lp = "simplex.solve_arrays"
    lp_tags = Counter(tags.get(i) for i in np.flatnonzero(names == lp))
    m["simplex.calls"] = (calls.get(lp, 0), "count")
    m["simplex.us_per_call"] = (per_call(lp, 1e3), "us")
    m["simplex.infeasible"] = (lp_tags["infeasible"], "count")
    m["simplex.unbounded"] = (lp_tags["unbounded"], "count")
    m["simplex.share"] = (total(lp) / wall, "ratio")

    mj = "arrangement.muscle_jacobian"
    m["arrangement.muscle_jacobian.calls"] = (calls.get(mj, 0), "count")
    m["arrangement.muscle_jacobian.us_per_call"] = (per_call(mj, 1e3), "us")
    m["arrangement.muscle_jacobian.share"] = (total(mj) / wall, "ratio")
    m["model.forward_kinematics.us_per_call"] = (per_call("model.forward_kinematics", 1e3), "us")
    m["arrangement.genome_decode.us_per_call"] = (per_call("arrangement.genome_decode", 1e3), "us")

    # design evaluations: LPs are attributed to their enclosing evaluator call
    ev = np.flatnonzero(names == EVALUATOR)
    outcome = np.array([tags.get(i, "") for i in ev], dtype=object)
    feasible = ev[outcome == "feasible"]
    pruned = ev[outcome == "pruned"]
    lp_owner = tracer.nearest(EVALUATOR)[names == lp]
    lp_owner = lp_owner[lp_owner >= 0]
    lps_in_eval = len(lp_owner)
    lps_pruned = int(np.isin(lp_owner, pruned).sum())
    m["feasibility.evaluations"] = (len(ev), "count")
    m["feasibility.eval_feasible_us"] = (float(dur[feasible].mean()) / 1e3 if len(feasible) else 0.0, "us")
    m["feasibility.eval_pruned_us"] = (float(dur[pruned].mean()) / 1e3 if len(pruned) else 0.0, "us")
    m["feasibility.prune_rate"] = (len(pruned) / len(ev) if len(ev) else 0.0, "ratio")
    m["feasibility.lp_per_design"] = (lps_in_eval / len(ev) if len(ev) else 0.0, "count")
    m["feasibility.wasted_lp_share"] = (lps_pruned / lps_in_eval if lps_in_eval else 0.0, "ratio")

    evolve = "nsga2.evolve"
    in_evolve = tracer.nearest(evolve)[ev] >= 0
    nsga_self = total(evolve) - float(dur[ev[in_evolve]].sum())
    batches = sum(r["generations"] + 1 for r in runs)
    m["nsga2.self_s"] = (nsga_self / 1e9, "s")
    m["nsga2.gen_ms"] = (nsga_self / batches / 1e6 if batches else 0.0, "ms")
    m["nsga2.sort_us"] = (per_call("nsga2.non_dominated_sort", 1e3), "us")
    m["nsga2.crowding_us"] = (per_call("nsga2.crowding_distance", 1e3), "us")
    m["nsga2.front_us"] = (per_call("nsga2.pareto_front_indices", 1e3), "us")

    # what a command does outside every wrapped layer: argument and file
    # handling, serialisation and the writes of its artifacts
    commands = np.flatnonzero(top)
    m["cli.artifact_ms"] = (float(self_ns[commands].mean()) / 1e6 if len(commands) else 0.0, "ms")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (float(self_ns[names == f"cli.{command}"].sum()) / 1e9, "s")

    m["feasibility.trace_polygon.us_per_call"] = (per_call("feasibility.trace_polygon", 1e3), "us")
    panels = (names == "svgplot.space_panel") | (names == "svgplot.arrangement_panel")
    m["svgplot.panel_ms"] = (float(dur[panels].mean()) / 1e6 if panels.any() else 0.0, "ms")
    m["config.load_ms"] = (per_call("config.load_config", 1e6), "ms")

    for name, _ in tracer.layers:
        m[f"{name}.self_s"] = (float(self_ns[names == name].sum()) / 1e9, "s")
    m["trace.spans"] = (len(names), "count")
    m["trace.missing_layers"] = (len(tracer.missing), "count")
    return m
