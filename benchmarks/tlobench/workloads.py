"""The benchmark's workloads, run through tlo.cli.main in this process.

Every operation is closed-loop: the next command starts when the previous
one has returned. Inputs are generated from the workload seed, except the
optimizer seed of the two NSGA-II searches, which is held at the desk seed:
across optimizer seeds the same search takes 3.8 to 16.4 s, which would
swamp any change in the code.

A run repeats the same units of work (an optimize command with a fixed
seed, or evaluate + plot of one design) in several passes, each pass in a
seeded order. Every timing is corrected for the host's speed at the time
(see hostclock.py), and a unit's time is the median of its repeats.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tlo.arrangement import design_to_jsonable, genome_decode
from tlo.cli import main as tlo_main
from tlo.config import load_config

from .checks import Checker, genome_from_doc, hypervolume
from . import hostclock
from .hostclock import HostClock
from .tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCENARIOS = SRC / "tlo" / "scenarios"
SCHEMAS = SRC / "tlo" / "schemas"
OUT = ROOT / ".bench_out"

DESK_SEED = 0  # the ROADMAP desk run: budget 2000, population 40, seed 0
SETUP_PROBES = 8  # fresh interpreters per run, at least
PROBE_GAP = 2.0  # seconds of other work between two set-up probes, at least
PROBE_WINDOW = 1.0  # seconds on each side of a probe whose host-clock samples count for it
ORACLE_SAMPLE = 16  # designs per pass (pruned: per run) checked against the exact geometry
SETUP_SEARCHES = (2, 8)  # at least and at most this many set-up searches for trace designs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    budget: int = 2000  # evaluations per optimize command
    population: int = 40
    commands: int = 1  # optimize commands per pass
    desk_seed: bool = True  # False: each command's optimizer seed comes from the workload seed
    min_passes: int = 1  # passes per run, even when --seconds runs out first
    reports: int = 6  # front designs per optimize command sent through evaluate + plot
    report_passes: int = 7  # evaluate + plot runs per reported design, at least
    designs: int = 0  # > 0: no search; each pass evaluates + plots this many designs
    setup_budget: int = 1000  # evaluations per set-up search that collects those designs


WORKLOADS = {w.name: w for w in (
    Workload(
        "search_variable",
        "headline NSGA-II desk run on target1_nograv: simplex ~82%, muscle_jacobian ~12%, NSGA-II ~1.5%",
        "target1_nograv",
    ),
    Workload(
        "search_constant",
        "desk run on constant_relaxed: G ignores q, so the simplex is ~94% and geometry changes should not show",
        "constant_relaxed",
    ),
    Workload(
        "screen_variable",
        "seeded random generations on target1_nograv: 99.5% pruned, so the prune path and muscle_jacobian dominate",
        "target1_nograv",
        budget=500,
        population=500,
        commands=10,
        desk_seed=False,
        min_passes=2,
        reports=1,
        report_passes=2,
    ),
    Workload(
        "trace_gravity",
        "evaluate + plot of feasible target1_grav designs: 64-ray polygons, gravity anchor, report and SVG writing",
        "target1_grav",
        designs=100,
        min_passes=2,
        report_passes=2,
    ),
)}

# Traced-baseline expectations from the workload rationale: each workload
# must stress the layer it was chosen for. Reported, not gating: a faster
# kernel is meant to move these shares.
SHARE_CHECKS = {
    "search_constant": (("simplex.share", ">", 0.7), ("arrangement.muscle_jacobian.share", "<", 0.01)),
    "screen_variable": (("arrangement.muscle_jacobian.share", ">", 0.3), ("feasibility.prune_rate", ">", 0.9)),
}


def environment(seed: int) -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "tlo_threads": os.environ.get("TLO_THREADS"),
        "process_threads": _thread_count(),
    }


def _thread_count() -> int | None:
    """Native threads of this process (Linux), BLAS pools included."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Session:
    """One benchmark run of one workload: commands, checks and samples."""

    def __init__(self, workload: Workload, seed: int, out: Path):
        self.w = workload
        self.seed = seed
        self.out = out
        self.config = SCENARIOS / f"{workload.scenario}.json"
        self.cfg = load_config(self.config)
        self.checker = Checker(self.cfg, SCHEMAS)
        self.rng = np.random.default_rng(seed)
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        # every run of each timed unit (an optimize command, or evaluate +
        # plot of one design on a report-only workload) as (start, end, net
        # seconds), and the net seconds of each pass
        self.clock: HostClock | None = None
        self.units: dict[tuple, list[tuple]] = {}
        self.pass_s: list[float] = []
        self.commands: list[dict] = []  # one record per optimize command (run_meta counts)
        # evaluate + plot: key -> (design, design file, expected objectives, output
        # folder), key -> every run of that design as (start, end, net
        # seconds), and the objectives its reports gave
        self.reported: dict[tuple, tuple] = {}
        self.latency: dict[tuple, list[tuple]] = {}
        self.reported_objectives: dict[tuple, tuple] = {}
        self.front_keys: dict[int, list[tuple]] = {}  # command -> its reported front designs
        self.front_objectives: dict[int, np.ndarray] = {}  # command -> its front, first pass
        self.artifact_bytes: list[int] = []
        self.pruned: list = []  # pruned designs seen, for the exact-geometry check
        self.trace_keys: list[tuple] = []  # designs of a report-only workload
        self.probe_s: list[tuple] = []  # set-up probes as (start, end, seconds)
        self.last_probe = time.perf_counter()

    # --- commands and accounting -------------------------------------------

    def cli(self, *argv) -> tuple[int, tuple]:
        """Run one tlo command in-process; returns (exit code, (start, end, net
        seconds)), net of the host clock's sampling."""
        argv = [str(a) for a in argv]
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            with redirect_stdout(io.StringIO()):
                spent = self.spent()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = tlo_main(argv)
                    else:
                        with tracer.span(f"cli.{argv[0]}"):
                            rc = tlo_main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                t1 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return rc, (t0, t1, t1 - t0 - (self.spent() - spent))

    def spent(self) -> float:
        return self.clock.spent if self.clock else 0.0

    def seconds(self, sample: tuple, window: float = hostclock.WINDOW) -> float:
        """A (start, end, net seconds) sample in seconds of the reference host."""
        start, end, net = sample
        return net / self.clock.slowdown(start, end, window) if self.clock else net

    def typical(self, samples: list[tuple], window: float = hostclock.WINDOW) -> float:
        """The median corrected time of a unit's repeats."""
        return float(np.median([self.seconds(x, window) for x in samples]))

    def attempt(self, label: str, fn, *args):
        """Count one operation; an exception or any problem fails it."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # a crashed command or check is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAILED {self.w.name} {label}: {p}", file=sys.stderr)
        return problems

    def timed(self, key: tuple, sample: tuple) -> None:
        self.units.setdefault(key, []).append(sample)
        self.pass_s[-1] += sample[2]

    @staticmethod
    def _bytes(path: Path) -> int:
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())

    # --- search workloads ----------------------------------------------------

    def optimize(self, k: int) -> list[str]:
        """Optimize command k of a pass, its output checks, and on the first
        pass the pick of its front designs for evaluate + plot."""
        w = self.w
        seed = DESK_SEED if w.desk_seed else self.seed * 1000 + k
        out = self.out / f"search{k}"
        shutil.rmtree(out, ignore_errors=True)
        rc, sample = self.cli("optimize", "--config", self.config, "--out", out,
                              "--budget", w.budget, "--population", w.population, "--seed", seed)
        if rc != 0:
            return [f"optimize seed {seed} exited {rc}"]
        self.timed(("optimize", k), sample)
        problems, pareto, samples = self.checker.optimize_outputs(out, w.budget)
        meta = json.loads((out / "run_meta.json").read_text())
        front = pareto["front"]
        self.commands.append({
            "pass": self.passes,
            "seconds": sample[2],
            "evaluations": meta["evaluation_count"],
            "feasible": meta["n_feasible"],
            "pruned": meta["n_pruned"],
            "generations": meta["generations"],
        })
        self.artifact_bytes.append(self._bytes(out))
        if k in self.front_keys:
            return problems
        self.front_objectives[k] = np.array([[e["e_force"], e["e_velocity"]] for e in front]).reshape(-1, 2)
        self.pruned += [samples.genomes[i] for i in np.flatnonzero(~samples.feasible)]
        # a fixed spread of designs along the front, so that every run of
        # the same command reports the same designs
        along = np.argsort([e["e_force"] for e in front], kind="stable")
        picks = along[np.unique(np.linspace(0, len(front) - 1, min(w.reports, len(front))).round().astype(int))]
        keys = []
        for n in picks:
            entry = front[n]
            key = ("front", k, n)
            path = self.out / "designs" / f"command{k}-front{n}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry["design"]))
            design = genome_decode(genome_from_doc(entry["genome"]), self.cfg.space)
            expected = (entry["e_force"], entry["e_velocity"])
            self.reported[key] = (design, path, expected, self.out / "reports" / f"command{k}-front{n}")
            keys.append(key)
        self.front_keys[k] = keys
        return problems

    def search_pass(self) -> None:
        """Every optimize command once, in seeded order, each followed by
        evaluate + plot of its front designs (with the exact-geometry check
        the first time)."""
        for k in map(int, self.rng.permutation(self.w.commands)):
            if self.attempt(f"optimize command {k}", self.optimize, k):
                continue
            self.probe_between()
            for key in self.front_keys[k]:
                self.attempt(f"report of {key}", self.report, key, key not in self.latency)
                self.probe_between()

    # --- evaluate + plot ---------------------------------------------------------

    def report(self, key: tuple, oracle: bool) -> list[str]:
        """evaluate then plot one design; the two commands are one operation."""
        design, design_path, expected, out = self.reported[key]
        rc, t_eval = self.cli("evaluate", "--config", self.config, "--design", design_path, "--out", out)
        if rc != 0:
            return [f"evaluate exited {rc}"]
        rc, t_plot = self.cli("plot", out / "report.json", "--out", out / "plots")
        if rc != 0:
            return [f"plot exited {rc}"]
        sample = (t_eval[0], t_plot[1], t_eval[2] + t_plot[2])
        self.latency.setdefault(key, []).append(sample)
        if self.w.designs:
            self.timed(key, sample)
        problems, report = self.checker.report_outputs(out / "report.json", out / "plots", expected)
        self.reported_objectives[key] = (report["e_force"], report["e_velocity"])
        if oracle and not problems:
            problems += self.checker.oracle_feasible(design, report)
        return problems

    # --- report-only workload ------------------------------------------------

    def collect_designs(self) -> None:
        """Untimed set-up: feasible designs from seeded searches on the scenario."""
        w = self.w
        genomes, expected, seen = [], [], set()
        for k in range(SETUP_SEARCHES[1]):
            out = self.out / f"setup{k}"
            seed = self.seed * 1000 + k

            def optimize():
                rc, _ = self.cli("optimize", "--config", self.config, "--out", out,
                                 "--budget", w.setup_budget, "--population", 40, "--seed", seed)
                if rc != 0:
                    return [f"set-up optimize exited {rc}"]
                problems, _, samples = self.checker.optimize_outputs(out, w.setup_budget)
                for i, genome in enumerate(samples.genomes):
                    key = (genome.reals.tobytes(), genome.cats.tobytes())
                    if samples.feasible[i] and key not in seen:
                        seen.add(key)
                        genomes.append(genome)
                        expected.append(tuple(samples.objectives[i]))
                    elif not samples.feasible[i]:
                        self.pruned.append(genome)
                return problems

            if self.attempt(f"set-up optimize seed {seed}", optimize):
                break
            shutil.rmtree(out, ignore_errors=True)
            if k + 1 >= SETUP_SEARCHES[0] and len(genomes) >= w.designs:
                break
        if not genomes:
            raise RuntimeError("set-up searches found no feasible design")
        # the non-dominated designs first, so front_hv is that of every set-up
        # search together, then a seeded sample of the rest
        objs = np.array(expected)
        dominated = ((objs[None, :, :] <= objs[:, None, :]).all(-1)
                     & (objs[None, :, :] < objs[:, None, :]).any(-1)).any(1)
        rest = np.flatnonzero(dominated)
        order = np.concatenate([np.flatnonzero(~dominated), rest[self.rng.permutation(len(rest))]])
        order = np.resize(order, w.designs)  # repeats designs only if too few were found
        folder = self.out / "designs"
        folder.mkdir(parents=True, exist_ok=True)
        for n, i in enumerate(order):
            design = genome_decode(genomes[i], self.cfg.space)
            path = folder / f"design{n}.json"
            path.write_text(json.dumps(design_to_jsonable(design, self.cfg.robot)))
            key = ("design", n)
            self.reported[key] = (design, path, expected[i], self.out / "reports" / f"report{n}")
            self.trace_keys.append(key)

    def batch_pass(self) -> None:
        """evaluate + plot every design once, in seeded order; exact-geometry
        checks on a seeded sample."""
        n_designs = len(self.trace_keys)
        oracle = set(self.rng.choice(n_designs, min(ORACLE_SAMPLE, n_designs), replace=False).tolist())
        for n in self.rng.permutation(n_designs):
            self.attempt(f"report of design {n}", self.report, self.trace_keys[n], n in oracle)
            self.probe_between()
        self.artifact_bytes.append(self._bytes(self.out / "reports"))

    # --- passes, probes and the metrics built from them ------------------------

    def run_pass(self) -> None:
        self.pass_s.append(0.0)
        if self.w.designs:
            self.batch_pass()
        else:
            self.search_pass()
        self.passes += 1

    def report_passes(self) -> None:
        """Repeat evaluate + plot, in seeded order, until every reported design
        has `report_passes` latencies."""
        while True:
            keys = [k for k, v in self.latency.items() if len(v) < self.w.report_passes]
            if not keys:
                return
            for i in self.rng.permutation(len(keys)):
                if self.attempt("report, repeated", self.report, keys[i], False):
                    return
                self.probe_between()

    def probe_between(self) -> None:
        """A set-up probe, if PROBE_GAP seconds of other work have passed since
        the last one; only while the host clock runs."""
        if self.clock is not None and time.perf_counter() - self.last_probe >= PROBE_GAP:
            self.attempt("set-up probe", self._probe_once)

    def more_probes(self) -> None:
        """Set-up probes up to SETUP_PROBES, each after half a second of
        evaluate + plot of seeded designs, so that the host clock has samples
        beside it."""
        keys = list(self.latency)
        while keys and len(self.probe_s) < SETUP_PROBES:
            while time.perf_counter() - self.last_probe < PROBE_GAP / 4:
                key = keys[self.rng.integers(len(keys))]
                if self.attempt("report, repeated", self.report, key, False):
                    return
            self.attempt("set-up probe", self._probe_once)

    def _probe_once(self) -> list[str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "tlo.cli", "optimize", "--config", str(self.config),
               "--out", str(self.out / "probe"), "--budget", "2", "--population", "2",
               "--seed", str(self.seed)]
        if self.clock is not None:
            self.clock.pause()
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            t1 = time.perf_counter()
        finally:
            if self.clock is not None:
                self.clock.resume()
        self.last_probe = t1
        if proc.returncode != 0:
            return [f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        self.probe_s.append((t0, t1, t1 - t0))
        return []

    def check_pruned(self) -> None:
        """Seeded sample of pruned designs against the exact zonotope."""
        if not self.pruned:
            return
        picks = self.rng.choice(len(self.pruned), min(ORACLE_SAMPLE, len(self.pruned)), replace=False)
        for i in picks:
            design = genome_decode(self.pruned[i], self.cfg.space)
            self.attempt("pruned-design geometry", self.checker.oracle_pruned, design)

    def run_s(self) -> float:
        """One pass of the workload's work: the sum of its units' times."""
        return sum(self.typical(v) for v in self.units.values())

    def evals_per_s(self) -> float:
        work = len(self.trace_keys) if self.w.designs else self.w.commands * self.w.budget
        return work / self.run_s()

    def report_ms(self) -> list[float]:
        """Per design, the time of its evaluate + plot runs (ms)."""
        return [1e3 * self.typical(v) for v in self.latency.values()]

    def front_hv(self) -> float:
        if self.w.designs:
            return hypervolume(list(self.reported_objectives.values()), self.checker.sentinel)
        return hypervolume(np.concatenate(list(self.front_objectives.values())), self.checker.sentinel)


def end_to_end_metrics(s: Session, seconds: float):
    """Passes until `seconds` have passed (at least w.min_passes), untraced.

    Returns the metrics corrected for the host's speed, and the same
    metrics from the wall clock alone.
    """
    with HostClock() as s.clock:
        deadline = time.perf_counter() + seconds
        while s.passes < s.w.min_passes or time.perf_counter() < deadline:
            s.run_pass()
        s.report_passes()
        s.more_probes()
    corrected = timing_metrics(s)
    s.clock = None
    return corrected, timing_metrics(s)


def timing_metrics(s: Session) -> dict[str, tuple[float, str]]:
    metrics = {}
    if s.units:
        metrics["run_s"] = (s.run_s(), "s")
        metrics["evals_per_s"] = (s.evals_per_s(), "1/s")
        metrics["front_hv"] = (s.front_hv(), "area")
    report_ms = s.report_ms()
    if report_ms:
        metrics["report_ms_p50"] = (float(np.percentile(report_ms, 50)), "ms")
        metrics["report_ms_p90"] = (float(np.percentile(report_ms, 90)), "ms")
    if s.probe_s:
        metrics["setup_s"] = (s.typical(s.probe_s, PROBE_WINDOW), "s")
    return metrics


def traced_metrics(s: Session):
    """One untraced pass, then the same pass traced.

    Returns (per-layer metrics, share checks, layers found missing).
    """
    s.run_pass()
    s.tracer = Tracer()
    s.run_pass()
    tracer, s.tracer = s.tracer, None
    tracer.write(OUT / f"spans-{s.w.name}-{s.seed}.json")

    traced = [c for c in s.commands if c["pass"] == 1]
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_s"] = (s.pass_s[1] - s.pass_s[0], "s")
    metrics["cli.artifact_bytes"] = (float(s.artifact_bytes[-1]) if s.artifact_bytes else 0.0, "bytes")
    metrics["report.samples"] = (len(s.latency), "count")
    work = {"feasible": len(s.trace_keys), "pruned": 0, "generations": 0}
    if traced:
        work = {counter: sum(c[counter] for c in traced) for counter in work}
    for counter, count in work.items():
        metrics[f"work.{counter}"] = (count, "count")

    shares = []
    for metric, op, bound in SHARE_CHECKS.get(s.w.name, ()):
        value = metrics[metric][0]
        ok = value > bound if op == ">" else value < bound
        shares.append({"metric": metric, "value": value, "expect": f"{op} {bound}", "ok": ok})
    return metrics, shares, tracer.missing


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None) -> dict:
    """Run one workload; returns the result record (metrics keyed by name)."""
    w = workload or WORKLOADS[name]
    out = OUT / f"{w.name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    s = Session(w, seed, out)
    env = environment(seed)
    if w.designs:
        s.collect_designs()

    wall = {}
    if trace:
        metrics, shares, missing = traced_metrics(s)
    else:
        (metrics, wall), shares, missing = end_to_end_metrics(s, seconds), [], []
    s.check_pruned()

    result = {
        "workload": w.name,
        "trace": trace,
        "env": env,
        "attempted": s.attempted,
        "failed": s.failed,
        "failed_share": s.failed / s.attempted,
        "report_samples": len(s.latency),
        "passes": s.passes,
        "missing_layers": missing,
        "share_checks": shares,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
    }
    (OUT / f"result-{w.name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(out, ignore_errors=True)
    return result
