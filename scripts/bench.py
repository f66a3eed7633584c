"""In-process A/B of whole tlo commands: this checkout against a parent
checkout, in interleaved rounds, written as JSON.

    PYTHONPATH=src python scripts/bench.py --parent PATH [--repeat 21] [--out BENCH.json]

PATH is the root of another checkout of this repository, such as
`git archive` of the parent commit unpacked into a scratch folder. Its
package is loaded in this process under another name, beside the `tlo`
of this checkout; while one side runs, the name `tlo` points at its
package, so that each reads its own schemas.

Cases, each one timed unit per side and round:

- "report": `tlo evaluate` then `tlo plot` of each tests/data/golden_design*
  file on its scenario, parser included;
- "optimize": the desk search `tlo optimize --budget 2000 --population 40
  --seed 0` on each bundled scenario, artifacts written.

Every side reads the input files of its own checkout and writes into a
folder of its own. Each round runs the parent's unit and this checkout's
in turn, in alternating order, after a few untimed rounds
(kernel_us._round_times). Per case the file holds both sides' median and
quartiles in milliseconds, the ratio of the medians, its paired-bootstrap
90 % interval, the rounds this checkout won, and whether every artifact
the two sides wrote is byte-identical; run_meta.json is compared without
its wall-clock "timings". The interval resamples the rounds with
replacement, each keeping its two times, BOOTSTRAP times from a fixed
seed, and takes the 5th and 95th percentiles of the ratio of the medians:
a ratio whose interval holds 1 is not told from noise. A few rounds give
few distinct resamples and too narrow an interval; it is meant for the
default 21. The env record names Python, numpy, the cores and the commit of
each checkout that is a git work tree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tlo
from kernel_us import _round_times

ROOT = Path(__file__).resolve().parents[1]
REPORTS = (  # (case, scenario, design), relative to a checkout's root
    ("target1_nograv", "src/tlo/scenarios/target1_nograv.json", "tests/data/golden_design.json"),
    ("target1_grav", "src/tlo/scenarios/target1_grav.json", "tests/data/golden_design_grav.json"),
    ("constant_relaxed", "src/tlo/scenarios/constant_relaxed.json",
     "tests/data/golden_design_constant.json"),
    ("three_joint_grav", "tests/data/three_joint_grav.json",
     "tests/data/golden_design_three_joint_grav.json"),
)
SEARCHES = ("target1_nograv", "target1_grav", "target2_nograv", "constant_relaxed")
DESK = ("--budget", "2000", "--population", "40", "--seed", "0")
BOOTSTRAP = 2000  # resamples of the rounds behind a ratio's interval


def _load_package(root: Path, name: str):
    """The tlo package of a checkout, imported as name."""
    folder = root / "src" / "tlo"
    spec = importlib.util.spec_from_file_location(name, folder / "__init__.py",
                                                  submodule_search_locations=[str(folder)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _unit(package, root: Path, out: Path, kind: str, case: str):
    """One timed unit of a case on one side: a call that runs its commands."""
    main = importlib.import_module(f"{package.__name__}.cli").main
    if kind == "report":
        _, scenario, design = next(r for r in REPORTS if r[0] == case)
        commands = [["evaluate", "--config", str(root / scenario), "--design", str(root / design),
                     "--out", str(out)],
                    ["plot", str(out / "report.json"), "--out", str(out / "plots")]]
    else:
        commands = [["optimize", "--config", str(root / f"src/tlo/scenarios/{case}.json"),
                     *DESK, "--out", str(out)]]

    def run():
        previous = sys.modules["tlo"]
        sys.modules["tlo"] = package  # importlib.resources.files("tlo") finds its data
        try:
            for argv in commands:
                if main(argv) != 0:
                    raise RuntimeError(f"tlo {' '.join(argv)} failed")
        finally:
            sys.modules["tlo"] = previous

    return run


def _artifacts(folder: Path) -> dict:
    """Every file under folder by its relative path; run_meta.json without
    its timings."""
    files = {}
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_meta.json":
            meta = json.loads(data)
            meta.pop("timings", None)
            data = json.dumps(meta, sort_keys=True).encode()
        files[str(path.relative_to(folder))] = data
    return files


def _summary(seconds) -> dict:
    q1, median, q3 = np.percentile(np.asarray(seconds) * 1e3, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3),
            "q3": round(float(q3), 3)}


def _ratio_interval(parent, change) -> list[float]:
    """Paired-bootstrap 90 % interval of the ratio of the medians, change
    over parent, of the rounds' times."""
    parent, change = np.asarray(parent), np.asarray(change)
    rounds = np.random.default_rng(0).integers(0, len(parent), (BOOTSTRAP, len(parent)))
    ratios = np.median(change[rounds], axis=1) / np.median(parent[rounds], axis=1)
    return [round(float(r), 4) for r in np.percentile(ratios, [5, 95])]


def _commit(root: Path):
    """HEAD of the checkout at root and whether its work tree differs from
    it, or None where root is not the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            return None
        return {"head": git("rev-parse", "HEAD"), "dirty": git("status", "--porcelain") != ""}
    except (OSError, subprocess.CalledProcessError):
        return None


def run(parent_root: Path, repeat: int) -> dict:
    sides = {"parent": (_load_package(parent_root, "tlo_parent"), parent_root),
             "change": (tlo, ROOT)}
    cases = [("report", name) for name, _, _ in REPORTS] + [("optimize", n) for n in SEARCHES]
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        for kind, case in cases:
            outs = {side: Path(scratch) / side / kind / case for side in sides}
            units = [_unit(package, root, outs[side], kind, case)
                     for side, (package, root) in sides.items()]
            with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                parent, change = _round_times(units, repeat)
            a, b = (_artifacts(outs[side]) for side in sides)
            summary = {"parent": _summary(parent), "change": _summary(change)}
            results.append({
                "kind": kind,
                "case": case,
                **summary,
                "ratio": round(summary["change"]["median"] / summary["parent"]["median"], 4),
                "ratio_ci90": _ratio_interval(parent, change),
                "won": int(np.sum(np.asarray(change) < np.asarray(parent))),
                "rounds": repeat,
                "artifacts": len(b),
                "identical": a == b,
            })
    return {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": len(os.sched_getaffinity(0)), "commit": _commit(ROOT),
                "parent_commit": _commit(parent_root)},
        "unit": "ms",
        "statistic": "median and quartiles of the rounds",
        "repeat": repeat,
        "cases": results,
        "identical": all(r["identical"] for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--repeat", type=int, default=21, help="timed rounds per case")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json", help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not (args.parent / "src" / "tlo" / "__init__.py").is_file():
        parser.error(f"{args.parent} holds no src/tlo package")
    result = run(args.parent, args.repeat)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for r in result["cases"]:
        lo, hi = r["ratio_ci90"]
        print(f"{r['kind']:8} {r['case']:17} {r['parent']['median']:9.3f} -> "
              f"{r['change']['median']:9.3f} ms  x{r['ratio']:.3f} [{lo:.3f}, {hi:.3f}]"
              f"  won {r['won']}/{r['rounds']}  identical={r['identical']}")
    print(f"-> {args.out}")
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
