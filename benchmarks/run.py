"""Benchmark of the tlo command line tool.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports tlo from src/. With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
ones. The last line of standard output is the result as one JSON object;
the lines before it are a readable summary. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tlo" / "__init__.py").is_file():
        print(f"benchmark: no tlo sources in {ROOT / 'src' / 'tlo'}", file=sys.stderr)
        return 2
    # one process, no worker threads: the single-worker path of tlo, and no
    # BLAS thread pool (set before numpy is first imported)
    os.environ.pop("TLO_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tlobench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {result['workload']} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    wall = result["wall"]
    for name, m in result["metrics"].items():
        line = f"  {name:42s} {m['value']:>16.6g} {m['unit']}"
        if name in wall and wall[name]["value"] != m["value"]:
            line += f"  (wall clock {wall[name]['value']:.6g})"
        print(line)
    print(f"  {'failed_share':42s} {result['failed_share']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  {'report samples':42s} {result['report_samples']:>16d}")
    for check in result["share_checks"]:
        verdict = "ok" if check["ok"] else "NOT MET"
        print(f"  share check {check['metric']} = {check['value']:.4f} {check['expect']}: {verdict}")
    if result["missing_layers"]:
        print("  missing layers (zero calls): " + ", ".join(result["missing_layers"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
