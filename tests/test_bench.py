"""scripts/bench.py runs end to end: with this checkout as its own parent, at
one round, it writes its JSON, and every case's artifacts read
byte-identical."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = {  # (kind, case): the files each side writes, report.json and its SVG panels
    ("report", "target1_nograv"): 10,  # four states: two panels each, and the arrangement
    ("report", "target1_grav"): 6,
    ("report", "constant_relaxed"): 6,
    ("report", "three_joint_grav"): 6,
    **{("optimize", name): 4 for name in ("target1_nograv", "target1_grav", "target2_nograv",
                                          "constant_relaxed")},
}


def test_bench_against_its_own_checkout(tmp_path):
    out = tmp_path / "bench.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--parent",
                          str(ROOT), "--repeat", "1", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"env", "unit", "statistic", "repeat", "cases", "identical"}
    assert set(result["env"]) == {"python", "numpy", "cores", "commit", "parent_commit"}
    assert result["env"]["cores"] >= 1 and result["repeat"] == 1 and result["identical"]
    assert [(case["kind"], case["case"]) for case in result["cases"]] == list(CASES)
    for case in result["cases"]:
        assert case["identical"] and case["rounds"] == 1 and case["won"] in (0, 1)
        assert case["artifacts"] == CASES[case["kind"], case["case"]]
        for side in ("parent", "change"):
            times = case[side]
            assert 0 < times["q1"] <= times["median"] <= times["q3"]
        assert case["ratio"] > 0
        low, high = case["ratio_ci90"]  # one round resamples to itself
        assert 0 < low == high == pytest.approx(case["ratio"], rel=1e-3)
