"""The README's library example runs as written, and every name that tlo
exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

import tlo

README = Path(__file__).parents[1] / "README.md"


def test_library_example_scores_a_feasible_design():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.feasible
    assert np.isfinite(result.e_force) and np.isfinite(result.e_velocity)
    assert printed.getvalue().startswith(f"True {result.e_force} {result.e_velocity}\n")
    archive = namespace["archive"]
    assert archive.evaluation_count == 200
    front = archive.objectives[archive.front_indices]
    assert len(front) and np.all(np.isfinite(front)) and np.all(front < archive.sentinel)
    scores = namespace["scores"]  # one evaluate call scores the front as the search did
    assert scores.feasible.all()
    assert np.column_stack((scores.e_force, scores.e_velocity)).tobytes() == front.tobytes()
    assert namespace["first"].shape == ()
    assert list(namespace["files"]) == ["samples.csv", "pareto.json", "progress.ndjson",
                                        "run_meta.json"]
    assert namespace["run_archive"].evaluation_count == 200


def test_every_exported_name_resolves():
    assert [name for name in tlo.__all__ if not hasattr(tlo, name)] == []
