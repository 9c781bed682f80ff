"""``benchmarks/compare_e2e.py``, the end-to-end benchmark's parent/change gate."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_e2e.py"
_spec = importlib.util.spec_from_file_location("compare_e2e", _PATH)
compare_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_e2e)

SPEC = json.loads(compare_e2e.SPEC_PATH.read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOAD = SPEC["workloads"][0]["name"]


def a_run(failed: int = 0) -> dict:
    """A ``run.py --out`` result with every workload and end-to-end metric."""
    result = {
        "correct": not failed, "attempted": 20, "failed": failed,
        "metrics": {name: {"value": 2.0, "unit": m["unit"]} for name, m in METRICS.items()},
    }
    return {"workloads": {w["name"]: copy.deepcopy(result) for w in SPEC["workloads"]}}


def with_value(run: dict, metric: str, value: float) -> dict:
    run = copy.deepcopy(run)
    run["workloads"][WORKLOAD]["metrics"][metric]["value"] = value
    return run


def test_equal_runs_pass():
    assert compare_e2e.problems(a_run(), a_run()) == []


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_metric_past_its_bound_fails_in_its_better_direction(better):
    name, m = next((n, m) for n, m in METRICS.items() if m["better"] == better)
    worse = 1 + m["bound"] * 1.5 if better == "lower" else 1 - m["bound"] * 1.5
    within = 1 + m["bound"] * 0.5 if better == "lower" else 1 - m["bound"] * 0.5
    base = a_run()
    assert compare_e2e.problems(base, with_value(base, name, 2.0 * within)) == []
    found = compare_e2e.problems(base, with_value(base, name, 2.0 * worse))
    assert len(found) == 1 and found[0].startswith(f"{WORKLOAD} {name}:")
    # Better by any amount passes.
    assert compare_e2e.problems(base, with_value(base, name, 2.0 / worse)) == []


def test_more_failed_searches_fail():
    assert compare_e2e.problems(a_run(failed=1), a_run(failed=1)) == []
    assert compare_e2e.problems(a_run(failed=1), a_run()) == []
    found = compare_e2e.problems(a_run(), a_run(failed=1))
    assert len(found) == len(SPEC["workloads"]) and "searches failed" in found[0]


def test_a_missing_metric_or_run_fails(tmp_path):
    base = a_run()
    partial = copy.deepcopy(base)
    del partial["workloads"][WORKLOAD]["metrics"][next(iter(METRICS))]
    assert len(compare_e2e.problems(base, partial)) == 1
    assert compare_e2e.problems(base, with_value(base, next(iter(METRICS)), None))
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(base))
    assert compare_e2e.main([str(parent), str(change)]) == 1  # change.json never written
    change.write_text(json.dumps(base))
    assert compare_e2e.main([str(parent), str(change)]) == 0
    change.write_text(json.dumps(a_run(failed=2)))
    assert compare_e2e.main([str(parent), str(change)]) == 1
