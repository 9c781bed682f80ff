"""Tests of the end-to-end search benchmark, driven through its --smoke mode
(tiny models and budgets) so they stay fast."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from repro.plan import BudgetConfig, Planner, SearchConfig
from repro.search.cache import strategy_fingerprint

SPEC = run.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert bounds["plan_speedup"] <= 0.001  # deterministic: any worse plan is a regression


def test_every_named_workload_and_metric_is_emitted():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(run.SMOKE_WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = [m["name"] for m in SPEC[key]]
        for w in SPEC["workloads"]:
            result = run.run_workload(w["name"], seed=1, trace=trace, smoke=True)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
            assert sorted(result["metrics"]) == sorted(want), (w["name"], key)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _search(seed: int = 3):
    graph, _ = run.bench_model("lenet", run.CI_SCALE)
    planner = Planner(graph, run.cluster("p100", 4))
    cfg = SearchConfig(budget=BudgetConfig(iterations=10, no_improve_frac=None), seed=seed)
    result = planner.search("mcmc", cfg)
    return result.best_cost_us, strategy_fingerprint(result.best_strategy)


def test_traced_search_returns_the_untraced_result():
    untraced = _search()
    with tracing.Tracer() as tracer:
        traced = _search()
    assert traced == untraced
    assert not tracer.skipped
    metrics = tracing.summarize(tracer.spans)
    assert metrics["sim.repair_ms"] > 0 and metrics["trace.coverage"] > 0.5


def _attribute(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_every_wrapped_attribute_is_restored():
    before = {p: _attribute(*p) for p in tracing.WRAP_POINTS}
    with tracing.Tracer():
        assert all(_attribute(*p) is not before[p] for p in tracing.WRAP_POINTS)
    assert all(_attribute(*p) is before[p] for p in tracing.WRAP_POINTS)


def test_a_missing_callable_is_skipped():
    points = [p for p in tracing.WRAP_POINTS if p[1] != "preflight_route"] + [
        ("repro.sim.simulator", "no_such_function"),
        ("repro.sim.simulator", "NoSuchClass.method"),
    ]
    with tracing.Tracer(points) as tracer:
        _search()
    assert tracer.skipped == [
        "repro.sim.simulator.no_such_function",
        "repro.sim.simulator.NoSuchClass.method",
    ]
    assert tracing.summarize(tracer.spans)["sim.route_ms"] == 0


def test_a_wrong_cost_fails_the_run(monkeypatch, capsys):
    evaluate = Planner.evaluate

    def off_by_one(self, strategy):
        metrics = evaluate(self, strategy)
        metrics.makespan_us += 1.0
        return metrics

    monkeypatch.setattr(Planner, "evaluate", off_by_one)
    status = run.main(["--workload", "alexnet4-long", "--smoke"])
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert status == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 4
    assert "FAILED workload alexnet4-long rep 0 (search seed 0)" in err


def test_algorithm_is_validated_and_labels_rows(capsys):
    with pytest.raises(SystemExit):
        run.main(["--workload", "alexnet4-long", "--smoke", "--algorithm", "no-such-algorithm"])
    capsys.readouterr()
    assert run.main(["--workload", "rnnlm4-cold", "--smoke", "--algorithm", "full"]) == 0
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert rows and all(r.startswith("rnnlm4-cold/full ") for r in rows)


def test_command_line_contract():
    cmd = SPEC["command"][1:] + [
        "--workload", "inception4-rerun", "--seed", "2", "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the script finds src/ itself
    done = subprocess.run([sys.executable, *cmd, "--smoke"], cwd=run.ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
