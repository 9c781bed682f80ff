"""ExperimentRunner: execution, resume, failure capture, timeout, stores."""

import pytest

from repro.exp.results import ResultsTable
from repro.exp.runner import ExperimentRunner, run_experiment
from repro.exp.spec import ClusterPoint, ExperimentSpec
from repro.plan import BudgetConfig, ExecutionConfig, SearchConfig


def tiny_spec(**overrides):
    kwargs = dict(
        name="mini",
        models=("mlp",),
        clusters=(ClusterPoint("p100", 2),),
        backends=("mcmc",),
        seeds=(0,),
        store_modes=("cold",),
        search=SearchConfig(budget=BudgetConfig(iterations=5), inits=("data_parallel",)),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def quiet(*a, **k):
    pass


class TestRun:
    def test_executes_every_trial_and_appends_rows(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1), store_modes=("cold", "warm"))
        stats = run_experiment(spec, root=tmp_path, progress=quiet)
        assert stats.run_id == "r1"
        assert stats.executed == len(spec.trials()) == 4
        assert stats.errors == 0 and stats.skipped == 0
        rows = ResultsTable(tmp_path).load(spec.digest())
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "ok"
            assert row["cost_us"] > 0 and row["simulations"] > 0
            assert row["spec"] == spec.digest() and row["spec_name"] == "mini"

    def test_resume_skips_recorded_trials(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        run_experiment(spec, root=tmp_path, progress=quiet)
        again = run_experiment(spec, root=tmp_path, progress=quiet)
        assert again.run_id == "r1"
        assert again.executed == 0 and again.skipped == 2

    def test_partial_table_resumes_only_missing_trials(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1, 2))
        # Seed the table with one trial's row, as if a prior run died.
        first = spec.trials()[0]
        ResultsTable(tmp_path).append(
            spec.digest(),
            [{"run": "r1", "trial": first.trial_id, "status": "ok", "cost_us": 1.0}],
        )
        stats = run_experiment(spec, root=tmp_path, progress=quiet)
        assert stats.run_id == "r1"
        assert stats.skipped == 1 and stats.executed == 2

    def test_fresh_starts_new_run(self, tmp_path):
        spec = tiny_spec()
        run_experiment(spec, root=tmp_path, progress=quiet)
        stats = run_experiment(spec, root=tmp_path, fresh=True, progress=quiet)
        assert stats.run_id == "r2" and stats.executed == 1
        res = ResultsTable(tmp_path).results(spec.digest())
        assert res.runs == ("r1", "r2")

    def test_explicit_run_id(self, tmp_path):
        spec = tiny_spec()
        stats = run_experiment(spec, root=tmp_path, run_id="nightly-2026-08-08", progress=quiet)
        assert stats.run_id == "nightly-2026-08-08"

    def test_results_deterministic_across_runs(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        run_experiment(spec, root=tmp_path, progress=quiet)
        run_experiment(spec, root=tmp_path, fresh=True, progress=quiet)
        res = ResultsTable(tmp_path).results(spec.digest())
        r1 = {r["trial"]: r["cost_us"] for r in res.rows_for("r1")}
        r2 = {r["trial"]: r["cost_us"] for r in res.rows_for("r2")}
        assert r1 == r2  # same seeds, same config -> bit-identical costs


class TestFailureCapture:
    def test_injected_failure_records_error_row_and_run_survives(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        victim = spec.trials()[0].trial_id
        stats = run_experiment(spec, root=tmp_path, inject_fail=(victim,), progress=quiet)
        assert stats.executed == 2 and stats.errors == 1
        assert stats.error_trials == [victim]
        rows = ResultsTable(tmp_path).results(spec.digest())
        outcome = rows.trial_outcomes("r1")[victim]
        assert outcome["status"] == "error"
        assert "InjectedFailure" in outcome["error"]
        assert "injected failure" in outcome["error_trace"]

    def test_env_seam_injects_failure(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        monkeypatch.setenv("REPRO_EXP_FAIL", spec.trials()[0].trial_id)
        stats = run_experiment(spec, root=tmp_path, progress=quiet)
        assert stats.errors == 1

    def test_backend_exception_is_captured_not_raised(self, tmp_path):
        # An unknown backend raises inside the trial; the run records it.
        spec = tiny_spec(backends=("mcmc", "no_such_backend"))
        stats = run_experiment(spec, root=tmp_path, progress=quiet)
        assert stats.executed == 2 and stats.errors == 1
        res = ResultsTable(tmp_path).results(spec.digest())
        bad = res.trial_outcomes("r1")["mlp/p100x2/no_such_backend/s0/cold/auto"]
        assert "UnknownBackendError" in bad["error"]

    def test_error_rows_resume_as_recorded_unless_retry(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        victim = spec.trials()[0].trial_id
        run_experiment(spec, root=tmp_path, inject_fail=(victim,), progress=quiet)
        resumed = run_experiment(spec, root=tmp_path, progress=quiet)
        assert resumed.executed == 0 and resumed.skipped == 2
        retried = run_experiment(spec, root=tmp_path, retry_errors=True, progress=quiet)
        assert retried.executed == 1 and retried.errors == 0
        # The retried trial's last outcome is now ok.
        res = ResultsTable(tmp_path).results(spec.digest())
        assert res.trial_outcomes("r1")[victim]["status"] == "ok"

    def test_trial_timeout_becomes_error_row(self, tmp_path, monkeypatch):
        import time

        import repro.plan.planner as planner_mod

        spec = tiny_spec(trial_timeout_s=0.2)
        orig = planner_mod.Planner.search

        def slow_search(self, backend, config=None):
            time.sleep(2.0)
            return orig(self, backend, config)

        monkeypatch.setattr(planner_mod.Planner, "search", slow_search)
        stats = run_experiment(spec, root=tmp_path, progress=quiet)
        assert stats.errors == 1
        res = ResultsTable(tmp_path).results(spec.digest())
        (row,) = res.error_rows
        assert "TrialTimeout" in row["error"]


class TestStoresAndWarmth:
    def test_warm_trials_hit_store_on_second_run(self, tmp_path):
        spec = tiny_spec(store_modes=("cold", "warm"))
        run_experiment(spec, root=tmp_path, progress=quiet)
        run_experiment(spec, root=tmp_path, fresh=True, progress=quiet)
        res = ResultsTable(tmp_path).results(spec.digest())
        by_trial = res.trial_outcomes("r2")
        warm = by_trial["mlp/p100x2/mcmc/s0/warm/auto"]
        cold = by_trial["mlp/p100x2/mcmc/s0/cold/auto"]
        assert warm["store_warm_hits"] > 0, warm
        assert cold["store_lookups"] == 0, cold  # persistence off for cold trials
        # Warmth is result-neutral.
        assert warm["cost_us"] == cold["cost_us"]
        # The warm shard lives under the table root, namespaced by digest.
        assert (ResultsTable(tmp_path).root / "store" / spec.digest()).is_dir()

    def test_warm_hits_within_single_run_across_seeds(self, tmp_path):
        # Seed 0's warm trial flushes; seed 1's warm trial reads the same
        # shard -- warm accumulation inside one run.
        spec = tiny_spec(store_modes=("warm",), seeds=(0, 1))
        run_experiment(spec, root=tmp_path, progress=quiet)
        res = ResultsTable(tmp_path).results(spec.digest())
        rows = res.rows_for("r1")
        assert sum(r["store_appended"] for r in rows) > 0


class TestPoolTrial:
    def test_pool_trial_matches_inprocess(self, tmp_path):
        rows = {}
        for workers in (1, 2):
            spec = tiny_spec(
                trial_timeout_s=120.0,
                search=SearchConfig(
                    budget=BudgetConfig(iterations=5),
                    execution=ExecutionConfig(workers=workers),
                    inits=("data_parallel", "random"),
                ),
            )
            stats = ExperimentRunner(spec, root=tmp_path, progress=quiet).run()
            assert stats.executed == 1 and stats.errors == 0
            out = ResultsTable(tmp_path).results(spec.digest()).trial_outcomes("r1")
            rows[workers] = out["mlp/p100x2/mcmc/s0/cold/auto"]
        assert rows[2]["cost_us"] == rows[1]["cost_us"]  # the pool is pure capacity
        assert rows[1]["workers"] == 1
        assert rows[2]["workers"] == 2

    def test_pool_of_one_worker_records_one_worker(self, tmp_path):
        """Under the default workers=1 a trial runs its chains in the
        caller, and its row records one worker."""
        spec = tiny_spec(search=SearchConfig(budget=BudgetConfig(iterations=5)))
        run_experiment(spec, root=tmp_path, progress=quiet)
        out = ResultsTable(tmp_path).results(spec.digest()).trial_outcomes("r1")
        row = out["mlp/p100x2/mcmc/s0/cold/auto"]
        assert row["status"] == "ok"
        assert row["workers"] == 1
