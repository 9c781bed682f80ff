"""ExperimentSpec: expansion determinism, trial ids, JSON round-trip."""

import json

import pytest

from repro.exp.spec import ClusterPoint, ExperimentSpec, Trial, load_spec
from repro.plan import BudgetConfig, SearchConfig


def tiny_spec(**overrides):
    kwargs = dict(
        name="t",
        models=("mlp", "lenet"),
        clusters=(ClusterPoint("p100", 2), ClusterPoint("k80", 4)),
        backends=("mcmc",),
        seeds=(0, 1),
        store_modes=("cold", "warm"),
        search=SearchConfig(budget=BudgetConfig(iterations=5)),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestExpansion:
    def test_full_cross_product(self):
        spec = tiny_spec()
        trials = spec.trials()
        assert len(trials) == 2 * 2 * 1 * 2 * 2

    def test_expansion_is_deterministic_and_ordered(self):
        a, b = tiny_spec().trials(), tiny_spec().trials()
        assert a == b
        # models vary slowest, algorithms fastest
        assert [t.model for t in a[:8]] == ["mlp"] * 8
        assert a[0].store_mode == "cold" and a[1].store_mode == "warm"

    def test_trial_ids_are_stable_and_unique(self):
        trials = tiny_spec().trials()
        ids = [t.trial_id for t in trials]
        assert len(set(ids)) == len(ids)
        assert "mlp/p100x2/mcmc/s0/cold/auto" in ids

    def test_trial_id_survives_grid_growth(self):
        # Adding axis values must not move existing ids (the resume key).
        small = tiny_spec(models=("mlp",)).trials()
        big = tiny_spec(models=("mlp", "lenet", "alexnet")).trials()
        assert {t.trial_id for t in small} <= {t.trial_id for t in big}

    def test_group_collapses_replicate_axes(self):
        trials = [t for t in tiny_spec().trials() if t.model == "mlp" and t.cluster.kind == "p100"]
        assert {t.group for t in trials} == {"mlp/p100x2/mcmc"}

    def test_to_row_carries_axis_columns(self):
        row = tiny_spec().trials()[0].to_row()
        assert row["model"] == "mlp" and row["cluster"] == "p100x2"
        assert row["trial"] == tiny_spec().trials()[0].trial_id


class TestValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="models"):
            tiny_spec(models=())

    def test_bad_store_mode_rejected(self):
        with pytest.raises(ValueError, match="store mode"):
            tiny_spec(store_modes=("lukewarm",))

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="timeline algorithm"):
            tiny_spec(algorithms=("warp",))

    def test_bad_cluster_kind_rejected(self):
        with pytest.raises(ValueError, match="cluster kind"):
            ClusterPoint("tpu", 4)

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(seeds=(0, 0))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="trial_timeout_s"):
            tiny_spec(trial_timeout_s=0.0)


class TestSerialization:
    def test_json_round_trip_is_lossless(self):
        spec = tiny_spec(trial_timeout_s=30.0, regression_threshold=0.1)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_top_level_key_rejected(self):
        data = tiny_spec().to_dict()
        data["modles"] = ["mlp"]
        with pytest.raises(ValueError, match="modles"):
            ExperimentSpec.from_dict(data)

    def test_unknown_cluster_key_rejected(self):
        data = tiny_spec().to_dict()
        data["clusters"][0]["gpus"] = 2
        with pytest.raises(ValueError, match="gpus"):
            ExperimentSpec.from_dict(data)

    def test_unknown_search_key_rejected(self):
        data = tiny_spec().to_dict()
        data["search"]["budgett"] = {}
        with pytest.raises(ValueError, match="budgett"):
            ExperimentSpec.from_dict(data)

    def test_digest_stable_across_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_json(spec.to_json()).digest() == spec.digest()

    def test_digest_sensitive_to_every_axis_and_policy(self):
        base = tiny_spec()
        variants = [
            tiny_spec(models=("mlp",)),
            tiny_spec(seeds=(0,)),
            tiny_spec(clusters=(ClusterPoint("p100", 2),)),
            tiny_spec(search=SearchConfig(budget=BudgetConfig(iterations=6))),
            tiny_spec(regression_threshold=0.2),
            tiny_spec(algorithms=("auto", "delta")),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(tiny_spec().to_json())
        assert load_spec(path) == tiny_spec()

    def test_load_spec_bad_json_is_actionable(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(path)


def test_committed_ci_grid_spec_parses(request):
    # The committed example must stay loadable, with a pool that really
    # fans out (the acceptance grid).
    root = request.config.rootpath
    spec = load_spec(root / "examples" / "experiments" / "ci_grid.json")
    trials = spec.trials()
    assert spec.search.execution.workers > 1 and len(spec.search.inits) > 1
    assert any(t.store_mode == "warm" for t in trials)
    assert len(trials) >= 12
