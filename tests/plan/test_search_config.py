"""SearchConfig serialization: JSON round-trip and strict key validation."""

import dataclasses

import pytest

from repro.plan import (
    BudgetConfig,
    ExecutionConfig,
    SearchConfig,
    StoreConfig,
)


def full_config() -> SearchConfig:
    """A config with every field off its default."""
    return SearchConfig(
        budget=BudgetConfig(iterations=321, time_s=1.5, no_improve_frac=0.25),
        execution=ExecutionConfig(
            workers=3,
            cache_size=128,
        ),
        store=StoreConfig(root="/tmp/some-store"),
        inits=("data_parallel", "expert", "random"),
        seed=11,
        algorithm="full",
        beta_scale=20.0,
        backend_options={"reinforce": {"episodes": 12}, "exhaustive": {"max_configs_per_op": 2}},
    )


class TestRoundTrip:
    def test_dict_round_trip_default(self):
        cfg = SearchConfig()
        assert SearchConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_full(self):
        cfg = full_config()
        assert SearchConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip_full(self):
        cfg = full_config()
        assert SearchConfig.from_json(cfg.to_json()) == cfg

    def test_to_dict_is_json_safe(self):
        import json

        payload = full_config().to_dict()
        json.dumps(payload)  # no tuples, dataclasses, or other non-JSON types
        assert isinstance(payload["inits"], list)

    def test_inits_restored_as_tuple(self):
        cfg = SearchConfig.from_dict(SearchConfig(inits=("expert",)).to_dict())
        assert cfg.inits == ("expert",)
        assert isinstance(cfg.inits, tuple)


class TestUnknownKeys:
    def test_top_level_unknown_key_rejected(self):
        payload = SearchConfig().to_dict()
        payload["budget_iters"] = 100  # not a config field
        with pytest.raises(ValueError, match="budget_iters"):
            SearchConfig.from_dict(payload)

    # ``budget.adaptive`` and ``execution.join_bind`` were settable until
    # the fleet became fixed, ``execution.cluster`` until the socket
    # executor was deleted, the store's ``shared`` flag until the
    # planning server was, the execution section's ``executor`` until
    # the worker count alone picked where chains run, and the budget's
    # checkpoint cadence until progress was read from the per-iteration
    # trace; a config that still carries them fails.
    @pytest.mark.parametrize(
        "section,key",
        [
            ("budget", "iters"),
            ("budget", "adaptive"),
            ("execution", "join_bind"),
            ("execution", "cluster"),
            ("store", "shared"),
            ("execution", "executor"),
            ("budget", "checkpoint_every"),
        ],
    )
    def test_nested_unknown_key_rejected(self, section, key):
        payload = SearchConfig().to_dict()
        payload[section][key] = 100
        with pytest.raises(ValueError, match=key):
            SearchConfig.from_dict(payload)

    @pytest.mark.parametrize("section", ["execution", "store"])
    def test_every_sub_config_validates(self, section):
        payload = SearchConfig().to_dict()
        payload[section]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            SearchConfig.from_dict(payload)

    def test_early_stop_section_rejected(self):
        """The early-stop broadcast is gone; a config that still sets a
        target fails instead of silently searching without one."""
        payload = SearchConfig().to_dict()
        payload["early_stop"] = {"cost_us": 123.5}
        with pytest.raises(ValueError, match="early_stop"):
            SearchConfig.from_dict(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig.from_dict([("seed", 1)])


class TestReplaceAndOptions:
    def test_replace_is_functional(self):
        cfg = SearchConfig()
        derived = cfg.replace(seed=9, budget=BudgetConfig(iterations=5))
        assert derived.seed == 9
        assert derived.budget.iterations == 5
        assert cfg.seed == 0  # original untouched

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SearchConfig().seed = 1

    def test_options_lookup(self):
        cfg = full_config()
        assert cfg.options("reinforce") == {"episodes": 12}
        assert cfg.options("mcmc") == {}

    def test_defaults_match_legacy_optimize(self):
        """The default config pins the documented search defaults."""
        cfg = SearchConfig()
        assert cfg.budget.iterations == 1000
        assert cfg.budget.no_improve_frac == 0.5
        assert cfg.execution.workers == 1
        assert cfg.inits == ("data_parallel", "random")
        assert cfg.algorithm == "auto"
        assert cfg.beta_scale == 50.0
        assert cfg.store.root is None


class TestExecutionValidation:
    # No workers, a negative count or cache size, and a count that is a
    # string (as a hand-edited JSON spec may carry).
    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("workers", 0, id="workers-0"),
            pytest.param("workers", -3, id="workers-negative"),
            pytest.param("cache_size", -1, id="cache_size-negative"),
            pytest.param("workers", "2", id="workers-str"),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        """Refused when built, and so when a JSON config loads."""
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: value})
        payload = SearchConfig().to_dict()
        payload["execution"][field] = value
        with pytest.raises(ValueError, match=field):
            SearchConfig.from_dict(payload)
