"""SearchConfig serialization: JSON round-trip and strict key validation."""

import dataclasses

import pytest

from repro.plan import (
    BudgetConfig,
    EarlyStopConfig,
    ExecutionConfig,
    SearchConfig,
    StoreConfig,
)


def full_config() -> SearchConfig:
    """A config with every field off its default."""
    return SearchConfig(
        budget=BudgetConfig(
            iterations=321, time_s=1.5, no_improve_frac=0.25, checkpoint_every=7
        ),
        execution=ExecutionConfig(
            workers=3,
            cache_size=128,
            executor="pool",
        ),
        store=StoreConfig(root="/tmp/some-store"),
        early_stop=EarlyStopConfig(cost_us=123.5),
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

    def test_executor_defaults(self):
        cfg = SearchConfig()
        assert cfg.execution.executor == "auto"


class TestUnknownKeys:
    def test_top_level_unknown_key_rejected(self):
        payload = SearchConfig().to_dict()
        payload["budget_iters"] = 100  # not a config field
        with pytest.raises(ValueError, match="budget_iters"):
            SearchConfig.from_dict(payload)

    # ``budget.adaptive`` and ``execution.join_bind`` were settable until
    # the fleet became fixed, ``execution.cluster`` until the socket
    # executor was deleted, and the store's ``shared`` flag until the
    # planning server was; a config that still carries them fails.
    @pytest.mark.parametrize(
        "section,key",
        [
            ("budget", "iters"),
            ("budget", "adaptive"),
            ("execution", "join_bind"),
            ("execution", "cluster"),
            ("store", "shared"),
        ],
    )
    def test_nested_unknown_key_rejected(self, section, key):
        payload = SearchConfig().to_dict()
        payload[section][key] = 100
        with pytest.raises(ValueError, match=key):
            SearchConfig.from_dict(payload)

    @pytest.mark.parametrize("section", ["execution", "store", "early_stop"])
    def test_every_sub_config_validates(self, section):
        payload = SearchConfig().to_dict()
        payload[section]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
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
        assert cfg.early_stop.cost_us is None
