"""Structured, serializable search configuration.

:class:`SearchConfig` is a frozen dataclass of frozen sub-configs:
budget, execution fan-out and persistent store each get their own
small namespace, every backend consumes the same object, and
the whole thing round-trips losslessly through JSON, so a config can be
embedded in an experiment spec.

Use :meth:`SearchConfig.replace` (or :func:`dataclasses.replace` on any
sub-config) to derive variants::

    cfg = SearchConfig(budget=BudgetConfig(iterations=500), seed=0)
    warm = cfg.replace(store=StoreConfig(root="~/.cache/repro"))

``from_dict`` rejects unknown keys at every nesting level, so a config
serialized by a newer version fails loudly instead of silently dropping
fields.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "BudgetConfig",
    "ExecutionConfig",
    "StoreConfig",
    "SearchConfig",
]


def _check_keys(cls, data: Mapping[str, Any], label: str) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"{label} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} for {label}; valid keys: {sorted(known)}"
        )


@dataclass(frozen=True)
class BudgetConfig:
    """Iteration/time budget of one search chain.

    Each chain's progress over its budget is in its ``SearchTrace``
    (``PlanResult.extras["traces"]``), one entry per iteration.
    """

    iterations: int = 1000
    time_s: float | None = None
    # Stall criterion fraction (Section 6.2 criterion (2)); None disables.
    no_improve_frac: float | None = 0.5

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BudgetConfig":
        _check_keys(cls, data, "BudgetConfig")
        return cls(**data)


@dataclass(frozen=True)
class ExecutionConfig:
    """How chains execute: their fan-out.

    With ``workers > 1`` and more than one chain, the chains run on a
    local process pool of ``workers`` processes, at most one per chain
    (:func:`repro.search.exec.run_chains`); otherwise they run one after
    another in the caller.  ``PlanResult.extras["workers"]`` counts the
    processes that ran them.  Results are bit-identical for every worker
    count for a fixed seed set; the choice is pure capacity.
    ``workers`` must be an int ``>= 1``; anything else raises
    ``ValueError``.
    """

    workers: int = 1

    def __post_init__(self):
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(
                f"ExecutionConfig.workers must be an int >= 1, got {self.workers!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        _check_keys(cls, data, "ExecutionConfig")
        return cls(**data)


@dataclass(frozen=True)
class StoreConfig:
    """Persistent cross-run strategy store (``None`` root disables it)."""

    root: str | None = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreConfig":
        _check_keys(cls, data, "StoreConfig")
        return cls(**data)


@dataclass(frozen=True)
class SearchConfig:
    """Everything a :class:`~repro.plan.Planner` backend needs besides the
    problem itself.

    The problem -- ``(graph, topology, profiler, training)`` -- lives on
    the :class:`~repro.plan.Planner`; the config is pure search policy
    and therefore serializable.  ``backend_options`` carries
    backend-specific knobs keyed by backend name (e.g.
    ``{"reinforce": {"episodes": 300}}``); ``Planner.search`` refuses an
    unknown backend name or key before any backend runs.
    """

    budget: BudgetConfig = BudgetConfig()
    execution: ExecutionConfig = ExecutionConfig()
    store: StoreConfig = StoreConfig()
    inits: tuple[str, ...] = ("data_parallel", "random")
    seed: int = 0
    # Timeline algorithm the chains' simulators run: "auto" (the
    # default: identity proposals are no-ops, every other proposal is a
    # full sweep -- see repro.sim.simulator), "delta" (cut-time
    # incremental repair, kept for the paper's Table 4), or "full"
    # (from-scratch on every proposal).  Result-neutral -- all three are
    # bit-identical -- and serialized like every other field.
    algorithm: str = "auto"
    beta_scale: float = 50.0
    backend_options: dict = field(default_factory=dict)

    # -- derivation --------------------------------------------------------
    def replace(self, **changes: Any) -> "SearchConfig":
        """A copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def options(self, backend: str) -> dict:
        """This backend's entry in ``backend_options`` (empty if absent)."""
        opts = self.backend_options.get(backend, {})
        if not isinstance(opts, Mapping):
            raise ValueError(
                f"backend_options[{backend!r}] must be a mapping, got {type(opts).__name__}"
            )
        return dict(opts)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe nested dict (tuples become lists)."""
        return {
            "budget": dataclasses.asdict(self.budget),
            "execution": dataclasses.asdict(self.execution),
            "store": dataclasses.asdict(self.store),
            "inits": list(self.inits),
            "seed": self.seed,
            "algorithm": self.algorithm,
            "beta_scale": self.beta_scale,
            "backend_options": {k: dict(v) for k, v in self.backend_options.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys at every level."""
        _check_keys(cls, data, "SearchConfig")
        kwargs: dict[str, Any] = dict(data)
        for name, sub in (
            ("budget", BudgetConfig),
            ("execution", ExecutionConfig),
            ("store", StoreConfig),
        ):
            if name in kwargs and not isinstance(kwargs[name], sub):
                kwargs[name] = sub.from_dict(kwargs[name])
        if "inits" in kwargs:
            kwargs["inits"] = tuple(kwargs["inits"])
        if "backend_options" in kwargs:
            opts = kwargs["backend_options"]
            if not isinstance(opts, Mapping):
                raise ValueError("backend_options must be a mapping of backend name -> options")
            kwargs["backend_options"] = {k: dict(v) for k, v in opts.items()}
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "SearchConfig":
        return cls.from_dict(json.loads(payload))
