"""Structured, serializable search configuration.

:class:`SearchConfig` is a frozen dataclass of frozen sub-configs:
budget, execution fan-out, persistent store, and early stop each get
their own small namespace, every backend consumes the same object, and
the whole thing round-trips losslessly through JSON, so a config can be
shipped to a planning server or embedded in an experiment spec.

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

from repro.search.exec.base import DEFAULT_CACHE_SIZE

__all__ = [
    "BudgetConfig",
    "ExecutionConfig",
    "StoreConfig",
    "EarlyStopConfig",
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
    """Iteration/time budget of one search chain."""

    iterations: int = 1000
    time_s: float | None = None
    # Stall criterion fraction (Section 6.2 criterion (2)); None disables.
    no_improve_frac: float | None = 0.5
    # Adaptive budget reallocation between chains (opt-in; see
    # repro.search.mcmc).
    adaptive: bool = False
    # SearchTrace checkpoint cadence (0 = final checkpoint only).
    checkpoint_every: int = 0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BudgetConfig":
        _check_keys(cls, data, "BudgetConfig")
        return cls(**data)


@dataclass(frozen=True)
class ExecutionConfig:
    """How chains execute: executor selection, fan-out, and cache size.

    ``executor`` names a registered chain executor
    (:mod:`repro.search.exec`): ``"auto"`` (distributed when ``cluster``
    is non-empty, else pool when ``workers > 1``, else in-process),
    ``"inprocess"``, ``"pool"``, or ``"distributed"`` -- the last
    dispatching chains to the
    ``python -m repro.search.worker`` daemons listed in ``cluster`` as
    ``"host:port"`` strings.  Results are bit-identical across executors
    for a fixed seed set; the choice is pure capacity.

    ``join_bind`` (``"host:port"``, port 0 for kernel-assigned) makes
    the distributed coordinator open a registration listener so
    ``python -m repro.search.worker --join`` daemons can enter the
    fleet mid-search; ``None`` keeps the fleet fixed at dispatch time.
    """

    workers: int = 1
    cache_size: int = DEFAULT_CACHE_SIZE
    executor: str = "auto"
    cluster: tuple[str, ...] = ()
    join_bind: str | None = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        _check_keys(cls, data, "ExecutionConfig")
        kwargs: dict[str, Any] = dict(data)
        if "cluster" in kwargs:
            # JSON has no tuples: round-trip the address list losslessly.
            kwargs["cluster"] = tuple(kwargs["cluster"])
        return cls(**kwargs)


@dataclass(frozen=True)
class StoreConfig:
    """Persistent cross-run strategy store (``None`` root disables it).

    ``shared=True`` makes searches reuse one process-wide open handle per
    shard (:func:`repro.search.store.shared_store`) instead of re-opening
    and re-parsing the shard each run -- the resident-state mode the
    planning server (:mod:`repro.plan.serve`) forces on every request.
    Result-neutral; per-run warm/cold store accounting is what changes
    (entries this process recorded stay "cold" across later searches).
    """

    root: str | None = None
    shared: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreConfig":
        _check_keys(cls, data, "StoreConfig")
        return cls(**data)


@dataclass(frozen=True)
class EarlyStopConfig:
    """Target-cost early stop broadcast across chains (``None`` disables)."""

    cost_us: float | None = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EarlyStopConfig":
        _check_keys(cls, data, "EarlyStopConfig")
        return cls(**data)


@dataclass(frozen=True)
class SearchConfig:
    """Everything a :class:`~repro.plan.Planner` backend needs besides the
    problem itself.

    The problem -- ``(graph, topology, profiler, training)`` -- lives on
    the :class:`~repro.plan.Planner`; the config is pure search policy
    and therefore serializable.  ``backend_options`` carries
    backend-specific knobs keyed by backend name (e.g.
    ``{"reinforce": {"episodes": 300}}``); each backend validates its own
    option keys and ignores the other backends' entries.
    """

    budget: BudgetConfig = BudgetConfig()
    execution: ExecutionConfig = ExecutionConfig()
    store: StoreConfig = StoreConfig()
    early_stop: EarlyStopConfig = EarlyStopConfig()
    inits: tuple[str, ...] = ("data_parallel", "random")
    seed: int = 0
    # Timeline algorithm the chains' simulators run: "auto" (the
    # default: identity proposals are no-ops, every other proposal is a
    # full sweep -- see repro.sim.simulator), "delta" (cut-time
    # incremental repair, kept for the paper's Table 4), or "full"
    # (from-scratch on every proposal).  Result-neutral -- all three are
    # bit-identical -- and serialized like every other field, so remote
    # ChainSpec dispatch honors it.
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
            "execution": {
                **dataclasses.asdict(self.execution),
                "cluster": list(self.execution.cluster),
            },
            "store": dataclasses.asdict(self.store),
            "early_stop": dataclasses.asdict(self.early_stop),
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
            ("early_stop", EarlyStopConfig),
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
