"""Declarative experiment specs: a grid of trials, frozen and serializable.

An :class:`ExperimentSpec` declares the paper's evaluation shape -- models
x clusters x search backends x seeds x store warm/cold x timeline
algorithms -- as one frozen, JSON-round-trippable object, and expands it
into a deterministic tuple of :class:`Trial`\\ s with *stable* trial ids:
the id is a pure function of the trial's axis values, so re-running an
edited spec re-executes only the rows that are actually new (the resume seam
:mod:`repro.exp.runner` keys on), and two machines expanding the same
spec agree on every id without coordination.

Like :class:`repro.plan.SearchConfig` (whose serialization idiom this
follows), ``from_dict`` rejects unknown keys at every nesting level, so a
spec written by a newer version fails loudly instead of silently
dropping an axis.  :meth:`ExperimentSpec.digest` hashes the canonical
JSON form -- the key under which :mod:`repro.exp.results` shards the
results table, so results from two different grids never interleave.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.plan.config import SearchConfig

__all__ = [
    "STORE_MODES",
    "ClusterPoint",
    "Trial",
    "ExperimentSpec",
    "load_spec",
]

# A trial's persistent-store mode: "cold" searches with persistence off;
# "warm" searches against the run's shared store shard, so it hits
# evaluations that earlier trials (or earlier runs) of the same problem
# flushed -- the warm/cold A-B the results table reports hit-rates for.
STORE_MODES = ("cold", "warm")

_CLUSTER_KINDS = ("p100", "k80")


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
class ClusterPoint:
    """One cluster axis value: a named topology kind and a device count."""

    kind: str = "p100"
    devices: int = 4

    def __post_init__(self):
        if self.kind not in _CLUSTER_KINDS:
            raise ValueError(
                f"unknown cluster kind {self.kind!r}; valid kinds: {_CLUSTER_KINDS}"
            )
        if self.devices < 1:
            raise ValueError(f"cluster needs >= 1 device, got {self.devices}")

    @property
    def label(self) -> str:
        """Human-readable axis label (``p100x4``), used inside trial ids."""
        return f"{self.kind}x{self.devices}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "devices": self.devices}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterPoint":
        _check_keys(cls, data, "ClusterPoint")
        return cls(**data)


@dataclass(frozen=True)
class Trial:
    """One grid cell: everything that varies between rows of the table.

    ``trial_id`` is the stable join key between the spec, the results
    table, and the regression report: a readable path of the trial's axis
    values, deterministic across runs and across spec edits that only
    add or remove *other* rows.
    """

    model: str
    model_scale: str
    cluster: ClusterPoint
    backend: str
    seed: int
    store_mode: str
    algorithm: str = "auto"

    @property
    def trial_id(self) -> str:
        return (
            f"{self.model}/{self.cluster.label}/{self.backend}"
            f"/s{self.seed}/{self.store_mode}/{self.algorithm}"
        )

    @property
    def group(self) -> str:
        """The aggregation group (model x cluster x backend) this trial
        belongs to -- seeds/store modes/algorithms are replicates within it."""
        return f"{self.model}/{self.cluster.label}/{self.backend}"

    def to_row(self) -> dict:
        """The trial's axis values as flat results-table columns."""
        return {
            "trial": self.trial_id,
            "model": self.model,
            "cluster": self.cluster.label,
            "backend": self.backend,
            "seed": self.seed,
            "store_mode": self.store_mode,
            "algorithm": self.algorithm,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: axes, base search policy, and run policy.

    The grid is the full cross product of the axes, expanded in a fixed
    order (models, then clusters, backends, seeds, store modes,
    algorithms) by :meth:`trials`.  ``search`` is the *base*
    :class:`~repro.plan.SearchConfig` every trial derives from -- the
    runner replaces the seed, store, and timeline algorithm per trial;
    everything else (budget, execution, inits, backend options) applies
    grid-wide.  The ``algorithms`` axis is result-neutral (the timeline
    algorithms are bit-identical), so its rows double as a free
    cross-check: same group, same cost, different wall time.
    """

    name: str
    models: tuple[str, ...]
    clusters: tuple[ClusterPoint, ...] = (ClusterPoint(),)
    backends: tuple[str, ...] = ("mcmc",)
    seeds: tuple[int, ...] = (0,)
    store_modes: tuple[str, ...] = ("cold",)
    algorithms: tuple[str, ...] = ("auto",)
    model_scale: str = "ci"
    # Per-trial wall-clock limit; a trial past it records an error row and
    # the run continues (None disables).
    trial_timeout_s: float | None = None
    # Report gate: a trial whose cost grew by more than this fraction over
    # the baseline run counts as a regression (repro.exp.report).
    regression_threshold: float = 0.05
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        if not self.name:
            raise ValueError("ExperimentSpec needs a non-empty name")
        for axis, values in (
            ("models", self.models),
            ("clusters", self.clusters),
            ("backends", self.backends),
            ("seeds", self.seeds),
            ("store_modes", self.store_modes),
            ("algorithms", self.algorithms),
        ):
            if not values:
                raise ValueError(f"ExperimentSpec axis {axis!r} must be non-empty")
        for mode in self.store_modes:
            if mode not in STORE_MODES:
                raise ValueError(
                    f"unknown store mode {mode!r}; valid modes: {STORE_MODES}"
                )
        from repro.sim.simulator import ALGORITHMS

        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(
                    f"unknown timeline algorithm {algo!r}; valid: {ALGORITHMS}"
                )
        if len(set(t.trial_id for t in self.trials())) != len(self.trials()):
            raise ValueError("duplicate axis values collapse trial ids; deduplicate the spec")
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ValueError("trial_timeout_s must be positive (or None)")
        if not 0 <= self.regression_threshold:
            raise ValueError("regression_threshold must be >= 0")

    # -- expansion ---------------------------------------------------------
    def trials(self) -> tuple[Trial, ...]:
        """The grid, expanded in deterministic axis order."""
        out = []
        for model in self.models:
            for cp in self.clusters:
                for backend in self.backends:
                    for seed in self.seeds:
                        for mode in self.store_modes:
                            for algorithm in self.algorithms:
                                out.append(
                                    Trial(
                                        model=model,
                                        model_scale=self.model_scale,
                                        cluster=cp,
                                        backend=backend,
                                        seed=seed,
                                        store_mode=mode,
                                        algorithm=algorithm,
                                    )
                                )
        return tuple(out)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "models": list(self.models),
            "clusters": [c.to_dict() for c in self.clusters],
            "backends": list(self.backends),
            "seeds": list(self.seeds),
            "store_modes": list(self.store_modes),
            "algorithms": list(self.algorithms),
            "model_scale": self.model_scale,
            "trial_timeout_s": self.trial_timeout_s,
            "regression_threshold": self.regression_threshold,
            "search": self.search.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_keys(cls, data, "ExperimentSpec")
        kwargs: dict[str, Any] = dict(data)
        for name in ("models", "backends", "seeds", "store_modes", "algorithms"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        if "clusters" in kwargs:
            kwargs["clusters"] = tuple(
                c if isinstance(c, ClusterPoint) else ClusterPoint.from_dict(c)
                for c in kwargs["clusters"]
            )
        if "search" in kwargs and not isinstance(kwargs["search"], SearchConfig):
            kwargs["search"] = SearchConfig.from_dict(kwargs["search"])
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(payload))

    def digest(self) -> str:
        """Stable 128-bit hex digest of the canonical spec JSON.

        The results-table shard key: two specs share a trajectory iff
        their canonical forms are byte-equal, so editing any axis or the
        base search policy starts a fresh shard instead of polluting an
        old one with incomparable rows.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def load_spec(path: str | os.PathLike) -> ExperimentSpec:
    """Read one spec from a JSON file (the CLI's input format)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"experiment spec {path} is not valid JSON: {exc}") from None
    return ExperimentSpec.from_dict(data)
