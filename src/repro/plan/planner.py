"""The :class:`Planner` facade: one entry point for the four search backends."""

from __future__ import annotations

from typing import Sequence

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.plan.backends import BACKENDS, check_backend_options
from repro.plan.config import SearchConfig
from repro.plan.errors import UnknownBackendError
from repro.plan.result import PlanResult
from repro.profiler.profiler import OpProfiler
from repro.search.store import search_context
from repro.sim.metrics import IterationMetrics
from repro.sim.simulator import simulate_strategy
from repro.soap.strategy import Strategy

__all__ = ["Planner"]

# Backends compare() runs when none are named.  ``exhaustive`` is omitted
# deliberately: untruncated enumeration is only feasible on tiny graphs
# (opt in explicitly, usually with a ``max_configs_per_op`` option).
DEFAULT_COMPARE_BACKENDS = ("mcmc", "optcnn", "reinforce")


def _check_backend_name(backend: str) -> None:
    if backend not in BACKENDS:
        raise UnknownBackendError(backend, tuple(sorted(BACKENDS)))


class Planner:
    """A parallelization-planning session for one ``(graph, topology)`` pair.

    The planner owns the *problem* -- operator graph, device topology,
    profiler, and the training flag -- while a serializable
    :class:`~repro.plan.config.SearchConfig` owns the *search policy*.
    Each of the four :data:`~repro.plan.backends.BACKENDS` runs against
    the same problem::

        planner = Planner(graph, topology)
        result = planner.search("mcmc", SearchConfig(seed=0))
        table = planner.compare(["mcmc", "optcnn", "reinforce"])

    With ``config.store.root`` set, searches read and append to the store
    shard :meth:`store_context` names.  A shard only appends and nothing
    rewrites it, so the planner has no store upkeep to run.
    """

    def __init__(
        self,
        graph: OperatorGraph,
        topology: DeviceTopology,
        profiler: OpProfiler | None = None,
        training: bool = True,
    ):
        self.graph = graph
        self.topology = topology
        self.profiler = profiler if profiler is not None else OpProfiler()
        self.training = training

    # -- search ------------------------------------------------------------
    def search(self, backend: str, config: SearchConfig | None = None) -> PlanResult:
        """Run one backend; raises
        :class:`~repro.plan.errors.UnknownBackendError` for an unknown name,
        ``ValueError`` before anything runs for a ``backend_options`` entry
        no backend reads, and :class:`~repro.plan.errors.SearchError` when
        the backend cannot produce a strategy."""
        cfg = config if config is not None else SearchConfig()
        _check_backend_name(backend)
        check_backend_options(cfg)
        run, _ = BACKENDS[backend]
        return run(self, cfg)

    def compare(
        self,
        backends: Sequence[str] = DEFAULT_COMPARE_BACKENDS,
        config: SearchConfig | None = None,
    ) -> dict[str, PlanResult]:
        """Run several backends on the same problem and config, in order.

        Returns ``{backend name: PlanResult}`` preserving the given order
        (feed it to :func:`repro.plan.result.comparison_rows` for the
        shared table).  Every name is checked before the first backend
        runs, so a misspelled name late in the list raises
        :class:`~repro.plan.errors.UnknownBackendError` without spending
        the earlier searches; the first :meth:`search` checks the
        ``backend_options`` before it runs.  When
        ``config.store.root`` is set, the store-capable backends
        (``mcmc``, ``exhaustive``) address one shared store context, so
        later backends warm-start from full-strategy evaluations earlier
        ones flushed; each backend's warm/cold hit split is in its
        ``result.store_stats``.
        """
        cfg = config if config is not None else SearchConfig()
        for name in backends:
            _check_backend_name(name)
        return {name: self.search(name, cfg) for name in backends}

    # -- supporting services -----------------------------------------------
    def evaluate(self, strategy: Strategy) -> IterationMetrics:
        """Simulate one concrete strategy on this planner's problem."""
        return simulate_strategy(
            self.graph, self.topology, strategy, self.profiler, training=self.training
        )

    def store_context(self, config: SearchConfig | None = None) -> str:
        """The persistent-store context digest this problem addresses.

        Shared by every backend that consults the store for the same
        ``config.algorithm`` (delta and full simulation cost full
        strategies identically, so entries are interchangeable)."""
        cfg = config if config is not None else SearchConfig()
        return search_context(
            self.graph,
            self.topology,
            training=self.training,
            algorithm=cfg.algorithm,
            noise_amplitude=self.profiler.noise_amplitude,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Planner(graph={self.graph.name!r}, topology={self.topology.name!r}, "
            f"training={self.training})"
        )
