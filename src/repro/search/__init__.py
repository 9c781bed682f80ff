"""Execution optimizer (paper Section 6): MCMC search plus exhaustive reference."""

from repro.search.cache import (
    CacheStats,
    SimulationCache,
    config_digest,
    strategy_fingerprint,
)
from repro.search.exhaustive import ExhaustiveResult
from repro.search.mcmc import BudgetChannel, MCMCConfig, SearchTrace, mcmc_search
from repro.search.exec import (
    DEFAULT_CACHE_SIZE,
    ChainExecutor,
    ChainResult,
    ChainSpec,
    DistributedExecutor,
    ExecutionContext,
    InProcessExecutor,
    ProcessPoolExecutor,
    available_executors,
    get_executor,
    register_executor,
)
from repro.search.store import (
    STORE_FORMAT_VERSION,
    CompactionStats,
    MemoryStore,
    StoreStats,
    StrategyStore,
    default_store_root,
    graph_digest,
    search_context,
    topology_digest,
)

__all__ = [
    "CacheStats",
    "SimulationCache",
    "config_digest",
    "strategy_fingerprint",
    "STORE_FORMAT_VERSION",
    "CompactionStats",
    "StoreStats",
    "StrategyStore",
    "default_store_root",
    "graph_digest",
    "search_context",
    "topology_digest",
    "BudgetChannel",
    "ExhaustiveResult",
    "MCMCConfig",
    "SearchTrace",
    "mcmc_search",
    "DEFAULT_CACHE_SIZE",
    "ChainResult",
    "ChainSpec",
    "ChainExecutor",
    "ExecutionContext",
    "InProcessExecutor",
    "ProcessPoolExecutor",
    "DistributedExecutor",
    "available_executors",
    "get_executor",
    "register_executor",
    "MemoryStore",
]
