"""Execution optimizer (paper Section 6): MCMC search plus exhaustive reference."""

from repro.search.cache import config_digest, strategy_fingerprint
from repro.search.exhaustive import ExhaustiveResult
from repro.search.mcmc import MCMCConfig, SearchTrace, mcmc_search
from repro.search.exec import ChainResult, ChainSpec, ExecutionContext, run_chains
from repro.search.store import (
    STORE_FORMAT_VERSION,
    StoreStats,
    StrategyStore,
    default_store_root,
    graph_digest,
    search_context,
    topology_digest,
)

__all__ = [
    "config_digest",
    "strategy_fingerprint",
    "STORE_FORMAT_VERSION",
    "StoreStats",
    "StrategyStore",
    "default_store_root",
    "graph_digest",
    "search_context",
    "topology_digest",
    "ExhaustiveResult",
    "MCMCConfig",
    "SearchTrace",
    "mcmc_search",
    "ChainResult",
    "ChainSpec",
    "ExecutionContext",
    "run_chains",
]
