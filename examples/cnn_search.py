"""Parallelizing Inception-v3 across a multi-node P100 cluster.

Reproduces the Figure 13 workflow: compare data parallelism, the
"one weird trick" expert strategy, and the SOAP search on the paper's
P100 cluster, then show where the discovered strategy spends its time.

Run:  python examples/cnn_search.py [--gpus 8] [--iters 300]

Warm-store reruns
-----------------
Pass ``--store-dir`` (or export ``REPRO_CACHE_DIR``) to persist every
strategy evaluation to disk.  The first run over a given (model,
cluster) pair is a normal cold search that populates the store; any
rerun -- tweaking ``--iters``, comparing ``--workers``, or repeating a
sweep -- answers proposals from the store and skips the simulator almost
entirely, at identical results::

    python examples/cnn_search.py --gpus 8 --store-dir ~/.cache/repro   # cold
    python examples/cnn_search.py --gpus 8 --store-dir ~/.cache/repro   # warm, many times faster

The store is keyed by a composite fingerprint of the graph, topology,
and simulator/cost-model versions: changing the model or the cluster
keys a fresh context automatically, and code changes to the cost model
or simulator are invalidated by bumping ``COST_MODEL_VERSION`` /
``SIMULATOR_VERSION`` alongside the change (a stale store is never
detected by magic -- the version constants are the contract).
"""

import argparse

from repro.bench import print_table, strategy_rows
from repro.machine import p100_cluster
from repro.models import inception_v3
from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig, StoreConfig
from repro.profiler import OpProfiler
from repro.search import default_store_root
from repro.sim import TaskGraph, full_simulate
from repro.soap import data_parallelism, expert_strategy
from repro.viz import device_utilization_bars


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--gpus", type=int, default=8, choices=(4, 8, 16))
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for chain fan-out (same result for any value)",
    )
    ap.add_argument(
        "--store-dir",
        default=default_store_root(),
        help="persistent strategy-store directory for warm reruns "
        "(default: $REPRO_CACHE_DIR; omit to disable persistence)",
    )
    args = ap.parse_args()

    graph = inception_v3(batch=64)
    topo = p100_cluster(num_nodes=max(1, args.gpus // 4), gpus_per_node=min(4, args.gpus))
    profiler = OpProfiler()
    print(f"Inception-v3 ({graph.num_ops} ops) on {topo.name}\n")

    planner = Planner(graph, topo, profiler=profiler)
    result = planner.search(
        "mcmc",
        SearchConfig(
            budget=BudgetConfig(iterations=args.iters),
            execution=ExecutionConfig(workers=args.workers),
            store=StoreConfig(root=args.store_dir),
            seed=0,
        ),
    )
    rows = strategy_rows(
        graph,
        topo,
        batch=64,
        strategies={
            "data_parallel": data_parallelism(graph, topo),
            "expert (OWT)": expert_strategy(graph, topo),
            "flexflow": result,  # strategy_rows unwraps the PlanResult
        },
        profiler=profiler,
    )
    print_table(rows, "Per-iteration comparison")
    print(result.summary(), "\n")

    tg = TaskGraph(graph, topo, result.best_strategy, profiler)
    print("Device utilization under the discovered strategy:")
    print(device_utilization_bars(tg, full_simulate(tg)))


if __name__ == "__main__":
    main()
