"""The Figure 14 case study: heterogeneous per-layer NMT parallelization.

Searches the SOAP space for the NMT model on 4 P100 GPUs and prints the
per-layer summary that mirrors Figure 14: embeddings concentrated,
vocabulary-sized softmax layers split along the channel (parameter)
dimension, LSTM layers combining batch and inter-layer parallelism.

Run:  python examples/nmt_search.py [--steps 10] [--iters 400]

Warm-store reruns
-----------------
As in ``cnn_search.py``, ``--store-dir`` (or ``REPRO_CACHE_DIR``)
persists strategy evaluations across runs.  NMT searches are the
longest in the suite -- unrolled LSTM stacks produce big task graphs --
so warm reruns pay off the most here::

    python examples/nmt_search.py --steps 10 --store-dir ~/.cache/repro   # cold
    python examples/nmt_search.py --steps 10 --store-dir ~/.cache/repro   # warm

Changing ``--steps`` (a different unrolled graph) keys a different store
context: warm entries are only reused where they are provably valid.
"""

import argparse

from repro.bench import print_table, strategy_rows
from repro.machine import single_node
from repro.models import nmt
from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig, StoreConfig
from repro.profiler import OpProfiler
from repro.search import default_store_root
from repro.soap import data_parallelism, expert_strategy
from repro.viz import render_layer_summary


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=10, help="unrolled steps per side (paper: 40)")
    ap.add_argument("--iters", type=int, default=400)
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

    graph = nmt(batch=64, src_len=args.steps, tgt_len=args.steps, hidden=1024, vocab=16384)
    topo = single_node(4, "p100")
    profiler = OpProfiler()
    print(f"NMT ({graph.num_ops} ops, {len(graph.param_groups())} weight groups) on {topo.name}\n")

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
            "expert (GNMT)": expert_strategy(graph, topo),
            "flexflow": result,  # strategy_rows unwraps the PlanResult
        },
        profiler=profiler,
    )
    print_table(rows, "Per-iteration comparison")

    print("Discovered per-layer configurations (cf. Figure 14):")
    print(render_layer_summary(graph, result.best_strategy))


if __name__ == "__main__":
    main()
