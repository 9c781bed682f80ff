"""Loopback distributed-search smoke check for CI and deployed images.

``python -m repro.search.exec --smoke`` spawns two local worker daemons,
runs a tiny MCMC search over LeNet on a 2-GPU node through the
``distributed`` executor, and asserts the best strategy/cost is
bit-identical to the ``inprocess`` executor with the same seeds.

It exits 0 and prints ``SMOKE OK`` on success -- the console check CI's
loopback job runs, and a quick way to verify a freshly deployed worker
image end-to-end.
"""

from __future__ import annotations

import argparse
import sys


def smoke(verbose: bool = True) -> int:
    from repro.machine.clusters import single_node
    from repro.models.lenet import lenet
    from repro.plan import BudgetConfig, ExecutionConfig, Planner, SearchConfig
    from repro.search.worker import spawn_local_worker

    graph = lenet(batch=32)
    topo = single_node(2, "p100")
    planner = Planner(graph, topo)
    base = SearchConfig(budget=BudgetConfig(iterations=30), seed=3)

    workers = []
    try:
        workers = [spawn_local_worker(once=True) for _ in range(2)]
        cluster = tuple(addr for _, addr in workers)
        if verbose:
            print(f"spawned loopback workers: {', '.join(cluster)}")
        local = planner.search(
            "mcmc", base.replace(execution=ExecutionConfig(executor="inprocess"))
        )
        remote = planner.search(
            "mcmc",
            base.replace(execution=ExecutionConfig(executor="distributed", cluster=cluster)),
        )
    finally:
        for proc, _ in workers:
            proc.terminate()
        for proc, _ in workers:
            proc.wait(timeout=10)

    if remote.best_cost_us != local.best_cost_us:
        print(
            f"SMOKE FAILED: distributed cost {remote.best_cost_us} != "
            f"inprocess cost {local.best_cost_us}",
            file=sys.stderr,
        )
        return 1
    if remote.best_strategy.signature() != local.best_strategy.signature():
        print("SMOKE FAILED: distributed best strategy differs from inprocess", file=sys.stderr)
        return 1
    if verbose:
        print(
            f"SMOKE OK: {len(cluster)} workers, best {local.best_cost_us / 1e3:.3f} ms, "
            f"bit-identical to inprocess"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search.exec",
        description="Chain-executor utilities.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="spawn 2 loopback workers and assert distributed == inprocess",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
