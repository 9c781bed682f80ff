"""Quickstart: find a parallelization strategy for LeNet on 4 GPUs.

Builds an operator graph, describes a machine, and drives the unified
planner API (:mod:`repro.plan`): one ``Planner`` per ``(graph, machine)``
problem, one serializable ``SearchConfig`` for search policy, and any
registered backend -- ``mcmc``, ``optcnn``, ``reinforce``,
``exhaustive`` -- runnable through the same two entry points,
``Planner.search`` and ``Planner.compare``.

Run:  python examples/quickstart.py
"""

from repro.bench import print_table
from repro.machine import single_node
from repro.models import lenet
from repro.plan import BudgetConfig, Planner, SearchConfig, comparison_rows
from repro.profiler import OpProfiler
from repro.sim import simulate_strategy
from repro.soap import data_parallelism
from repro.viz import render_strategy


def main() -> None:
    # 1. The application: an operator graph (Section 3.1).
    graph = lenet(batch=64)
    print(graph.describe(), "\n")

    # 2. The machine: four P100 GPUs on one NVLink node.
    topo = single_node(4, "p100")
    print(topo.describe(), "\n")

    # 3. The baseline every framework gives you: data parallelism.
    profiler = OpProfiler()
    dp = simulate_strategy(graph, topo, data_parallelism(graph, topo), profiler)
    print(f"data parallelism: {dp.makespan_us / 1e3:.3f} ms/iteration, "
          f"{dp.total_comm_gb * 1e3:.1f} MB moved\n")

    # 4. The execution optimizer: MCMC over the SOAP space (Section 6),
    #    through the unified planner facade.  The config is a frozen
    #    dataclass that round-trips through JSON (`cfg.to_json()`), ready
    #    to ship to remote search workers.
    planner = Planner(graph, topo, profiler=profiler)
    cfg = SearchConfig(
        budget=BudgetConfig(iterations=500),
        seed=0,
        backend_options={"reinforce": {"episodes": 100}},
    )
    result = planner.search("mcmc", cfg)
    print(result.summary(), "\n")

    # 5. What the strategy looks like (cf. Figure 13's rendering).
    print(render_strategy(graph, result.best_strategy))

    # 6. The same problem under every automated baseline the paper
    #    compares against (Section 8.2.3) -- one call, one shared table.
    results = planner.compare(["mcmc", "optcnn", "reinforce"], cfg)
    print_table(comparison_rows(results, batch=64), "Backend comparison")

    # 7. Timeline algorithms: every proposal's timeline is repaired.
    #    "auto" (default) skips identity proposals and re-simulates the
    #    rest from scratch with the full sweep; "delta" re-simulates only
    #    the suffix after the earliest change (the paper's Table 4
    #    comparison); "full" re-simulates every proposal.  All three are
    #    bit-identical, so this is purely a throughput knob
    #    (REPRO_SIM_ALGO in the bench harness), and the summary's
    #    "timeline repair" line shows how auto handled each proposal:
    delta = planner.search("mcmc", cfg.replace(algorithm="delta"))
    assert delta.best_cost_us == result.best_cost_us  # bit-identical
    print(f"\nalgorithm='delta' agrees bitwise: "
          f"{delta.best_cost_us / 1e3:.3f} ms best iteration")

    # 8. Experiments: the paper's whole evaluation grid -- models x
    #    clusters x backends x seeds x store warm/cold x executors -- is
    #    one declarative JSON spec, executed into a persistent results
    #    table (append-only JSONL, nothing ever overwritten):
    #
    #        python -m repro.exp run examples/experiments/ci_grid.json
    #        python -m repro.exp run examples/experiments/ci_grid.json --fresh
    #        python -m repro.exp report examples/experiments/ci_grid.json
    #
    #    Re-running a spec resumes it (recorded trials are skipped, so a
    #    killed run picks up where it stopped); a failed trial records an
    #    error row and the run continues.  `report` renders the
    #    per-group comparison table plus per-trial regression deltas
    #    against the previous run, and exits non-zero past the spec's
    #    threshold -- the CI gate.  The same grid is scriptable:
    from repro.exp import load_spec

    spec = load_spec("examples/experiments/ci_grid.json")
    print(f"\nexperiment spec '{spec.name}': {len(spec.trials())} trials, "
          f"first: {spec.trials()[0].trial_id}")

    # 9. Distributed search: the MCMC chains can run on worker daemons
    #    instead of this process.  Start one per machine:
    #
    #        python -m repro.search.worker --bind 0.0.0.0:7070
    #
    #    (--capacity N serves N concurrent chains per daemon) and point
    #    the (still JSON-serializable) config at them:
    #
    #        cfg = cfg.replace(execution=ExecutionConfig(
    #            executor="distributed",
    #            cluster=("gpu-a:7070", "gpu-b:7070*2"),  # *2 caps in-flight chains
    #        ))
    #        planner.search("mcmc", cfg)
    #
    #    Results are bit-identical to the local executors for the same
    #    seeds; dead workers re-queue their chains (an errored chain is
    #    retried once on a different worker) and evaluations flush back
    #    to the coordinator's store without a shared filesystem.
    #    See examples/distributed_search.py for a runnable loopback demo.
    print("\ndistributed search: see examples/distributed_search.py "
          "(python -m repro.search.worker --bind HOST:PORT)")

    # 10. Planner as a service: a resident server (python -m
    #    repro.plan.serve) interns the problem on first sight and keeps
    #    store shards open, so repeat requests skip the setup entirely --
    #    and concurrent identical requests collapse onto one search.
    #    Against a real deployment you would just connect:
    #
    #        with PlanClient("plan-host:7180") as client:
    #            result = client.plan(graph, topo, config=cfg)
    #
    #    Here we spawn a loopback server to show the cold/warm split:
    import signal

    from repro.plan import PlanClient
    from repro.plan.serve import spawn_local_server

    proc, addr = spawn_local_server()
    try:
        small = cfg.replace(budget=BudgetConfig(iterations=50))
        with PlanClient(addr) as client:
            cold = client.plan(graph, topo, config=small)  # ships the problem
            warm = client.plan(graph, topo, config=small.replace(seed=1))  # bare digest
        c, w = cold.extras["serve"], warm.extras["serve"]
        print(f"\nplanning server at {addr}: cold setup "
              f"{c['setup_s'] * 1e3:.2f} ms -> warm setup {w['setup_s'] * 1e3:.3f} ms "
              f"(problem interned server-side)")
    finally:
        proc.send_signal(signal.SIGTERM)  # graceful drain: finishes, flushes, exits 0
        proc.wait(timeout=30)


if __name__ == "__main__":
    main()
