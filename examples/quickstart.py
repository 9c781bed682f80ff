"""Quickstart: find a parallelization strategy for LeNet on 4 GPUs.

Builds an operator graph, describes a machine, and drives the unified
planner API (:mod:`repro.plan`): one ``Planner`` per ``(graph, machine)``
problem, one serializable ``SearchConfig`` for search policy, and the
four backends -- ``mcmc``, ``optcnn``, ``reinforce``, ``exhaustive`` --
runnable through the same two entry points, ``Planner.search`` and
``Planner.compare``.

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
    #    to embed in an experiment spec (step 8).
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
    #    clusters x backends x seeds x store warm/cold x timeline
    #    algorithms -- is one declarative JSON spec, executed into a
    #    persistent results table (append-only JSONL, nothing ever
    #    overwritten):
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

    # 9. Parallel chains: with workers > 1 the MCMC chains run on a
    #    local process pool instead of one after another in this process,
    #
    #        planner.search("mcmc", cfg.replace(execution=ExecutionConfig(workers=2)))
    #
    #    with bit-identical results for the same seeds: every chain
    #    carries its own seed and chains exchange nothing, so where it
    #    runs is pure capacity.

    # 10. Repeated searches: reuse the Planner.  It keeps its profiler,
    #     and with it the construction memo (`OpProfiler.memo`: each op's
    #     task regions and overlaps per degree vector, measured once as
    #     in the paper's profiler, Section 5.1), so a later search of the
    #     same problem skips the geometry an earlier one computed.  The
    #     experiment runner keeps one Planner per (model, cluster) pair
    #     for the same reason.
    again = planner.search("mcmc", cfg.replace(seed=1))
    print(f"\nreused planner: seed 0 searched in {result.wall_time_s:.3f} s "
          f"(its first search), seed 1 in {again.wall_time_s:.3f} s")


if __name__ == "__main__":
    main()
