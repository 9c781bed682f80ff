"""One experiment function per paper table/figure.

Each function returns plain ``list[dict]`` rows that
:func:`repro.bench.reporting.print_table` renders in the paper's format;
the ``benchmarks/`` pytest-benchmark files are thin wrappers that call
these, print the rows, and assert the qualitative claims (who wins, by
roughly what factor).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import (
    BenchScale,
    baseline_strategies,
    bench_model,
    cluster,
    evaluate_strategy,
    scaled_device_counts,
    search_config,
)
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.models.rnn import rnnlm_small
from repro.plan import Planner, comparison_rows
from repro.profiler.profiler import OpProfiler
from repro.runtime.data import synthetic_classification, synthetic_images
from repro.runtime.executor import (
    distributed_forward,
    init_params,
    make_inputs,
    reference_forward,
)
from repro.runtime.reference import ReferenceConfig, reference_execute
from repro.runtime.training import Trainer
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.full_sim import full_simulate
from repro.sim.metrics import throughput_samples_per_sec
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace

__all__ = [
    "fig7_throughput",
    "fig8_nmt_breakdown",
    "fig9_end_to_end",
    "fig10a_reinforce",
    "fig10b_optcnn",
    "fig10_backend_comparison",
    "fig11_sim_accuracy",
    "fig12_search_progress",
    "fig13_fig14_case_study",
    "table3_accuracy_parity",
    "table4_search_time",
    "table4_parallel_search",
    "table4_warm_cold_search",
    "sec84_optimality",
]


def _flexflow(graph, topo, scale: BenchScale, seed: int = 0, profiler=None):
    """One FlexFlow search at the bench scale; returns the PlanResult.

    ``scale.store_dir`` (``REPRO_CACHE_DIR``) threads the persistent
    strategy store through every figure sweep: reruns over the same
    (model, cluster) cells warm-start from disk at identical results.
    The controlled A/B benches (``table4_parallel_search``,
    ``table4_warm_cold_search``) manage their own store deliberately and
    do not go through this helper's default.
    """
    return Planner(graph, topo, profiler=profiler).search(
        "mcmc", search_config(scale, seed=seed)
    )


# ---------------------------------------------------------------------------
# Figure 7: per-iteration training throughput, 6 DNNs x 2 clusters x scaling.
# ---------------------------------------------------------------------------
def fig7_throughput(
    model: str, kind: str, scale: BenchScale, device_counts: list[int] | None = None
) -> list[dict]:
    graph, batch = bench_model(model, scale)
    rows = []
    for n in device_counts or scaled_device_counts(kind, scale):
        topo = cluster(kind, n)
        profiler = OpProfiler()
        for name, strat in baseline_strategies(graph, topo).items():
            m = evaluate_strategy(graph, topo, strat, profiler)
            rows.append(
                {
                    "model": model,
                    "cluster": kind,
                    "gpus": n,
                    "strategy": name,
                    "iter_ms": m.makespan_us / 1e3,
                    "samples_per_s_per_gpu": throughput_samples_per_sec(batch, m.makespan_us) / n,
                }
            )
        res = _flexflow(graph, topo, scale, profiler=profiler)
        rows.append(
            {
                "model": model,
                "cluster": kind,
                "gpus": n,
                "strategy": "flexflow",
                "iter_ms": res.best_cost_us / 1e3,
                "samples_per_s_per_gpu": res.throughput(batch) / n,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8: NMT breakdown on the K80 cluster.
# ---------------------------------------------------------------------------
def fig8_nmt_breakdown(scale: BenchScale, num_gpus: int | None = None) -> list[dict]:
    graph, batch = bench_model("nmt", scale)
    n = num_gpus or scale.max_gpus_k80
    topo = cluster("k80", n)
    profiler = OpProfiler()
    rows = []
    for name, strat in baseline_strategies(graph, topo).items():
        m = evaluate_strategy(graph, topo, strat, profiler)
        rows.append(
            {
                "strategy": name,
                "iter_time_s": m.makespan_us / 1e6,
                "transfers_GB": m.total_comm_gb,
                "compute_s": m.total_compute_us / 1e6,
            }
        )
    res = _flexflow(graph, topo, scale, profiler=profiler)
    m = res.metrics
    rows.append(
        {
            "strategy": "flexflow",
            "iter_time_s": m.makespan_us / 1e6,
            "transfers_GB": m.total_comm_gb,
            "compute_s": m.total_compute_us / 1e6,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Figure 9: end-to-end training time (time-to-loss-threshold).
# ---------------------------------------------------------------------------
def fig9_end_to_end(scale: BenchScale) -> list[dict]:
    """Time-to-target-loss comparison on Inception-v3 (16 P100).

    The per-iteration times come from the simulator (baseline = data
    parallelism, i.e. the TensorFlow strategy; the paper normalizes data
    parallelism across frameworks -- Section 8.2.1).  The loss trajectory
    over iterations is identical for both systems (same computation), so
    the end-to-end curves differ exactly by the per-iteration ratio; a
    real small-scale training run provides the loss-vs-iteration shape.
    """
    graph, batch = bench_model("inception_v3", scale)
    topo = cluster("p100", min(16, scale.max_gpus_p100))
    profiler = OpProfiler()
    dp_ms = evaluate_strategy(graph, topo, data_parallelism(graph, topo), profiler).makespan_us / 1e3
    ff_ms = _flexflow(graph, topo, scale, profiler=profiler).best_cost_us / 1e3

    # Loss-vs-iteration shape from a real (small) training run.
    ds = synthetic_images(n=512)
    hist = Trainer(lenet(batch=32), lr=0.01, seed=0).train(ds, epochs=6)
    losses = hist.losses
    target = losses[0] * 0.25
    iters_to_target = next((i for i, l in enumerate(losses) if l <= target), len(losses))
    return [
        {
            "system": "tensorflow (data parallel)",
            "iter_ms": dp_ms,
            "iters_to_target": iters_to_target,
            "time_to_target_s": dp_ms * iters_to_target / 1e3,
        },
        {
            "system": "flexflow",
            "iter_ms": ff_ms,
            "iters_to_target": iters_to_target,
            "time_to_target_s": ff_ms * iters_to_target / 1e3,
        },
    ]


# ---------------------------------------------------------------------------
# Figure 10a: vs REINFORCE on 4 K80 GPUs.
# ---------------------------------------------------------------------------
def fig10a_reinforce(scale: BenchScale, models: tuple[str, ...] = ("inception_v3", "nmt")) -> list[dict]:
    rows = []
    for model in models:
        graph, batch = bench_model(model, scale)
        topo = cluster("k80", 4)
        planner = Planner(graph, topo, profiler=OpProfiler())
        cfg = search_config(scale, seed=0)
        rl = planner.search("reinforce", cfg)
        res = planner.search("mcmc", cfg)
        rows.append(
            {
                "model": model,
                "reinforce_tput": rl.throughput(batch),
                "flexflow_tput": res.throughput(batch),
                "speedup": rl.best_cost_us / res.best_cost_us,
                "reinforce_search_s": rl.wall_time_s,
                "flexflow_search_s": res.wall_time_s,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 10b: vs OptCNN on 16 P100 GPUs.
# ---------------------------------------------------------------------------
def fig10b_optcnn(
    scale: BenchScale,
    models: tuple[str, ...] = ("inception_v3", "rnntc", "rnnlm", "nmt"),
) -> list[dict]:
    rows = []
    for model in models:
        graph, batch = bench_model(model, scale)
        topo = cluster("p100", min(16, scale.max_gpus_p100))
        planner = Planner(graph, topo, profiler=OpProfiler())
        cfg = search_config(scale, seed=0)
        oc = planner.search("optcnn", cfg)
        res = planner.search("mcmc", cfg)
        rows.append(
            {
                "model": model,
                "optcnn_tput": oc.throughput(batch),
                "flexflow_tput": res.throughput(batch),
                "speedup": oc.best_cost_us / res.best_cost_us,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 10 companion: all four backends on one (model, cluster) pair.
# ---------------------------------------------------------------------------
def fig10_backend_comparison(
    scale: BenchScale,
    model: str = "inception_v3",
    kind: str = "p100",
    gpus: int = 4,
    backends: tuple[str, ...] = ("mcmc", "exhaustive", "optcnn", "reinforce"),
) -> list[dict]:
    """The headline comparison through one ``Planner.compare`` call.

    All four backends search the same Inception/P100 problem
    under one :class:`~repro.plan.SearchConfig` and land in one shared
    table (the surface Section 8 compares systems on).  Exhaustive
    enumeration of a real model is infeasible, so its candidate lists are
    truncated to one config per group -- it degrades to the canonical
    data-parallel-style point rather than blowing up the bench.
    """
    graph, batch = bench_model(model, scale)
    topo = cluster(kind, min(gpus, scale.max_gpus_p100 if kind == "p100" else scale.max_gpus_k80))
    cfg = search_config(scale, seed=0).replace(
        backend_options={
            "reinforce": {"episodes": scale.reinforce_episodes},
            "exhaustive": {"max_configs_per_op": 1},
        }
    )
    results = Planner(graph, topo, profiler=OpProfiler()).compare(backends, cfg)
    return comparison_rows(results, batch)


# ---------------------------------------------------------------------------
# Figure 11: simulator accuracy vs the reference executor.
# ---------------------------------------------------------------------------
def fig11_sim_accuracy(
    scale: BenchScale,
    models: tuple[str, ...] = ("inception_v3", "nmt"),
    setups: tuple[tuple[str, int], ...] = (("p100", 4), ("p100", 16), ("k80", 4), ("k80", 16)),
) -> list[dict]:
    rows = []
    rng = np.random.default_rng(0)
    for model in models:
        graph, _ = bench_model(model, scale)
        for kind, n in setups:
            topo = cluster(kind, n)
            profiler = OpProfiler(noise_amplitude=0.02)
            # Locality-preserving random strategies (contiguous device
            # blocks), matching the searched/designed strategies the paper
            # measures; adversarially scattered placements saturate the
            # NIC-contention model the simulator intentionally omits.
            space = ConfigSpace(graph, topo, contiguous_bias=1.0)
            strategies = {"data_parallel": data_parallelism(graph, topo), "expert": expert_strategy(graph, topo)}
            for i in range(max(0, scale.sim_accuracy_strategies - 2)):
                strategies[f"random{i}"] = space.random_strategy(rng)
            pairs = []
            for name, strat in strategies.items():
                tg = TaskGraph(graph, topo, strat, profiler)
                sim_us = full_simulate(tg).makespan
                real_us = reference_execute(tg, ReferenceConfig(seed=7)).makespan_us
                pairs.append((name, sim_us, real_us))
            sim_rank = [p[0] for p in sorted(pairs, key=lambda p: p[1])]
            real_rank = [p[0] for p in sorted(pairs, key=lambda p: p[2])]
            for name, sim_us, real_us in pairs:
                rows.append(
                    {
                        "model": model,
                        "setup": f"{n}x{kind}",
                        "strategy": name,
                        "sim_ms": sim_us / 1e3,
                        "real_ms": real_us / 1e3,
                        "rel_diff_%": (real_us - sim_us) / real_us * 100.0,
                        "order_preserved": sim_rank == real_rank,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 12: search progress with full vs delta simulation.
# ---------------------------------------------------------------------------
def fig12_search_progress(scale: BenchScale, checkpoints: int = 8) -> list[dict]:
    graph, _ = bench_model("nmt", scale)
    topo = cluster("p100", min(16, scale.max_gpus_p100))
    rows = []
    for algorithm in ("full", "delta"):
        profiler = OpProfiler()
        sim = Simulator(graph, topo, data_parallelism(graph, topo), profiler, algorithm=algorithm)
        space = ConfigSpace(graph, topo)
        cfg = MCMCConfig(iterations=scale.search_iters, seed=0)
        _, best, trace = mcmc_search(sim, space, cfg)
        if not trace.times_s:
            continue
        total = trace.times_s[-1]
        for i in range(1, checkpoints + 1):
            t_target = total * i / checkpoints
            idx = max(0, np.searchsorted(trace.times_s, t_target) - 1)
            rows.append(
                {
                    "algorithm": algorithm,
                    "elapsed_s": trace.times_s[idx],
                    "best_iter_ms": trace.best_costs[idx] / 1e3,
                    "iterations": idx + 1,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 13-14: case studies of discovered strategies.
# ---------------------------------------------------------------------------
def fig13_fig14_case_study(scale: BenchScale, model: str) -> tuple[list[dict], str]:
    """Best strategy on 4 P100 GPUs + its layer-level rendering."""
    from repro.viz.strategy_viz import render_layer_summary

    graph, batch = bench_model(model, scale)
    topo = cluster("p100", 4)
    profiler = OpProfiler()
    dp = evaluate_strategy(graph, topo, data_parallelism(graph, topo), profiler)
    res = _flexflow(graph, topo, scale, profiler=profiler)
    rows = [
        {
            "strategy": "data_parallel",
            "iter_ms": dp.makespan_us / 1e3,
            "comm_GB": dp.total_comm_gb,
        },
        {
            "strategy": "flexflow",
            "iter_ms": res.best_cost_us / 1e3,
            "comm_GB": res.metrics.total_comm_gb,
        },
    ]
    return rows, render_layer_summary(graph, res.best_strategy)


# ---------------------------------------------------------------------------
# Table 3: accuracy parity (numerical-equivalence + training substitutes).
# ---------------------------------------------------------------------------
def table3_accuracy_parity(scale: BenchScale) -> list[dict]:
    rows = []
    rng = np.random.default_rng(0)

    # (a) distributed == reference forward for random strategies.
    from repro.machine.clusters import single_node

    graph = lenet(batch=8)
    topo = single_node(4, "p100")
    params = init_params(graph, seed=0)
    inputs = make_inputs(graph, seed=0)
    ref = reference_forward(graph, params, inputs)
    space = ConfigSpace(graph, topo)
    max_err = 0.0
    for _ in range(3):
        dist = distributed_forward(graph, space.random_strategy(rng), params, inputs)
        for oid in graph.op_ids:
            max_err = max(max_err, float(np.abs(dist[oid] - ref[oid]).max()))
    rows.append(
        {
            "check": "lenet distributed == reference (3 random strategies)",
            "metric": "max abs err",
            "value": max_err,
            "pass": max_err < 1e-4,
        }
    )

    # (b) training converges (synthetic substitutes for ImageNet/PTB).
    mh = Trainer(mlp(batch=64, in_dim=64, hidden=(128,), num_classes=10), lr=0.2).train(
        synthetic_classification(n=1024, in_dim=64), epochs=12
    )
    rows.append(
        {
            "check": "mlp synthetic classification",
            "metric": "final accuracy",
            "value": mh.final_accuracy,
            "pass": mh.final_accuracy > 0.9,
        }
    )
    lh = Trainer(lenet(batch=32), lr=0.01).train(synthetic_images(n=512), epochs=6)
    rows.append(
        {
            "check": "lenet synthetic images",
            "metric": "final accuracy",
            "value": lh.final_accuracy,
            "pass": lh.final_accuracy > 0.9,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Table 4: end-to-end search time, full vs delta simulation.
# ---------------------------------------------------------------------------
def table4_search_time(
    scale: BenchScale,
    models: tuple[str, ...] = ("alexnet", "resnet101", "inception_v3", "rnntc", "rnnlm", "nmt"),
    device_counts: tuple[int, ...] = (4, 8, 16),
    seeds: tuple[int, ...] = (0, 1),
) -> list[dict]:
    rows = []
    for model in models:
        graph, _ = bench_model(model, scale)
        for n in device_counts:
            if n > scale.max_gpus_p100:
                continue
            topo = cluster("p100", n)
            times = {}
            for algorithm in ("full", "delta"):
                elapsed = 0.0
                for seed in seeds:
                    profiler = OpProfiler()
                    sim = Simulator(
                        graph, topo, data_parallelism(graph, topo), profiler, algorithm=algorithm
                    )
                    space = ConfigSpace(graph, topo)
                    cfg = MCMCConfig(iterations=scale.table4_iters, seed=seed, no_improve_frac=1.0)
                    t0 = time.perf_counter()
                    mcmc_search(sim, space, cfg)
                    elapsed += time.perf_counter() - t0
                times[algorithm] = elapsed / len(seeds)
            rows.append(
                {
                    "model": model,
                    "gpus": n,
                    "full_s": times["full"],
                    "delta_s": times["delta"],
                    "speedup": times["full"] / times["delta"] if times["delta"] > 0 else float("nan"),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 4 companion: sequential vs parallel search orchestration.
# ---------------------------------------------------------------------------
def table4_parallel_search(
    scale: BenchScale,
    model: str = "inception_v3",
    gpus: int = 8,
    workers: int = 4,
    seed: int = 0,
) -> list[dict]:
    """Same search run sequentially and fanned out over ``workers``.

    Both rows drive identical Markov chains (per-chain seeds + canonical
    tie-breaking make results independent of worker count), so
    ``best_iter_ms`` and ``simulations`` must agree exactly; the
    interesting column is wall time.  The ``inits`` list is widened to
    one chain per worker so the fan-out has enough independent chains to
    spread.
    """
    graph, _ = bench_model(model, scale)
    topo = cluster("p100", min(gpus, scale.max_gpus_p100))
    inits = ("data_parallel", "expert") + ("random",) * max(2, workers - 2)
    rows = []
    for label, w in (("sequential", 1), ("parallel", workers)):
        res = Planner(graph, topo, profiler=OpProfiler()).search(
            "mcmc", search_config(scale, seed=seed, inits=inits, workers=w, store_dir=None)
        )
        rows.append(
            {
                "mode": label,
                "workers": w,
                "best_iter_ms": res.best_cost_us / 1e3,
                "wall_s": res.wall_time_s,
                "simulations": res.simulations,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 4 companion: cold vs warm persistent-store search (sweep reruns).
# ---------------------------------------------------------------------------
def table4_warm_cold_search(
    scale: BenchScale,
    model: str = "inception_v3",
    gpus: int = 8,
    seed: int = 0,
    store_dir: "str | None" = None,
    workers: int = 1,
) -> list[dict]:
    """The same search run against a cold and then a warm persistent store.

    Models a Table-4-style sweep revisiting one ``(model, cluster)`` pair:
    the cold run populates the on-disk store
    (:mod:`repro.search.store`), the warm run answers almost every
    proposal from it and only simulates each chain's initial strategy
    (lazy timeline sync never catches up when nothing misses).  Results
    are bit-identical across the three rows -- the store is
    result-neutral -- so the interesting columns are wall time,
    simulation count, and store hit rate.  ``store_dir`` defaults to a
    throwaway temporary directory; deliberately NOT to
    ``scale.store_dir`` (``REPRO_CACHE_DIR``), which a previous run may
    have pre-warmed -- the "cold" row must actually be cold for the
    comparison to mean anything.
    """
    import tempfile

    graph, _ = bench_model(model, scale)
    topo = cluster("p100", min(gpus, scale.max_gpus_p100))

    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-store-")
        store_dir = tmp.name
    try:
        rows = []
        for label, store in (("no-store", None), ("cold", store_dir), ("warm", store_dir)):
            res = Planner(graph, topo, profiler=OpProfiler()).search(
                "mcmc",
                search_config(scale, seed=seed, workers=workers, store_dir=store),
            )
            rows.append(
                {
                    "mode": label,
                    "best_iter_ms": res.best_cost_us / 1e3,
                    "wall_s": res.wall_time_s,
                    "simulations": res.simulations,
                    "store_hit_rate": res.store_stats.hit_rate,
                    "store_warm_hit_rate": res.store_stats.warm_hit_rate,
                    "store_entries_flushed": res.store_stats.appended,
                }
            )
        return rows
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# Section 8.4: MCMC vs global optimum on small spaces.
# ---------------------------------------------------------------------------
def sec84_optimality(scale: BenchScale) -> list[dict]:
    """Exhaustive vs MCMC on tiny executions (global optimality check)."""
    from repro.machine.clusters import single_node

    rows = []
    cases = {
        # mini_mlp is enumerated *without* truncation: the exhaustive
        # result is the true global optimum over the full space.
        "mini_mlp(2 gpus)": (
            mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8),
            single_node(2, "p100"),
            None,
        ),
        # mini_rnnlm's space is too large to enumerate untruncated; the
        # exhaustive pass covers a truncated per-group candidate list, so
        # MCMC (searching the full space) must do at least as well.
        "mini_rnnlm(2 gpus)": (
            rnnlm_small(batch=16, hidden=32, vocab=64),
            single_node(2, "p100"),
            6,
        ),
    }
    for name, (graph, topo, max_cfgs) in cases.items():
        planner = Planner(graph, topo, profiler=OpProfiler())
        cfg = search_config(
            scale,
            seed=0,
            workers=1,
            store_dir=None,
            budget_iters=max(1000, scale.search_iters),
        ).replace(
            backend_options={"exhaustive": {"max_configs_per_op": max_cfgs, "prune_every": 1}}
        )
        ex = planner.search("exhaustive", cfg)
        res = planner.search("mcmc", cfg)
        rows.append(
            {
                "case": name,
                "optimal_ms": ex.best_cost_us / 1e3,
                "mcmc_ms": res.best_cost_us / 1e3,
                "gap_%": (res.best_cost_us / ex.best_cost_us - 1.0) * 100.0,
                "explored": ex.extras["explored"],
                "pruned": ex.extras["pruned"],
            }
        )
    return rows
