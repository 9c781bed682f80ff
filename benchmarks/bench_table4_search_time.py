"""Table 4: end-to-end search time with full vs delta simulation.

Paper result: the delta simulation algorithm speeds up end-to-end search
by 2.2-6.9x, with the advantage growing with device count.  This
implementation's ``delta`` is the cut-time variant of Algorithm 2: it
re-simulates every task from the earliest change on, so on the dense
random mutations of an MCMC search it repairs most of the graph and runs
at roughly the speed of a full re-simulation.  The claim asserted here
is that delta search is on average no more than 10% slower.
"""

import json
import os

import pytest

from repro.bench.figures import table4_parallel_search, table4_search_time, table4_warm_cold_search
from repro.bench.reporting import print_table

from conftest import run_once


def test_table4(benchmark, scale):
    models = ("alexnet", "inception_v3", "rnnlm", "nmt") if scale.name == "ci" else (
        "alexnet", "resnet101", "inception_v3", "rnntc", "rnnlm", "nmt"
    )
    rows = run_once(benchmark, lambda: table4_search_time(scale, models=models))
    print_table(rows, "Table 4 -- end-to-end search time (seconds)")
    assert rows
    mean_speedup = sum(r["speedup"] for r in rows) / len(rows)
    # Delta must not lose to full overall; the paper's 2-7x is aspirational
    # for this cut-time variant (see the module docstring).
    assert mean_speedup >= 0.9, rows


@pytest.mark.slow
def test_table4_parallel_orchestration(benchmark, scale):
    """Sequential vs parallel search on the Inception preset.

    Correctness (identical best cost and simulation count) is asserted
    unconditionally; the wall-time bound is only meaningful when the
    machine actually has enough cores to run the chains concurrently.
    """
    workers = 4
    rows = run_once(benchmark, lambda: table4_parallel_search(scale, workers=workers))
    print_table(rows, "Table 4 companion -- search orchestration (seconds)")
    seq, par = rows[0], rows[1]
    # Same chains regardless of worker count: bit-identical best cost,
    # and the same proposals simulated.
    assert par["best_iter_ms"] == pytest.approx(seq["best_iter_ms"], abs=0.0, rel=0.0)
    assert par["simulations"] == seq["simulations"], rows
    if (os.cpu_count() or 1) >= workers:
        assert par["wall_s"] <= 0.6 * seq["wall_s"], rows


@pytest.mark.slow
def test_table4_warm_cold_store(benchmark, scale, tmp_path):
    """Cold vs warm persistent-store rerun of one Table-4 search cell.

    The warm run must be result-identical to the cold and no-store runs
    (the store only skips simulations) and, per the cross-run persistence
    claim, complete in at most half the cold run's search wall time --
    nearly every proposal is answered from disk, so only the per-chain
    initial simulations remain.  When ``REPRO_BENCH_JSON`` is set the
    rows are also dumped there for the nightly CI artifact; either way
    they append to the ``bench_table4_warm_cold`` results-table shard
    (``REPRO_EXP_DIR``) so the trajectory accumulates.
    """
    # Always a fresh directory: a REPRO_CACHE_DIR pre-warmed by earlier
    # runs would make the "cold" row warm and void the comparison.
    store_dir = str(tmp_path / "store")
    rows = run_once(
        benchmark, lambda: table4_warm_cold_search(scale, store_dir=store_dir)
    )
    print_table(rows, "Table 4 companion -- cold vs warm persistent store (seconds)")
    out = os.environ.get("REPRO_BENCH_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
    # Accumulating emission alongside the one-off artifact: the warm/cold
    # trajectory appends to the repro.exp results table every run.
    from repro.exp.results import append_bench

    append_bench("table4_warm_cold", {"rows": rows})
    nostore, cold, warm = rows
    # Persistence is result-neutral: identical best cost everywhere.
    assert cold["best_iter_ms"] == pytest.approx(nostore["best_iter_ms"], abs=0.0, rel=0.0)
    assert warm["best_iter_ms"] == pytest.approx(nostore["best_iter_ms"], abs=0.0, rel=0.0)
    # The cold run populates the store; the warm run drains it.
    assert cold["store_entries_flushed"] > 0
    assert warm["store_hit_rate"] > 0.9, rows
    assert warm["simulations"] < cold["simulations"]
    # The acceptance bar: a warm rerun costs at most half the cold search.
    assert warm["wall_s"] <= 0.5 * cold["wall_s"], rows
