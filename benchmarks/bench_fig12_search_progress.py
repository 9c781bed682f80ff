"""Figure 12: any-time search quality, full vs delta simulation (NMT, 16 P100).

Paper result: with the same budget the delta algorithm finishes its chain
sooner (16 -> 6 minutes) and dominates the full algorithm at every
intermediate time budget.  Both algorithms drive identical Markov chains
(they compute identical timelines), so the comparison is purely about
simulation speed.
"""

from repro.bench.figures import fig12_search_progress
from repro.bench.reporting import print_table

from conftest import run_once


def test_fig12(benchmark, scale):
    rows = run_once(benchmark, lambda: fig12_search_progress(scale))
    print_table(rows, "Figure 12 -- best found strategy vs elapsed time")
    full = [r for r in rows if r["algorithm"] == "full"]
    delta = [r for r in rows if r["algorithm"] == "delta"]
    assert full and delta
    # Identical chains -> identical final quality.
    assert abs(full[-1]["best_iter_ms"] - delta[-1]["best_iter_ms"]) < 1e-6
    # Delta completes the same chain no more than 10% slower: its
    # cut-time repair re-simulates every task from the earliest change
    # on, so it gains little here (see bench_table4_search_time.py).
    assert delta[-1]["elapsed_s"] <= full[-1]["elapsed_s"] * 1.10
