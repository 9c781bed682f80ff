"""Figure 10 companion: all four backends through Planner.compare.

The paper's Section 8 comparisons each pit FlexFlow against one baseline
at a time; the unified planner API runs all four backends --
``mcmc``, ``exhaustive`` (truncated), ``optcnn``, ``reinforce`` -- on one
Inception/P100 problem under one SearchConfig and prints the shared
comparison table.
"""

from repro.bench.figures import fig10_backend_comparison
from repro.bench.reporting import print_table

from conftest import run_once


def test_fig10_backend_comparison(benchmark, scale):
    rows = run_once(benchmark, lambda: fig10_backend_comparison(scale))
    print_table(rows, "Figure 10 companion -- unified backend comparison (Inception, 4x P100)")
    assert [r["backend"] for r in rows] == ["mcmc", "exhaustive", "optcnn", "reinforce"]
    # Everyone is measured on the same substrate, so vs_best is exactly 1.0
    # for the winner and >= 1.0 elsewhere.
    assert min(r["vs_best"] for r in rows) == 1.0
    # MCMC searches the full SOAP space; the baselines are restricted
    # (placement-only, additive objective, truncated enumeration), so it
    # must sit at the front of the shared table.
    mcmc = next(r for r in rows if r["backend"] == "mcmc")
    assert mcmc["vs_best"] <= min(r["vs_best"] for r in rows) + 1e-9, rows
