"""``python -m repro.exp`` -- run/report/list over experiment specs.

Subcommands:

``run SPEC``
    Execute (or resume) the spec's grid against the results table.
    ``--fresh`` starts a new run re-executing every trial; the default
    attaches to the latest run and executes only unrecorded trials.
``report SPEC``
    Render the comparison table + regression deltas for the spec's
    shard; exits 2 when any delta breaches the threshold (the CI gate).
``list``
    Summarize every shard under the table root.
``--smoke``
    Self-contained end-to-end check in a temp directory: tiny grid
    (its trials run their chains on a two-worker pool), injected
    failure, resume with zero re-executions, fresh second run,
    regression report.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.bench.reporting import format_table
from repro.exp.report import render_report
from repro.exp.results import ResultsTable, default_table_root
from repro.exp.runner import ExperimentRunner
from repro.exp.spec import load_spec


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    runner = ExperimentRunner(
        spec,
        root=args.root,
        run_id=args.run_id,
        fresh=args.fresh,
        retry_errors=args.retry_errors,
        inject_fail=tuple(args.inject_fail or ()),
    )
    stats = runner.run()
    # Error rows are captured outcomes, not run failures -- the report's
    # threshold gate is where CI turns them into exit codes.  A run in
    # which *nothing* succeeded is a harness problem, though: fail it.
    if stats.executed and stats.errors == stats.executed:
        print(f"[exp] every executed trial errored ({stats.errors}); failing the run")
        return 1
    return 0


def _cmd_report(args) -> int:
    spec = load_spec(args.spec)
    table = ResultsTable(args.root)
    report = render_report(
        table.results(spec.digest()),
        spec=spec,
        run=args.run,
        baseline=args.baseline,
        threshold=args.threshold,
    )
    print(report.text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.text + "\n")
        print(f"\n[exp] report written to {args.out}")
    return 2 if report.breaches else 0


def _cmd_list(args) -> int:
    table = ResultsTable(args.root)
    rows = table.shards()
    print(format_table(rows, f"experiment shards under {table.root}"))
    return 0


def _smoke() -> int:
    """End-to-end console check (CI's experiment-smoke fast path)."""
    from repro.exp.spec import ClusterPoint, ExperimentSpec
    from repro.plan import BudgetConfig, ExecutionConfig, SearchConfig

    spec = ExperimentSpec(
        name="smoke",
        models=("mlp",),
        clusters=(ClusterPoint("p100", 2),),
        backends=("mcmc",),
        seeds=(0,),
        store_modes=("cold", "warm"),
        trial_timeout_s=120.0,
        search=SearchConfig(
            budget=BudgetConfig(iterations=8),
            execution=ExecutionConfig(workers=2),
            inits=("data_parallel", "random"),
        ),
    )
    fail_id = spec.trials()[0].trial_id
    with tempfile.TemporaryDirectory(prefix="repro-exp-smoke-") as root:
        table = ResultsTable(root)
        # Run 1: full grid with one injected failure -> error row, run survives.
        s1 = ExperimentRunner(spec, root=root, inject_fail=(fail_id,)).run()
        assert s1.executed == len(spec.trials()), s1
        assert s1.errors == 1 and s1.error_trials == [fail_id], s1
        # Resume: zero re-executed trials (the error row counts as recorded).
        s2 = ExperimentRunner(spec, root=root).run()
        assert s2.executed == 0 and s2.skipped == len(spec.trials()), s2
        # Retry just the error row.
        s3 = ExperimentRunner(spec, root=root, retry_errors=True).run()
        assert s3.executed == 1 and s3.errors == 0, s3
        # Fresh second run -> trajectory has a baseline; report is clean.
        s4 = ExperimentRunner(spec, root=root, fresh=True).run()
        assert s4.run_id != s1.run_id and s4.executed == len(spec.trials()), s4
        report = render_report(table.results(spec.digest()), spec=spec)
        print("\n" + report.text + "\n")
        assert report.baseline == s1.run_id and report.run == s4.run_id, report
        assert report.ok, report.breaches
        # Determinism across runs: zero cost deltas trial-for-trial.
        assert all(r["verdict"] in ("ok", "new") for r in report.rows), report.rows
        rows = table.results(spec.digest()).rows_for(s4.run_id)
        # Every trial fanned its two chains out over the pool.
        assert all(r.get("workers") == 2 for r in rows), rows
        warm = [r for r in rows if r.get("store_mode") == "warm" and r.get("status") == "ok"]
        assert warm and all(r["store_warm_hits"] > 0 for r in warm), warm
    print("[exp] smoke OK: grid + pool trials + failure capture + resume + report")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.exp", description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="run the end-to-end smoke check")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute (or resume) a spec's grid")
    run_p.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run_p.add_argument("--root", default=None, help=f"results table root (default: {default_table_root()})")
    run_p.add_argument("--run-id", default=None, help="explicit run id (implies a new/attached run)")
    run_p.add_argument("--fresh", action="store_true", help="start a new run instead of resuming the latest")
    run_p.add_argument("--retry-errors", action="store_true", help="re-execute trials whose last outcome was an error")
    run_p.add_argument(
        "--inject-fail",
        action="append",
        metavar="SUBSTR",
        help="fail trials whose id contains SUBSTR (fault-injection seam; repeatable)",
    )

    rep_p = sub.add_parser("report", help="comparison table + regression deltas (exit 2 on breach)")
    rep_p.add_argument("spec", help="path to an ExperimentSpec JSON file")
    rep_p.add_argument("--root", default=None)
    rep_p.add_argument("--run", default=None, help="run to report on (default: latest)")
    rep_p.add_argument("--baseline", default=None, help="baseline run id (default: previous run)")
    rep_p.add_argument("--threshold", type=float, default=None, help="regression threshold fraction")
    rep_p.add_argument("--out", default=None, help="also write the rendered report to this file")

    list_p = sub.add_parser("list", help="summarize shards under the table root")
    list_p.add_argument("--root", default=None)

    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "list":
        return _cmd_list(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
