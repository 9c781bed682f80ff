"""Gate a change on two ``run.py --out`` results of the end-to-end benchmark:
``python3 benchmarks/compare_e2e.py parent.json change.json`` exits 1 if, on
any workload of ``BENCHMARK.json``, an end-to-end metric of the change is worse
than the parent's by more than its relative ``bound`` in its ``better``
direction or is missing, or if a larger share of the change's searches failed.
"""

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def problems(parent: dict, change: dict) -> list[str]:
    """One line per reason the change fails; empty if it passes."""
    spec, out = json.loads(SPEC_PATH.read_text()), []
    for wl in (w["name"] for w in spec["workloads"]):
        p, c = (run.get("workloads", {}).get(wl, {}) for run in (parent, change))
        for m in spec["end_to_end"]:
            pv, cv = (r.get("metrics", {}).get(m["name"], {}).get("value") for r in (p, c))
            if pv is None or cv is None:
                out.append(f"{wl} {m['name']}: missing ({pv!r} -> {cv!r})")
            elif cv > pv * (1 + m["bound"]) if m["better"] == "lower" else cv < pv * (1 - m["bound"]):
                out.append(f"{wl} {m['name']}: {pv!r} -> {cv!r} is past its {m['bound']:.1%} bound")
        pf, cf = (r.get("failed", 0) / max(r.get("attempted", 0), 1) for r in (p, c))
        if cf > pf:
            out.append(f"{wl}: {cf:.1%} of the change's searches failed, {pf:.1%} of the parent's")
    return out


def main(argv=None) -> int:
    runs = [json.loads(f.read_text()) if f.is_file() else {} for f in map(Path, argv or sys.argv[1:])]
    print("\n".join(found := problems(*runs)) or "every end-to-end metric is within its bound")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
