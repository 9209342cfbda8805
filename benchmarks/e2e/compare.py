"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, metric): both values, the ratio B/A (A is the
base), the bound, and a verdict:

``same``        B is within the bound of A (exact metrics: identical).
``better``      B moved past the bound in the metric's good direction.
``worse``       B moved past the bound in the bad direction.
``unresolved``  the q1-q3 spread of either side's repeats is wider than
                the bound, so the runs cannot tell the two apart.
``info``        the metric has no bound (most per-layer numbers).

Numbers on the simulated clock and counts are compared at zero drift on
the four sim-clock workloads: between two runs of one seed any change is
a behaviour change, whichever way it points.  Exits 1 on any ``worse``
and on a result file whose own correctness checks failed.
"""

from __future__ import annotations

import json
import statistics
import sys

from catalogue import BY_NAME, SIM_CLOCK


def spread(samples: list[float]) -> float:
    """Interquartile range of the repeats as a share of their median."""
    if len(samples) < 2:
        return 0.0
    low, _, high = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (high - low) / abs(median) if median else 0.0


def verdict(name: str, workload: str, a: dict, b: dict) -> tuple[str, str]:
    """(bound as printed, verdict) for one metric on one workload."""
    metric = BY_NAME[name]
    exact = metric.agg == "exact" and workload in SIM_CLOCK
    bound = 0.0 if exact else metric.gate
    if bound is None:
        return "-", "info"
    base, value = a["value"], b["value"]
    if not exact:
        if abs(value - base) < metric.floor:
            return f"{bound:g}", "same"
        if max(spread(a["samples"]), spread(b["samples"])) > bound:
            return f"{bound:g}", "unresolved"
    # Positive when B is worse than A, as a share of A.
    change = (value - base) / abs(base) if base else float(value != base)
    if metric.better == "higher":
        change = -change
    if change > bound:
        return f"{bound:g}", "worse"
    if change < -bound:
        return f"{bound:g}", "better"
    return f"{bound:g}", "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    if (a["seed"], a["size"]) != (b["seed"], b["size"]):
        print(
            f"not comparable: A is seed {a['seed']} size {a['size']}, "
            f"B is seed {b['seed']} size {b['size']}",
            file=sys.stderr,
        )
        return 2
    rows = [("workload", "metric", "A", "B", "B/A", "bound", "verdict")]
    failed = False
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if not entry["correct"]:
                print(f"# {side} {workload}: correctness checks failed")
                failed = True
        for name, metric_a in entry_a["metrics"].items():
            metric_b = entry_b["metrics"].get(name)
            if metric_b is None:
                continue
            bound, outcome = verdict(name, workload, metric_a, metric_b)
            failed |= outcome == "worse"
            base = metric_a["value"]
            ratio = f"{metric_b['value'] / base:.4f} x A" if base else "-"
            rows.append(
                (workload, name, f"{base:.6g}", f"{metric_b['value']:.6g}",
                 ratio, bound, outcome)
            )  # fmt: skip
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    counts: dict[str, int] = {}
    for row in rows[1:]:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("# " + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
