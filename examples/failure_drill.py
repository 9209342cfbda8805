"""Failure drill: what happens to a quota service when a continent goes
dark?  (The §5.4 experiments as an operational runbook.)

Phase 1 — normal operation.
Phase 2 — a 3-2 network partition splits the deployment.
Phase 3 — the partition heals; afterwards two regions crash outright.

The drill runs both Avantan variants and a MultiPaxSys control group
side by side and reports committed throughput per phase, demonstrating
the paper's §5.4 claims: Samya keeps serving wherever tokens are local,
Avantan[*] even redistributes inside a minority, while the consensus
baseline needs a live majority for every single transaction.

Run:  python examples/failure_drill.py
"""

from dataclasses import replace

from repro.harness import ExperimentConfig, run_experiment
from repro.harness.report import format_table
from repro.faults.schedule import RegionFault
from repro.harness.scenarios import partition_3_2
from repro.net.regions import PAPER_REGIONS

DURATION = 360.0
PHASES = {
    "normal [0-120s)": (0.0, 120.0),
    "3-2 partition [120-240s)": (120.0, 240.0),
    "healed, then 2 regions crash [240-360s)": (240.0, 360.0),
}

FAULTS = tuple(
    partition_3_2(list(PAPER_REGIONS), at=120.0, heal_at=240.0)
) + (
    RegionFault(250.0, "crash", (PAPER_REGIONS[0], PAPER_REGIONS[1])),
)

BASE = ExperimentConfig(
    duration=DURATION, seed=13, faults=FAULTS, multipaxsys_paper_regions=True
)


def phase_tps(result):
    values = {}
    for label, (start, end) in PHASES.items():
        total = sum(v for t, v in result.throughput_series if start <= t < end)
        values[label] = total / (end - start)
    return values


def main() -> None:
    systems = {
        "Samya Av.[(n+1)/2]": BASE,
        "Samya Av.[*]": replace(BASE, system="samya-star"),
        "MultiPaxSys (control)": replace(BASE, system="multipaxsys"),
    }
    results = {name: run_experiment(config) for name, config in systems.items()}
    rows = []
    for label in PHASES:
        rows.append(
            [label]
            + [f"{phase_tps(result)[label]:.1f}" for result in results.values()]
        )
    print(
        format_table(
            ["phase (tps)"] + list(results),
            rows,
            title="Failure drill — committed transactions/second per phase",
        )
    )
    print()
    for name, result in results.items():
        print(
            f"{name}: committed={result.committed}  failed={result.failed}  "
            f"rejected={result.rejected}"
        )
    print(
        "\nReading the drill: both Samya variants ride out the partition on\n"
        "local tokens (Avantan[*] even rebalances inside the 2-region side);\n"
        "after two regions crash, the surviving three keep serving their\n"
        "local demand.  The control group commits only when and where a\n"
        "majority of its replicas is reachable."
    )


if __name__ == "__main__":
    main()
