"""The repo benchmark: five workloads, two clocks, one command.

Two ways in, one measurement path:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One process, one workload.  ``--trace 0`` repeats identical units of
    the workload until ``T`` seconds have been measured and prints every
    end-to-end metric; ``--trace 1`` runs one plain and one profiled unit
    and prints every per-layer metric.  The last line of stdout is the
    JSON object the benchmark contract asks for.  This is what the driver
    calls (see ``BENCHMARK.json``).

``run.py [--seed S] [--workload W] [--traced] [--quick] --out FILE``
    The suite: every workload at full size, N fresh subprocesses each
    (the first form, one unit per process), interleaved round-robin,
    best-of-N wall numbers, exact metrics required identical across the
    N.  Prints ``workload metric value unit`` lines, writes ``FILE`` for
    ``compare.py``, exits non-zero when any correctness check fails.

See README.md for the metric glossary and why the numbers are taken the
way they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from catalogue import BY_NAME, END_TO_END, PER_LAYER, SIM_CLOCK, WORKLOADS
from catalogue import NondeterminismError, aggregate
from layers import LAYERS, fold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
# ``workloads`` imports the program under test; it is imported only after
# ``main`` has checked that the program is there.
sys.path.insert(0, str(ROOT / "src"))

#: A single run must end well inside the contract's 180 s; a hung live
#: run (see README, known defects) is killed rather than waited for.
HARD_LIMIT_S = 170

SUITE_REPEATS = {"live_tcp": 3}
SUITE_REPEATS_DEFAULT = 5


def host_ref_s() -> float:
    """Wall time of a fixed pure-Python loop: how noisy is the host now?"""
    start = time.perf_counter()
    total = 0
    for index in range(1_500_000):
        total += index * index
    return time.perf_counter() - start


# -- one process, one workload ---------------------------------------------


def _sample(unit, phases) -> dict[str, float]:
    """One unit's value for every metric it has one for."""
    run_wall = phases.wall["run"]
    sample = dict(unit.facts)
    sample["setup_s"] = phases.wall["setup"]
    sample["requests_per_wall_s"] = unit.attempted / run_wall
    sample["cpu_us_per_request"] = 1e6 * phases.cpu["run"] / unit.attempted
    sample["sim.events_per_request"] = unit.events_fired / unit.attempted
    sample["sim.events_per_wall_s"] = unit.events_fired / run_wall
    return sample


def measure(name: str, seed: int, shrink: float, seconds: float):
    """Repeat identical units for ``seconds``; fold them per the catalogue."""
    from workloads import REGISTRY, Phases

    workload = REGISTRY[name]
    samples, units = [], []
    started = time.perf_counter()
    while True:
        phases = Phases()
        units.append(workload.unit(seed + workload.seed_offset, shrink, phases))
        samples.append(_sample(units[-1], phases))
        if time.perf_counter() - started >= seconds:
            break
    problems = [problem for unit in units for problem in unit.problems]
    metrics = {}
    for key in samples[0]:
        try:
            metrics[key] = aggregate(key, name, [sample[key] for sample in samples])
        except NondeterminismError as error:
            problems.append(str(error))
            metrics[key] = samples[0][key]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(f"# {name}: {len(units)} unit(s) in {time.perf_counter() - started:.1f} s")
    return units[-1].attempted, max(unit.lost for unit in units), metrics, problems


def _codec_costs(messages) -> dict[str, float]:
    """Time the public codec over the envelopes the traced unit sent."""
    from repro.net import codec

    if not messages:
        return {}
    encode_s = decode_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        frames = [codec.encode(message) for message in messages]
        encode_s = min(encode_s, time.perf_counter() - start)
        start = time.perf_counter()
        for frame in frames:
            codec.decode(frame)
        decode_s = min(decode_s, time.perf_counter() - start)
    count = len(messages)
    return {
        "net.codec.bytes_per_frame": sum(map(len, frames)) / count
        + codec.FRAME_HEADER.size,
        "net.codec.encode_us_per_frame": 1e6 * encode_s / count,
        "net.codec.decode_us_per_frame": 1e6 * decode_s / count,
    }


def trace(name: str, seed: int, shrink: float):
    """One plain unit for the counts, one profiled unit for the budget."""
    from workloads import REGISTRY, MessageTap, Phases

    workload = REGISTRY[name]
    seed += workload.seed_offset
    plain_phases = Phases()
    plain = workload.unit(seed, shrink, plain_phases)
    tap = MessageTap()
    traced_phases = Phases(traced=True)
    traced = workload.unit(seed, shrink, traced_phases, tap)

    problems = plain.problems + traced.problems
    if name in SIM_CLOCK:
        moved = sorted(
            key
            for key in set(plain.facts) | set(traced.facts)
            if plain.facts.get(key) != traced.facts.get(key)
        )
        if moved or plain.attempted != traced.attempted:
            problems.append(f"tracing changed behaviour: {moved or 'attempted'}")

    budget = fold(traced_phases.profiles)
    calls_by_function = budget.pop("calls_by_function")
    attempted = traced.attempted
    metrics = _sample(plain, plain_phases)
    for layer in LAYERS:
        row = budget["layers"][layer]
        metrics[f"{layer}.self_us_per_request"] = 1e6 * row["self_s"] / attempted
        metrics[f"{layer}.calls_per_request"] = row["calls"] / attempted
    pushes = sum(
        calls
        for label, calls in calls_by_function.items()
        if label.startswith("repro.sim.events:EventQueue.push:")
    )
    if pushes:
        metrics["sim.fired_per_scheduled"] = traced.events_fired / pushes
    metrics.update(_codec_costs(tap.messages))

    traced_wall = sum(traced_phases.wall.values())
    busy = traced_wall - budget["idle_s"]
    attributed = sum(row["self_s"] for row in budget["layers"].values())
    metrics["trace.residual_share"] = (busy - attributed) / busy
    metrics["trace.overhead_ratio"] = traced_wall / sum(plain_phases.wall.values())
    if abs(metrics["trace.residual_share"]) > 0.02:
        problems.append(
            f"layers account for {attributed:.3f} s of {busy:.3f} s busy: "
            f"residual {metrics['trace.residual_share']:.4f} > 0.02"
        )

    budget.update(
        workload=name,
        seed=seed,
        shrink=shrink,
        attempted=attempted,
        wall_s=traced_phases.wall,
        untraced_wall_s=plain_phases.wall,
        residual_share=metrics["trace.residual_share"],
        overhead_ratio=metrics["trace.overhead_ratio"],
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{name}.json").write_text(json.dumps(budget, indent=1) + "\n")

    # Every per-layer metric is printed for every workload, 0 where it
    # does not apply.
    metrics = {metric.name: 0.0 for metric in PER_LAYER} | metrics
    return attempted, max(plain.lost, traced.lost), metrics, problems


def single(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides dict and set layout, hence speed: pin it
        # so two runs of one commit execute the same instructions.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    signal.alarm(HARD_LIMIT_S)
    from workloads import SHRINK

    before = host_ref_s()
    shrink = SHRINK[args.size]
    if args.trace:
        attempted, lost, metrics, problems = trace(args.workload, args.seed, shrink)
    else:
        attempted, lost, metrics, problems = measure(
            args.workload, args.seed, shrink, args.seconds
        )
    print(args.workload, "host_ref_s", repr(before), "s")
    print(args.workload, "host_ref_s", repr(host_ref_s()), "s")
    for name, value in metrics.items():
        print(args.workload, name, repr(float(value)), BY_NAME[name].unit)
    for problem in problems:
        print(f"# FAILED {args.workload}: {problem}")
    # The contract's result line: the declared metrics of this mode only.
    declared = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(attempted),
                "failed": int(lost),
                "metrics": {
                    metric.name: {"value": float(metrics[metric.name]), "unit": metric.unit}
                    for metric in declared
                },
            }
        )
    )
    return 1 if problems else 0


# -- the suite ---------------------------------------------------------------


def _child(name: str, seed: int, size: str, traced: bool, timeout: float) -> dict:
    """One fresh subprocess of the single-workload form, parsed."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", "0",
        "--trace", str(int(traced)),
        "--size", size,
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=timeout,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"killed after {timeout:.0f} s"]}
    lines = done.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"problems": [f"exit {done.returncode}, no result: {done.stderr[-500:]}"]}
    # ``workload metric value unit`` lines: everything the child measured,
    # not only what its mode declares in the result line.
    rows = [line.split() for line in lines if line.startswith(name + " ")]
    return {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {row[1]: float(row[2]) for row in rows if row[1] != "host_ref_s"},
        "host_ref_s": [float(row[2]) for row in rows if row[1] == "host_ref_s"],
        "problems": [
            line.removeprefix(f"# FAILED {name}: ")
            for line in lines
            if line.startswith("# FAILED")
        ],
    }


def _fold(name: str, runs: list[dict]) -> dict:
    """Best-of-N / exact-across-N over one workload's repeats."""
    problems = [problem for run in runs for problem in run["problems"]]
    finished = [run for run in runs if "metrics" in run]
    if not finished:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": problems}  # fmt: skip
    attempted = finished[0]["attempted"]
    # A repeat that had to be killed counts every operation as failed.
    failed = attempted if len(finished) < len(runs) else max(
        run["failed"] for run in finished
    )
    metrics = {}
    for key in finished[0]["metrics"]:
        values = [run["metrics"][key] for run in finished]
        try:
            value = aggregate(key, name, values)
        except NondeterminismError as error:
            problems.append(str(error))
            value = values[0]
        metrics[key] = {"value": value, "unit": BY_NAME[key].unit, "samples": values}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "host_ref_s": [value for run in finished for value in run["host_ref_s"]],
        "problems": problems,
    }


def suite(args) -> int:
    from workloads import REGISTRY, SHRINK

    size = "small" if args.quick else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    repeats = {
        name: 1 if args.quick else SUITE_REPEATS.get(name, SUITE_REPEATS_DEFAULT)
        for name in names
    }
    # 3x the expected wall of the unit plus interpreter start-up; the
    # traced child runs a plain unit and a ~3x slower profiled one.
    limit = {
        name: 3.0 * (REGISTRY[name].expected_s / SHRINK[size] + 3.0) for name in names
    }
    runs: dict[str, list[dict]] = {name: [] for name in names}
    # Round-robin, so a noisy minute does not land on one workload.
    for index in range(max(repeats.values())):
        for name in names:
            if index < repeats[name]:
                runs[name].append(_child(name, args.seed, size, False, limit[name]))
    report = {name: _fold(name, runs[name]) for name in names}
    if args.traced:
        for name in names:
            layers = _fold(name, [_child(name, args.seed, size, True, 5.0 * limit[name])])
            # The traced child repeats the plain counts; keep the N-repeat ones.
            report[name]["metrics"] = layers["metrics"] | report[name]["metrics"]
            report[name]["problems"] += layers["problems"]
            report[name]["correct"] &= layers["correct"]

    for name, entry in report.items():
        for value in entry.get("host_ref_s", ()):
            print(name, "host_ref_s", repr(value), "s")
        for key, metric in entry["metrics"].items():
            print(name, key, repr(metric["value"]), metric["unit"])
        for problem in entry["problems"]:
            print(f"# FAILED {name}: {problem}")
    if args.out:
        document = {
            "schema": "samya-e2e/1",
            "seed": args.seed,
            "size": size,
            "repeats": repeats,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "workloads": report,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    correct = all(entry["correct"] for entry in report.values())
    print("# all checks passed" if correct else "# FAILED: see above")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, help="measure one workload in-process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="small")
    parser.add_argument("--traced", action="store_true", help="suite: add the traced pass")
    parser.add_argument("--quick", action="store_true", help="suite: N=1, sizes / 5")
    parser.add_argument("--out", help="suite: write the result file here")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return single(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
