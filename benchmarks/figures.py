"""The figure list: every table and figure of the paper's §5, one row each.

Each :class:`~repro.harness.regression.Figure` regenerates one table or
figure of the evaluation on the simulated substrate: its points are
frozen configs (variants are one ``replace`` away from a base), its
``table`` prints the same rows/series the paper reports, its ``shape``
states the paper's qualitative result (who wins, roughly by how much,
where crossovers fall) as labelled checks, and its ``headline`` is what
the committed baseline pins.  Absolute numbers differ from the paper —
the substrate is a simulator, not the authors' GCP testbed — see
EXPERIMENTS.md.

``python -m repro bench [-k NAME]`` runs rows through the one runner
(``repro.harness.regression.run_figures``): these are macro-benchmarks
(each point is a multi-minute simulated experiment), so every point runs
exactly once, and once only across rows that share it.
"""

from __future__ import annotations

import operator
from dataclasses import replace

import numpy as np

from repro.harness import ExperimentConfig, ScaleConfig, run_scale
from repro.harness.nemesis import NEMESIS_SYSTEMS, run_nemesis
from repro.harness.regression import Figure, Tolerance
from repro.harness.report import format_series, format_table, ratio
from repro.harness.scenarios import partition_3_2, progressive_region_crashes
from repro.net.regions import PAPER_REGIONS
from repro.prediction import (
    ArimaPredictor,
    LstmPredictor,
    RandomWalkPredictor,
    evaluate_predictor,
    train_test_split,
)
from repro.workload.trace import SyntheticAzureTrace, TraceConfig

MAJORITY = "Samya Av.[(n+1)/2]"
STAR = "Samya Av.[*]"

#: §5.2's contended load, scaled from the paper's hour to 600 s.
BASE = ExperimentConfig(duration=600.0, seed=3)
#: The sweeps and ablations run each of their points for 300 s.
SHORT = replace(BASE, duration=300.0)

#: Fig. 3b and Table 2b read the same five runs.
FIVE_SYSTEMS = {
    MAJORITY: replace(BASE, system="samya-majority"),
    STAR: replace(BASE, system="samya-star"),
    "Demarcation/Escrow": replace(BASE, system="demarcation"),
    "MultiPaxSys": replace(BASE, system="multipaxsys"),
    "CockroachDB-like": replace(BASE, system="crdb"),
}

COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}


def check(label, left, op, right):
    """One shape predicate, ``left op right``; its operands are the detail."""
    return (label, COMPARE[op](left, right), f"{left:.6g} {op} {right:.6g}")


def each(results, leaf, key=str):
    """``{label: leaf(result)}``: one headline leaf per point."""
    return {key(label): leaf(result) for label, result in results.items()}


def at(x_format="{}"):
    """``key`` for ``each``: ``system@x`` leaves from ``(system, x)`` labels."""
    return lambda label: f"{label[0]}@{x_format.format(label[1])}"


def point_table(title, headers, row):
    """A ``table`` with one ``row(label, result)`` per point."""
    return lambda results: format_table(
        headers, [row(label, result) for label, result in results.items()], title=title
    )


def committed_by(results):
    return each(results, lambda result: result.committed)


def rejected_by(results):
    return each(results, lambda result: result.rejected)


def tput_by(results):
    return each(results, lambda result: result.throughput_avg)


def ms(result, percentile):
    return result.latency.row_ms()[percentile]


def rounds(result, counter):
    return result.redistributions.get(counter, 0)


# -- Table 2a ----------------------------------------------------------------

#: Paper-scale demand (mean ~600/interval) for comparable MAE units.
TABLE2A_TRACE = TraceConfig(days=30.0, base_demand=600.0, seed=7)
PAPER_MAE = {"Random Walk": "1212.19", "ARIMA": "609.13", "LSTM": "259.21"}


def evaluate_models(trace_config):
    trace = SyntheticAzureTrace(trace_config)
    series = trace.demand.astype(float).tolist()
    train, test = train_test_split(series, train_fraction=0.8)
    per_day = trace.config.intervals_per_day
    models = {
        "Random Walk": RandomWalkPredictor(),
        "ARIMA": ArimaPredictor(p=6, d=1, q=1),
        "LSTM": LstmPredictor(
            window=32, hidden_size=24, epochs=12,
            periods=(per_day, 7 * per_day), seed=5,
        ),
    }
    return {
        name: evaluate_predictor(model, train, test, name)
        for name, model in models.items()
    }


def table2a_shape(results):
    mae = each(results["80/20 split"], lambda report: report.mae)
    return [
        # The paper's ordering is the reproduced shape.
        ("MAE: LSTM < ARIMA < Random Walk",
         mae["LSTM"] < mae["ARIMA"] < mae["Random Walk"],
         f"{mae['LSTM']:.2f} / {mae['ARIMA']:.2f} / {mae['Random Walk']:.2f}"),
    ]


TABLE2A = Figure(
    name="table2a_prediction",
    doc="""Table 2a — MAE of resource-demand prediction for three models.

    Paper: RandomWalk 1212.19, ARIMA 609.13, LSTM 259.21 (tokens).
    Shape to reproduce: MAE(LSTM) < MAE(ARIMA) < MAE(RandomWalk), on a
    demand series at the paper's scale (mean ~600 tokens/interval, §5.9).
    """,
    points={"80/20 split": TABLE2A_TRACE},
    run=evaluate_models,
    headline=lambda results: {
        "mae": each(results["80/20 split"], lambda report: round(report.mae, 2)),
        "rmse": each(results["80/20 split"], lambda report: round(report.rmse, 2)),
    },
    shape=table2a_shape,
    table=lambda results: format_table(
        ["model", "MAE (tokens)", "RMSE (tokens)", "paper MAE"],
        [
            [name, f"{report.mae:.2f}", f"{report.rmse:.2f}", PAPER_MAE[name]]
            for name, report in results["80/20 split"].items()
        ],
        title="Table 2a — demand prediction accuracy (80/20 split)",
    ),
    seed=TABLE2A_TRACE.seed,
)


# -- Table 2b ----------------------------------------------------------------


def table2b_shape(results):
    p90 = each(results, lambda result: ms(result, "p90"))
    p99 = each(results, lambda result: ms(result, "p99"))
    return [
        # Samya serves locally: p90 in the few-ms range, far below the
        # consensus-per-transaction systems.
        check(f"{MAJORITY}: p90 (ms) < 10", p90[MAJORITY], "<", 10.0),
        check(f"{STAR}: p90 (ms) < 10", p90[STAR], "<", 10.0),
        check("MultiPaxSys p90 > 10x Samya's",
              p90["MultiPaxSys"], ">", 10 * p90[MAJORITY]),
        check("CockroachDB-like p90 > 10x Samya's",
              p90["CockroachDB-like"], ">", 10 * p90[MAJORITY]),
        # Demarcation's borrow stalls put its tail above Samya's (paper rows).
        check("Demarcation/Escrow p99 > Samya's",
              p99["Demarcation/Escrow"], ">", p99[MAJORITY]),
        # The log-replicated systems also dominate everyone's tail.
        check("MultiPaxSys p99 > Samya's", p99["MultiPaxSys"], ">", p99[MAJORITY]),
    ]


TABLE2B = Figure(
    name="table2b_latency",
    doc="""Table 2b — commit-latency percentiles of Samya and the baselines.

    Paper (ms):            p90     p95     p99
      Samya Av.[(n+1)/2]   1.40    10.2    65.1
      Samya Av.[*]         2.9     37.3    97.3
      Demarcation/Escrow   3.5     59.6    213.9
      MultiPaxSys          126.8   172.7   276.3
      CockroachDB          158.7   184.2   351.4

    Shape to reproduce: Samya variants serve locally (~ms p90) with tails
    from redistribution stalls; Demarcation adds borrow-stall spikes; the
    replicated-log systems pay a WAN consensus round on every transaction.
    """,
    points=FIVE_SYSTEMS,
    headline=lambda results: {
        "p90_ms": each(results, lambda result: round(ms(result, "p90"), 2)),
        "p99_ms": each(results, lambda result: round(ms(result, "p99"), 2)),
        "committed": committed_by(results),
    },
    shape=table2b_shape,
    table=point_table(
        f"Table 2b — latency percentiles ({BASE.duration:.0f}s contended load)",
        ["system", "p90 (ms)", "p95 (ms)", "p99 (ms)", "committed"],
        lambda name, result: [
            name, f"{ms(result, 'p90'):.1f}", f"{ms(result, 'p95'):.1f}",
            f"{ms(result, 'p99'):.1f}", result.committed,
        ],
    ),
    observed=MAJORITY,
    seed=BASE.seed,
    overrides={
        "p90_ms": Tolerance(rel=0.25, abs=1.0),
        "p99_ms": Tolerance(rel=0.25, abs=1.0),
    },
)


# -- Fig. 3a -----------------------------------------------------------------


def fig3a_shape(results):
    trace = results["trace"]
    stats = trace.demand_stats()
    outstanding = trace.outstanding
    first_half = outstanding[: len(outstanding) // 2].mean()
    second_half = outstanding[len(outstanding) // 2 :].mean()
    window = np.convolve(trace.creations, np.ones(7), mode="valid")  # ~lifetime
    return [
        # Strong daily periodicity: the property the prediction module needs.
        check("daily autocorrelation > 0.7", stats["daily_autocorrelation"], ">", 0.7),
        # Peaky demand: maxima far above the mean (the hot-spot premise).
        check("max demand > 2.5x mean", stats["max"], ">", 2.5 * stats["mean"]),
        # Deletions track creations: outstanding VMs mean-revert instead of
        # drifting off to infinity.
        check("outstanding VMs: half-to-half drift < 50% of the first half",
              abs(second_half - first_half), "<", 0.5 * first_half),
        # A single region's demand exceeds its 1000-token initial allocation
        # at peak (§5.2's setup requirement for redistribution to matter).
        check("peak lifetime-window demand > 1000 tokens", window.max(), ">", 1000),
    ]


def fig3a_table(results):
    trace = results["trace"]
    per_day = trace.config.intervals_per_day
    two_days = [
        (float(i), float(v)) for i, v in enumerate(trace.demand[: 2 * per_day])
    ]
    return "\n".join([
        format_series(two_days, title="Fig 3a — demand, first two days",
                      x_label="interval", y_label="VM creations"),
        format_table(
            ["stat", "value"],
            [[key, f"{value:.2f}"] for key, value in trace.demand_stats().items()],
            title="Demand series statistics",
        ),
    ])


FIG3A = Figure(
    name="fig3a_trace",
    doc="""Fig. 3a — the (synthetic) Azure VM demand trace.

    The paper plots the pre-processed demand series and relies on three of
    its properties: strong daily periodicity ("history is an accurate
    predictor"), pronounced peaks that exceed a single site's allocation,
    and demand troughs that leave spare tokens elsewhere.
    """,
    points={"trace": TraceConfig()},
    run=SyntheticAzureTrace,
    headline=lambda results: {
        key: round(float(value), 3)
        for key, value in results["trace"].demand_stats().items()
    },
    shape=fig3a_shape,
    table=fig3a_table,
    seed=TraceConfig().seed,
    default=Tolerance(rel=0.05),
    overrides={"daily_autocorrelation": Tolerance(abs=0.05)},
)


# -- Fig. 3b -----------------------------------------------------------------


def fig3b_headline(results):
    tput = tput_by(results)
    return {
        "committed": committed_by(results),
        "throughput_avg": {name: round(value, 2) for name, value in tput.items()},
        "samya_advantage_over_multipaxsys": round(
            ratio(tput[MAJORITY], tput["MultiPaxSys"]), 2
        ),
    }


def fig3b_shape(results):
    tput = tput_by(results)

    def total_rounds(result):
        return rounds(result, "triggered") + rounds(result, "aborted")

    return [
        # The headline: an order of magnitude over consensus-per-transaction.
        check("Samya tps > 8x MultiPaxSys",
              tput[MAJORITY], ">", 8 * tput["MultiPaxSys"]),
        check("Samya tps > 8x CockroachDB-like",
              tput[MAJORITY], ">", 8 * tput["CockroachDB-like"]),
        # MultiPaxSys and CRDB are comparable (the paper's justification for
        # dropping CRDB from later experiments); CRDB's spread placement
        # makes it the slower of the two.
        check("CockroachDB-like tps < MultiPaxSys",
              tput["CockroachDB-like"], "<", tput["MultiPaxSys"]),
        check("MultiPaxSys tps < 4x CockroachDB-like",
              tput["MultiPaxSys"], "<", 4 * tput["CockroachDB-like"]),
        # Samya beats the prediction-less pairwise escrow baseline.
        check("Samya tps > Demarcation/Escrow",
              tput[MAJORITY], ">", tput["Demarcation/Escrow"]),
        # Failure-free: majority variant >= star variant...
        check("Av.[(n+1)/2] tps >= Av.[*]", tput[MAJORITY], ">=", tput[STAR]),
        # ...because star burns more protocol rounds overall: its greedy
        # small-subset rounds abort and retry where one majority round would
        # have rebalanced everyone (208 vs 792 rounds in the paper's hour).
        check("Av.[*] runs more rounds than Av.[(n+1)/2]",
              total_rounds(results[STAR]), ">", total_rounds(results[MAJORITY])),
    ]


def fig3b_table(results):
    majority = results[MAJORITY]
    downsampled = [(t, v) for t, v in majority.throughput_series if int(t) % 30 == 0]
    return "\n".join([
        format_table(
            ["system", "committed", "avg tps", "Samya advantage", "redistributions"],
            [
                [name, result.committed, f"{result.throughput_avg:.1f}",
                 f"{ratio(majority.throughput_avg, result.throughput_avg):.1f}x",
                 result.redistributions.get("triggered", "-")]
                for name, result in results.items()
            ],
            title=f"Fig 3b — throughput over {BASE.duration:.0f}s of contended load",
        ),
        format_series(downsampled, title=f"{MAJORITY} throughput",
                      x_label="t (s)", y_label="tps"),
    ])


FIG3B = Figure(
    name="fig3b_throughput",
    doc="""Fig. 3b — throughput of all systems under sustained contended load.

    Paper headline: Samya commits 16-18x more than MultiPaxSys/CockroachDB
    and ~1.3x more than Demarcation/Escrow; Avantan[(n+1)/2] edges out
    Avantan[*] in failure-free runs because the latter redistributes far
    more often (208 vs 792 rounds in the paper's hour).
    """,
    points=FIVE_SYSTEMS,
    headline=fig3b_headline,
    shape=fig3b_shape,
    table=fig3b_table,
    observed=MAJORITY,
    seed=BASE.seed,
    overrides={"samya_advantage_over_multipaxsys": Tolerance(rel=0.25)},
)


# -- Fig. 3c -----------------------------------------------------------------

CRASH_EVERY = 100.0  # scaled from the paper's 10 minutes
CRASHES = replace(
    BASE,
    faults=tuple(
        progressive_region_crashes(
            list(PAPER_REGIONS), first_at=CRASH_EVERY, every=CRASH_EVERY
        )
    ),
    multipaxsys_paper_regions=True,
)


def window_tps(result, width=CRASH_EVERY):
    windows = []
    for start in range(0, int(CRASHES.duration), int(width)):
        total = sum(
            v for t, v in result.throughput_series if start <= t < start + width
        )
        windows.append(total / width)
    return windows


def fig3c_shape(results):
    multipax = window_tps(results["MultiPaxSys"])
    majority = window_tps(results[MAJORITY])
    star = window_tps(results[STAR])

    def shown(windows):
        return " ".join(f"{value:.1f}" for value in windows) + " tps per window"

    return [
        # MultiPaxSys serves while a majority lives, then flatlines.
        check("MultiPaxSys serves before any crash", multipax[0], ">", 0),
        ("MultiPaxSys is at zero once 3 regions are gone",
         multipax[3] == 0 and multipax[4] == 0 and multipax[5] == 0, shown(multipax)),
        # Samya keeps serving after the majority is gone (local tokens +
        # degraded/minority redistribution).
        ("Av.[(n+1)/2] serves after 3 and 4 crashes",
         majority[3] > 0 and majority[4] > 0, shown(majority)),
        ("Av.[*] serves after 3, 4 and 5 crashes",
         star[3] > 0 and star[4] > 0 and star[5] > 0, shown(star)),
        # Before any crash, performance is comparable across Samya variants
        # (paper: "roughly the same up to 2 site failures").
        check("variants within 30% of each other before any crash",
              abs(majority[0] - star[0]), "<", 0.3 * majority[0]),
        # Avantan[*] can still *redistribute* among a minority — it completes
        # rounds even in the final windows, which the majority variant cannot.
        check("Av.[*] completes redistribution rounds",
              results[STAR].redistributions["completed"], ">", 0),
    ]


def fig3c_table(results):
    tps = each(results, window_tps)
    return format_table(
        ["system"] + [f"{i} crashed" for i in range(len(tps["MultiPaxSys"]))],
        [
            [name] + [f"{value:.1f}" for value in windows]
            for name, windows in tps.items()
        ],
        title="Fig 3c — tps per window; one region crashes per window",
    )


FIG3C = Figure(
    name="fig3c_crashes",
    doc="""Fig. 3c — throughput while regions crash one by one (§5.4.1).

    Paper shape: MultiPaxSys drops to zero once a majority of replicas is
    gone (after the 3rd crash); both Samya variants keep serving from local
    tokens, with Avantan[*] still able to redistribute among the minority.
    (Demarcation/Escrow is excluded, as in the paper: it assumes a reliable
    network and is not fault-tolerant.)
    """,
    points={
        MAJORITY: replace(CRASHES, system="samya-majority"),
        STAR: replace(CRASHES, system="samya-star"),
        "MultiPaxSys": replace(CRASHES, system="multipaxsys"),
    },
    headline=lambda results: {
        "window_tps": each(
            results, lambda result: [round(value, 2) for value in window_tps(result)]
        ),
        "committed": committed_by(results),
    },
    shape=fig3c_shape,
    table=fig3c_table,
    observed=MAJORITY,
    seed=CRASHES.seed,
)


# -- Fig. 3d -----------------------------------------------------------------

PARTITION_AT = 120.0
PARTITIONED = replace(
    BASE,
    faults=tuple(partition_3_2(list(PAPER_REGIONS), at=PARTITION_AT)),
    multipaxsys_paper_regions=True,
)


def tps_before(result):
    series = result.throughput_series
    return sum(v for t, v in series if t < PARTITION_AT) / PARTITION_AT


def tps_during(result):
    series = result.throughput_series
    return sum(v for t, v in series if t >= PARTITION_AT) / (
        PARTITIONED.duration - PARTITION_AT
    )


def fig3d_shape(results):
    during = each(results, tps_during)
    return [
        # Samya's decentralised serving dwarfs MultiPaxSys throughout.
        check("Av.[(n+1)/2] tps during the partition > 5x MultiPaxSys",
              during[MAJORITY], ">", 5 * during["MultiPaxSys"]),
        check("Av.[*] tps during the partition > 5x MultiPaxSys",
              during[STAR], ">", 5 * during["MultiPaxSys"]),
        # Under the partition, Avantan[*] outperforms the majority variant:
        # it can rebalance tokens inside the minority side too.
        check("Av.[*] tps during the partition > Av.[(n+1)/2]",
              during[STAR], ">", during[MAJORITY]),
        # MultiPaxSys still commits via the majority side (its leader is in
        # the 3-region group or a new one is elected there).
        check("MultiPaxSys still commits during the partition",
              during["MultiPaxSys"], ">", 0),
    ]


FIG3D = Figure(
    name="fig3d_partition",
    doc="""Fig. 3d — throughput during a 3-2 network partition (§5.4.2).

    Paper shape: MultiPaxSys serves only from the majority side, at its
    usual low consensus-bound rate; Samya's variants keep serving in both
    partitions, and once local tokens run out Avantan[*] outperforms
    Avantan[(n+1)/2] because it can redistribute inside the 2-region side
    where no majority exists.
    """,
    points={
        MAJORITY: replace(PARTITIONED, system="samya-majority"),
        STAR: replace(PARTITIONED, system="samya-star"),
        "MultiPaxSys": replace(PARTITIONED, system="multipaxsys"),
    },
    headline=lambda results: {
        "tps_before_partition": each(results, lambda r: round(tps_before(r), 2)),
        "tps_during_partition": each(results, lambda r: round(tps_during(r), 2)),
        "committed": committed_by(results),
    },
    shape=fig3d_shape,
    table=point_table(
        f"Fig 3d — 3-2 partition at t={PARTITION_AT:.0f}s",
        ["system", "tps before partition", "tps during partition", "committed"],
        lambda name, result: [
            name, f"{tps_before(result):.1f}", f"{tps_during(result):.1f}",
            result.committed,
        ],
    ),
    observed=MAJORITY,
    seed=PARTITIONED.seed,
    overrides={
        "tps_before_partition": Tolerance(rel=0.15),
        "tps_during_partition": Tolerance(rel=0.15),
    },
)


# -- Fig. 3e -----------------------------------------------------------------

OPTIMAL = "No Constraints (optimal)"


def fig3e_shape(results):
    committed = committed_by(results)
    rejected = rejected_by(results)
    return [
        # Ordering: optimum >= Samya >= no-redistribution.
        check("optimum commits >= Samya",
              committed[OPTIMAL], ">=", committed[MAJORITY]),
        check("Samya commits > No Redistribution",
              committed[MAJORITY], ">", committed["No Redistribution"]),
        # Samya stays within ~8% of the unconstrained optimum (paper: 3.5-4%).
        check("Samya commits > 92% of the optimum",
              committed[MAJORITY], ">", 0.92 * committed[OPTIMAL]),
        # Without redistribution the only outlet is rejection: that variant
        # rejects at least an order of magnitude more than Samya.
        check("No Redistribution rejects > 5x Samya",
              rejected["No Redistribution"], ">", 5 * rejected[MAJORITY]),
        # And the unconstrained variant by definition rejects nothing.
        check("No Constraints rejects nothing", rejected[OPTIMAL], "==", 0),
    ]


def fig3e_table(results):
    optimal = results[OPTIMAL].committed
    return format_table(
        ["variant", "committed", "rejected", "below optimal"],
        [
            [name, result.committed, result.rejected,
             f"{100.0 * (1.0 - result.committed / optimal):.1f}%"]
            for name, result in results.items()
        ],
        title=f"Fig 3e — constraint/redistribution ablation ({BASE.duration:.0f}s)",
    )


FIG3E = Figure(
    name="fig3e_ablation",
    doc="""Fig. 3e — is redistribution worth it? (§5.5)

    Compares Samya against (i) "No Constraints" — no upper bound, every
    request succeeds locally: the unreachable optimum; and (ii) "No
    Redistribution" — exhausted sites just reject.

    Paper shape: Samya lands within a few percent of the optimum and above
    the no-redistribution variant (the paper reports ~3.5-4% below optimal
    and ~14% above no-redistribution; our magnitudes are compressed — see
    EXPERIMENTS.md — but the ordering and the rejection mechanics hold).
    """,
    points={
        OPTIMAL: replace(BASE, enforce_constraint=False),
        MAJORITY: BASE,
        STAR: replace(BASE, system="samya-star"),
        "No Redistribution": replace(BASE, redistribute=False),
    },
    headline=lambda results: {
        "committed": committed_by(results),
        "rejected": rejected_by(results),
        "samya_fraction_of_optimal": round(
            ratio(results[MAJORITY].committed, results[OPTIMAL].committed), 4
        ),
    },
    shape=fig3e_shape,
    table=fig3e_table,
    observed=MAJORITY,
    seed=BASE.seed,
    overrides={
        "rejected": Tolerance(rel=0.50, abs=100),
        "samya_fraction_of_optimal": Tolerance(abs=0.05),
    },
)


# -- Fig. 3f -----------------------------------------------------------------

PREDICTED = "Av.[(n+1)/2] + prediction"
LITERAL = "Av.[(n+1)/2] no prediction (paper-literal)"
IMPROVED = "Av.[(n+1)/2] no prediction (improved reactive)"
STAR_PREDICTED = "Av.[*] + prediction"
STAR_LITERAL = "Av.[*] no prediction (paper-literal)"


def fig3f_shape(results):
    committed = committed_by(results)
    predicted, literal = results[PREDICTED], results[LITERAL]
    return [
        # With prediction, redistribution is overwhelmingly proactive...
        check("with prediction: proactive triggers > reactive triggers",
              rounds(predicted, "proactive_triggers"), ">",
              rounds(predicted, "reactive_triggers")),
        # ...without it, every round is reactive by construction.
        check("paper-literal: no proactive trigger",
              rounds(literal, "proactive_triggers"), "==", 0),
        check("paper-literal: reactive triggers fire",
              rounds(literal, "reactive_triggers"), ">", 0),
        # Prediction beats the paper-literal reactive mode for both variants.
        check("Av.[(n+1)/2]: prediction commits > paper-literal",
              committed[PREDICTED], ">", committed[LITERAL]),
        # For Avantan[*] the gain is muted in our substrate: concurrent
        # proactive triggers collide on the single-round-per-site lock and
        # abort (see EXPERIMENTS.md), so we assert no meaningful regression
        # rather than the paper's 1.4x.
        check("Av.[*]: prediction commits > 95% of paper-literal",
              committed[STAR_PREDICTED], ">", 0.95 * committed[STAR_LITERAL]),
        # The implementation finding: the improved reactive mode narrows the
        # gap substantially (it must land between literal and predictive).
        check("improved reactive commits > 98% of paper-literal",
              committed[IMPROVED], ">", committed[LITERAL] * 0.98),
    ]


FIG3F = Figure(
    name="fig3f_prediction",
    doc="""Fig. 3f — proactive (predicted) vs reactive redistributions (§5.6).

    The paper removes the Prediction Module and runs Eq. 5 literally: a
    reactive trigger asks for the failing request's amount and clients queue
    through cooldowns.  That variant loses ~1.4x.  We reproduce both modes —
    and additionally show (as an implementation finding, see EXPERIMENTS.md)
    that two small engineering changes to the reactive path (deficit-sized
    asks + fast rejection while a round cannot help) recover most of the
    gap, which is why our headline gap is smaller than the paper's.
    """,
    points={
        PREDICTED: BASE,
        LITERAL: replace(BASE, predictor="none", paper_literal_reactive=True),
        IMPROVED: replace(BASE, predictor="none"),
        STAR_PREDICTED: replace(BASE, system="samya-star"),
        STAR_LITERAL: replace(
            BASE, system="samya-star", predictor="none", paper_literal_reactive=True
        ),
    },
    headline=lambda results: {
        "committed": committed_by(results),
        "prediction_gain": round(
            ratio(results[PREDICTED].committed, results[LITERAL].committed), 3
        ),
    },
    shape=fig3f_shape,
    table=point_table(
        f"Fig 3f — prediction ablation ({BASE.duration:.0f}s)",
        ["variant", "committed", "p99 (ms)", "proactive", "reactive"],
        lambda name, result: [
            name, result.committed, f"{ms(result, 'p99'):.1f}",
            rounds(result, "proactive_triggers"), rounds(result, "reactive_triggers"),
        ],
    ),
    # The predictive variant: its demand section is the prediction scorecard.
    observed=PREDICTED,
    seed=BASE.seed,
    overrides={"prediction_gain": Tolerance(abs=0.05)},
)


# -- Fig. 3g -----------------------------------------------------------------

SCALES = (1, 2, 3, 4)  # sites per region -> 5, 10, 15, 20 sites
VARIANTS = ("samya-majority", "samya-star")


def fig3g_shape(results):
    checks = []
    for system in VARIANTS:
        runs = [results[(system, 5 * scale)] for scale in SCALES]
        tps = [result.throughput_avg for result in runs]
        checks += [
            # Monotone growth...
            (f"{system}: throughput grows with every step from 5 to 20 sites",
             all(b > a for a, b in zip(tps, tps[1:])),
             " / ".join(f"{value:.1f}" for value in tps) + " tps"),
            # ...and near-linear: 4x the sites buys at least 2.5x throughput.
            check(f"{system}: tps at 20 sites > 2.5x tps at 5",
                  tps[-1], ">", 2.5 * tps[0]),
            # Median/typical latency stays flat (requests are still local).
            check(f"{system}: worst p90 (ms) over the four sizes < 25",
                  max(ms(result, "p90") for result in runs), "<", 25.0),
        ]
    return checks


FIG3G = Figure(
    name="fig3g_scaling",
    doc="""Fig. 3g — scalability: 5 to 20 sites (§5.7).

    Additional sites are spawned inside the same five regions; offered load
    and the entity maximum scale with the deployment (a larger customer with
    a larger quota — without scaling M_e, per-site allocations shrink and
    redistribution storms dominate, which is a different experiment).

    Paper shape: roughly linear throughput growth with flat latency.
    """,
    points={
        (system, 5 * scale): replace(
            SHORT,
            system=system,
            sites_per_region=scale,
            demand_scale=float(scale),
            maximum=5000 * scale,
        )
        for system in VARIANTS
        for scale in SCALES
    },
    headline=lambda results: {
        "throughput_avg": each(results, lambda r: round(r.throughput_avg, 2), key=at()),
        "p90_ms": each(results, lambda r: round(ms(r, "p90"), 2), key=at()),
    },
    shape=fig3g_shape,
    table=point_table(
        "Fig 3g — throughput and latency vs number of sites",
        ["system", "sites", "avg tps", "p90 (ms)", "p99 (ms)"],
        lambda key, result: [
            *key, f"{result.throughput_avg:.1f}", f"{ms(result, 'p90'):.1f}",
            f"{ms(result, 'p99'):.1f}",
        ],
    ),
    observed=("samya-majority", 5),
    seed=SHORT.seed,
    overrides={"p90_ms": Tolerance(rel=0.25, abs=1.0)},
)


# -- Fig. 3h -----------------------------------------------------------------

READ_RATIOS = (0.0, 0.25, 0.5, 0.65, 0.8, 0.95)


def crossover_ratio(results):
    """The first read ratio at which MultiPaxSys out-commits Samya."""
    return next(
        (
            read_ratio for read_ratio in READ_RATIOS
            if results[("multipaxsys", read_ratio)].throughput_avg
            > results[("samya-majority", read_ratio)].throughput_avg
        ),
        None,
    )


def fig3h_shape(results):
    def tput(system, read_ratio):
        return results[(system, read_ratio)].throughput_avg

    crossover = crossover_ratio(results)
    return [
        # Write-heavy region: Samya dominates by a wide margin.
        check("0% reads: Samya tps > 5x MultiPaxSys",
              tput("samya-majority", 0.0), ">", 5 * tput("multipaxsys", 0.0)),
        check("50% reads: Samya tps > MultiPaxSys",
              tput("samya-majority", 0.5), ">", tput("multipaxsys", 0.5)),
        # Read-heavy extreme: MultiPaxSys's local leaseholder reads win.
        check("95% reads: MultiPaxSys tps > Samya",
              tput("multipaxsys", 0.95), ">", tput("samya-majority", 0.95)),
        # Samya's curve falls with the read ratio; MultiPaxSys's rises.
        check("Samya tps falls from 0% to 95% reads",
              tput("samya-majority", 0.0), ">", tput("samya-majority", 0.95)),
        check("MultiPaxSys tps rises from 0% to 95% reads",
              tput("multipaxsys", 0.0), "<", tput("multipaxsys", 0.95)),
        # Crossover lands in the paper's neighbourhood (>= 50% reads).
        ("the curves cross, at >= 50% reads",
         crossover is not None and crossover >= 0.5, f"crossover at {crossover}"),
    ]


def fig3h_table(results):
    rows = []
    for read_ratio in READ_RATIOS:
        samya = results[("samya-majority", read_ratio)].throughput_avg
        multipax = results[("multipaxsys", read_ratio)].throughput_avg
        rows.append(
            [f"{read_ratio:.2f}", f"{samya:.1f}", f"{multipax:.1f}",
             "samya" if samya > multipax else "multipaxsys"]
        )
    return format_table(
        ["read ratio", "Samya tps", "MultiPaxSys tps", "winner"],
        rows,
        title="Fig 3h — average throughput vs read-only ratio",
    )


FIG3H = Figure(
    name="fig3h_readwrite",
    doc="""Fig. 3h — throughput as the read-only transaction ratio grows (§5.8).

    Samya reads are expensive (the coordinator fans out to every site and
    waits for their token counts); MultiPaxSys reads are cheap leaseholder
    reads but its writes serialize through WAN consensus.  The curves cross:
    the paper puts the crossover "roughly past 65%" of reads — i.e. an
    application whose write load is 35% or more should choose Samya.
    """,
    points={
        (system, read_ratio): replace(SHORT, system=system, read_ratio=read_ratio)
        for read_ratio in READ_RATIOS
        for system in ("samya-majority", "multipaxsys")
    },
    headline=lambda results: {
        "throughput_avg": each(
            results, lambda result: round(result.throughput_avg, 2), key=at("{:.2f}")
        ),
        "crossover_read_ratio": crossover_ratio(results),
    },
    shape=fig3h_shape,
    table=fig3h_table,
    observed=("samya-majority", READ_RATIOS[0]),
    seed=SHORT.seed,
    overrides={"crossover_read_ratio": Tolerance(abs=0.16)},
)


# -- §5.9(i): varying the maximum limit ---------------------------------------

#: Steady-state outstanding tokens for the default trace is ~3500; sweep
#: from starved to ample.
LIMITS = (500, 2000, 5000, 12000)


def ext_limit_shape(results):
    committed = [results[limit].committed for limit in LIMITS]
    rejected = [results[limit].rejected for limit in LIMITS]
    return [
        # Monotone: more quota, more commits.  (The paper reports ~5x from
        # mean to max; our factor is compressed because committed counts
        # include release churn, which continues even at a starved limit —
        # see EXPERIMENTS.md.)
        ("commits never fall as M_e grows",
         all(b >= a for a, b in zip(committed, committed[1:])), f"{committed}"),
        check("ample limit commits > 1.15x the starved one",
              committed[-1], ">", 1.15 * committed[0]),
        # With an ample limit nothing is rejected.
        check("ample limit rejects nothing", rejected[-1], "==", 0),
        # Rejections fall monotonically as the quota grows.
        ("rejections never rise as M_e grows",
         all(b <= a for a, b in zip(rejected, rejected[1:])), f"{rejected}"),
        check("starved limit rejects > 1000", rejected[0], ">", 1000),
    ]


EXT_LIMIT = Figure(
    name="ext_limit_sweep",
    doc="""Extended experiment (i), §5.9 — varying the maximum limit M_e.

    Paper: raising M_e from the mean demand (600) to the max demand (16000)
    improves Avantan's throughput roughly 5x — a starved quota forces
    rejections no redistribution can fix; an ample quota makes every request
    servable.  We sweep M_e from well below the workload's steady-state
    token footprint up to far above it and reproduce the monotone growth
    with saturation.
    """,
    points={limit: replace(SHORT, maximum=limit) for limit in LIMITS},
    headline=lambda results: {
        "committed": committed_by(results),
        "rejected": rejected_by(results),
    },
    shape=ext_limit_shape,
    table=point_table(
        "§5.9(i) — throughput vs maximum limit",
        ["M_e", "committed", "rejected", "avg tps"],
        lambda limit, result: [
            limit, result.committed, result.rejected, f"{result.throughput_avg:.1f}"
        ],
    ),
    # The starved point: the interesting one for contention telemetry.
    observed=LIMITS[0],
    seed=SHORT.seed,
    overrides={"rejected": Tolerance(rel=0.25, abs=50)},
)


# -- §5.9(ii): varying the arrival rate ---------------------------------------

#: Compressed interval lengths (s); 5 is the paper's default, larger
#: values approach the original trace rate (fewer requests per second).
INTERVALS = (5.0, 20.0, 60.0)
#: Every run replays the same 60 trace intervals (5 simulated hours of
#: original time), so slower arrival rates still cover the demand peaks.
TRACE_INTERVALS = 60


def samya_advantages(results):
    return [
        ratio(
            results[("samya-majority", interval)].committed,
            results[("multipaxsys", interval)].committed,
        )
        for interval in INTERVALS
    ]


def ext_arrival_shape(results):
    advantages = samya_advantages(results)
    return [
        # At the compressed rate the advantage is an order of magnitude...
        check("Samya's advantage at the compressed (5 s) rate > 8x",
              advantages[0], ">", 8.0),
        # ...and it shrinks monotonically as arrivals slow down, yet Samya
        # still commits more even at the slowest rate (paper: +43% at 300 s).
        ("the advantage shrinks with every slower rate",
         all(b < a for a, b in zip(advantages, advantages[1:])),
         " / ".join(f"{advantage:.2f}x" for advantage in advantages)),
        check("Samya still ahead at the slowest rate", advantages[-1], ">", 1.0),
    ]


def ext_arrival_table(results):
    rows = []
    for interval in INTERVALS:
        samya = results[("samya-majority", interval)].committed
        multipax = results[("multipaxsys", interval)].committed
        rows.append(
            [f"{interval:.0f}s", samya, multipax,
             f"{ratio(samya, max(multipax, 1)):.2f}x"]
        )
    return format_table(
        ["interval", "Samya committed", "MultiPaxSys committed", "advantage"],
        rows,
        title="§5.9(ii) — commits vs arrival rate (larger interval = slower)",
    )


EXT_ARRIVAL = Figure(
    name="ext_arrival_rate",
    doc="""Extended experiment (ii), §5.9 — varying the request arrival rate.

    The paper compresses the trace's 300 s sampling interval to 5 s; this
    sweep walks the compression back toward the original rate and compares
    Samya with MultiPaxSys at each step.  Paper conclusion: even at the
    original (60x slower) arrival rate Avantan commits ~43% more than
    MultiPaxSys; at compressed rates the gap is the 16-18x headline.
    """,
    points={
        (system, interval): replace(
            SHORT,
            system=system,
            duration=TRACE_INTERVALS * interval,
            compressed_interval=interval,
            epoch_seconds=interval,
        )
        for interval in INTERVALS
        for system in ("samya-majority", "multipaxsys")
    },
    headline=lambda results: {
        "committed": each(results, lambda r: r.committed, key=at("{:.0f}s")),
        "samya_advantage": {
            f"{interval:.0f}s": round(advantage, 2)
            for interval, advantage in zip(INTERVALS, samya_advantages(results))
        },
    },
    shape=ext_arrival_shape,
    table=ext_arrival_table,
    observed=("samya-majority", INTERVALS[0]),
    seed=SHORT.seed,
    overrides={"samya_advantage": Tolerance(rel=0.25)},
)


# -- Ablations beyond the paper ----------------------------------------------

POLICIES = ("even", "historic")


def allocation_shape(results):
    committed = committed_by(results).values()
    return [
        # Both serve the workload; neither collapses.
        check("the lower commit count > 95% of the higher",
              min(committed), ">", 0.95 * max(committed)),
        # Both policies still need redistribution as phases move the demand.
        *(
            check(f"{policy}: redistribution still triggers",
                  rounds(results[policy], "triggered"), ">", 0)
            for policy in POLICIES
        ),
    ]


ABLATION_ALLOCATION = Figure(
    name="ablation_allocation",
    doc="""Ablation — initial allocation policy (§5.2's uneven-start remark).

    "Note that the start allocation can also be an uneven token
    distribution, based on historic data."  This row compares the even
    split against a demand-weighted historic split: starting near the
    equilibrium should reduce early redistributions.
    """,
    points={policy: replace(SHORT, initial_allocation=policy) for policy in POLICIES},
    headline=lambda results: {
        "committed": committed_by(results),
        "redistributions": each(results, lambda r: r.redistributions["triggered"]),
    },
    shape=allocation_shape,
    table=point_table(
        "Ablation — even vs historic initial allocation",
        ["allocation", "committed", "rejected", "redistributions", "frozen time (s)"],
        lambda policy, result: [
            policy, result.committed, result.rejected,
            result.redistributions["triggered"],
            f"{result.rounds.get('total_frozen_time', 0.0):.1f}",
        ],
    ),
    observed=POLICIES[0],
    seed=SHORT.seed,
    overrides={"redistributions": Tolerance(rel=0.50, abs=10)},
)

EPOCHS = (2.5, 5.0, 10.0, 20.0)


def seconds(epoch):
    return f"{epoch:.1f}s"


def epoch_shape(results):
    committed = committed_by(results).values()
    triggered = [result.redistributions["triggered"] for result in results.values()]
    return [
        # The system is robust across a 8x epoch range: no cliff.
        check("the lowest commit count > 90% of the highest",
              min(committed), ">", 0.9 * max(committed)),
        # Every configuration still redistributes when demand concentrates.
        ("every epoch length still redistributes",
         all(count > 0 for count in triggered), f"{triggered} triggered"),
    ]


ABLATION_EPOCH = Figure(
    name="ablation_epoch",
    doc="""Ablation — epoch length (the look-ahead window of §4.2).

    The epoch "dictates how far ahead in the future to predict resource
    demand (e.g., 5 or 10 minutes) depending on the workload pattern."  At
    our 60x compression those are 5 s and 10 s.  Too short an epoch makes
    TokensWanted myopic (more rounds); too long makes predictions stale.
    """,
    points={epoch: replace(SHORT, epoch_seconds=epoch) for epoch in EPOCHS},
    headline=lambda results: {
        "committed": each(results, lambda result: result.committed, key=seconds),
        "p99_ms": each(results, lambda r: round(ms(r, "p99"), 2), key=seconds),
    },
    shape=epoch_shape,
    table=point_table(
        "Ablation — prediction epoch (look-ahead window)",
        ["epoch", "committed", "rejected", "redistributions", "p99 (ms)"],
        lambda epoch, result: [
            seconds(epoch), result.committed, result.rejected,
            result.redistributions["triggered"], f"{ms(result, 'p99'):.1f}",
        ],
    ),
    observed=EPOCHS[0],
    seed=SHORT.seed,
    overrides={"p99_ms": Tolerance(rel=0.25, abs=1.0)},
)

PREDICTORS = ("oracle", "seasonal", "random-walk", "none")


def predictor_shape(results):
    committed = committed_by(results).values()
    return [
        # Nothing implodes: the pluggable module degrades gracefully.
        check("the lowest commit count > 85% of the highest",
              min(committed), ">", 0.85 * max(committed)),
        # Every predictor except "none" produces proactive rounds.
        *(
            check(f"{name}: proactive rounds happen",
                  results[name].redistributions["proactive_triggers"], ">", 0)
            for name in ("oracle", "seasonal", "random-walk")
        ),
        check("none: no proactive round",
              results["none"].redistributions["proactive_triggers"], "==", 0),
    ]


ABLATION_PREDICTOR = Figure(
    name="ablation_predictor",
    doc="""Ablation — which Prediction Module to plug in (§4.2: it is pluggable).

    Runs the live system with different predictors, including the oracle
    (knows the future: the upper bound on what better prediction could buy)
    and the random walk (the weakest learner from Table 2a).
    """,
    points={name: replace(SHORT, predictor=name) for name in PREDICTORS},
    headline=lambda results: {
        "committed": committed_by(results),
        "proactive_triggers": each(results, lambda r: rounds(r, "proactive_triggers")),
    },
    shape=predictor_shape,
    table=point_table(
        "Ablation — live Prediction Module choice",
        ["predictor", "committed", "rejected", "proactive", "reactive"],
        lambda name, result: [
            name, result.committed, result.rejected,
            rounds(result, "proactive_triggers"), rounds(result, "reactive_triggers"),
        ],
    ),
    # "oracle", so the artifact's prediction scorecard is the interesting one.
    observed=PREDICTORS[0],
    seed=SHORT.seed,
    overrides={"proactive_triggers": Tolerance(rel=0.50, abs=5)},
)

STRATEGIES = ("greedy", "proportional", "equal-split")


def realloc_shape(results):
    committed = committed_by(results)
    return [
        # Demand-aware strategies must not lose to the demand-blind split.
        check("greedy commits >= 98% of equal-split",
              committed["greedy"], ">=", 0.98 * committed["equal-split"]),
        check("proportional commits >= 98% of equal-split",
              committed["proportional"], ">=", 0.98 * committed["equal-split"]),
        # All conserve (run_experiment audits); all commit substantially.
        check("the lowest commit count > 80% of the highest",
              min(committed.values()), ">", 0.8 * max(committed.values())),
    ]


ABLATION_REALLOC = Figure(
    name="ablation_realloc",
    doc="""Ablation — reallocation strategy (§4.4 says the procedure is pluggable).

    Compares the paper's greedy maximise-usage allocation against a
    proportional-scaling strategy and a demand-blind equal split.  The
    demand-aware strategies should reject less and commit more than the
    equal split, which keeps shipping tokens to sites that do not need them.
    """,
    points={name: replace(SHORT, reallocator=name) for name in STRATEGIES},
    headline=lambda results: {
        "committed": committed_by(results),
        "rejected": rejected_by(results),
    },
    shape=realloc_shape,
    table=point_table(
        "Ablation — Algorithm 2 vs alternative reallocations",
        ["strategy", "committed", "rejected", "redistributions"],
        lambda name, result: [
            name, result.committed, result.rejected, result.redistributions["triggered"]
        ],
    ),
    observed=STRATEGIES[0],
    seed=SHORT.seed,
    overrides={"rejected": Tolerance(rel=0.50, abs=50)},
)


# -- Nemesis -----------------------------------------------------------------

NEMESIS_RUN = dict(
    seed=7,
    duration=120.0,
    quiet_period=40.0,
    # Ambient message-level adversity on every server link (the elevated
    # rates the pledge discipline and liveness watchdog exist for).
    drop=0.05,
    duplicate=0.02,
    systems=NEMESIS_SYSTEMS,
)


def nemesis_headline(results):
    report = results["schedule"]
    return {
        "schedule_events": len(report.schedule),
        "per_system": {
            system: {
                "committed": verdict.result.committed,
                "post_heal_committed": verdict.post_heal_committed,
                "unanswered": verdict.result.unanswered,
                "violations": len(verdict.result.audit_violations),
                "unresolved_pledges": verdict.unresolved_pledges,
                "pledge_recoveries": verdict.pledge_recoveries,
            }
            for system, verdict in report.verdicts.items()
        },
    }


def nemesis_shape(results):
    report = results["schedule"]
    return [
        # The acceptance bar: every system safe (no invariant violations) and
        # live (every client answered, commits resume after the final heal).
        ("every system is safe and live", report.passed,
         "; ".join(report.violations()) or "no audit violation"),
    ]


def nemesis_sections(results):
    # The audited runs carry an EventBus and the flow plane, so the demand
    # rollup (token locality under faults) and the wire rollup under
    # adversity ride along for free (CI extracts them into
    # DEMAND_/FLOW_nemesis.json; the gate still keys on headline).
    result = results["schedule"].verdicts["samya-majority"].result
    return {"demand": result.demand_snapshot, "flow": result.flow_snapshot}


def nemesis_table(results):
    report = results["schedule"]
    return format_table(
        ["system", "committed", "post-heal", "unanswered", "violations",
         "pledges stuck/recov", "verdict"],
        [
            [system, verdict.result.committed, verdict.post_heal_committed,
             verdict.result.unanswered, len(verdict.result.audit_violations),
             f"{verdict.unresolved_pledges}/{verdict.pledge_recoveries}",
             "pass" if verdict.passed else "FAIL"]
            for system, verdict in report.verdicts.items()
        ],
        title=f"Nemesis seed {report.seed} — {len(report.schedule)} fault events",
    )


NEMESIS = Figure(
    name="nemesis",
    doc="""Nemesis smoke — one randomized adversarial schedule (§3.1).

    One fixed-seed nemesis run (crashes, partitions, one-way splits, link
    degradation, drops/duplication/delay) against every protocol variant,
    traced through the invariant auditor.  The regression gate pins the
    safety headline exactly: zero invariant violations and zero unanswered
    clients, for every system, under the same schedule.  Throughput numbers
    get the usual drift band.
    """,
    points={"schedule": NEMESIS_RUN},
    run=lambda kwargs: run_nemesis(**kwargs),
    headline=nemesis_headline,
    shape=nemesis_shape,
    table=nemesis_table,
    sections=nemesis_sections,
    seed=NEMESIS_RUN["seed"],
    # Safety metrics are exact (a single violation, unanswered client, or
    # unresolved pledge is a regression, not drift); throughput drifts.
    # pledge_recoveries is exact too: it is seeded and deterministic, and
    # a silent change means the recovery path moved.
    overrides={
        **{
            f"per_system.{system}.{metric}": Tolerance()
            for system in NEMESIS_SYSTEMS
            for metric in ("unanswered", "violations", "unresolved_pledges",
                           "pledge_recoveries")
        },
        "schedule_events": Tolerance(),
    },
)


# -- Scale subsystem: the entity axis ----------------------------------------

#: Three regions, batched Avantan traffic, seed 11.  ``rate`` is per
#: region: 3 regions * 30 s * 12k/s ≈ 1.08M requests per sweep point.
SCALE = ScaleConfig(
    regions=3, maximum=30, duration=30.0, rate=12_000.0, seed=11, batching=True
)
SWEEP = (1_000, 10_000, 100_000)
SMOKE = replace(
    SCALE, entities=10_000, duration=10.0, rate=4_000.0,
    # Demand analytics on the smoke point: O(1) counters per request,
    # O(K) memory — the sim counters the gate pins are unchanged, and the
    # artifact gains locality data.
    demand=True,
    # Wire flow accounting: encodes the envelopes the sim never
    # serializes, so the artifact carries a byte budget and the gate
    # pins it (see smoke_headline).
    flow=True,
)
#: One declaration for both scale rows: sim-deterministic counters are
#: tight (±5%); wall-clock seconds depend on the host and are skipped;
#: wall-clock *rates* are gated as ratios to the machine's calibration
#: point (wide ±50% — the ratio cancels the machine constant, not noise).
SCALE_IGNORE = ("wall_seconds", "wall_requests_per_sec")
SCALE_CALIBRATED = {
    "wall_events_per_sec": Tolerance(rel=0.5),
    "wall_messages_per_sec": Tolerance(rel=0.5),
}


def scale_shape(results):
    checks = []
    for entities, result in results.items():
        batches = (result.batching or {}).get("batches_sent", 0)
        checks += [
            (f"{entities} entities: the run drains", result.drained,
             f"{result.queued_unresolved} requests still queued"),
            (f"{entities} entities: the conservation audit is clean",
             result.violations == [], "; ".join(result.violations[:3]) or "clean"),
            check(f"{entities} entities: commits happen", result.committed, ">", 0),
            (f"{entities} entities: batching is on", result.batching is not None,
             f"batching stats: {result.batching}"),
            check(f"{entities} entities: batches are sent", batches, ">", 0),
        ]
    return checks


scale_table = point_table(
    f"scale — {SCALE.regions} regions, batched, seed {SCALE.seed}",
    ["entities", "requests", "committed", "rejected", "rounds", "wire msgs",
     "wall s", "events/s", "msgs/s", "violations"],
    lambda entities, result: [
        entities, result.submitted, result.committed, result.rejected,
        result.rounds_applied, result.wire_sent, f"{result.wall_seconds:.1f}",
        f"{result.wall_events_per_sec:,.0f}", f"{result.wall_messages_per_sec:,.0f}",
        len(result.violations),
    ],
)


def smoke_headline(results):
    result = results[SMOKE.entities]
    # The gated wire byte budget (FlowTracker.headline shape, rebuilt
    # from the snapshot): mean framed bytes per message type pin the
    # codec, the coalescing ratio pins the batcher, the totals pin
    # overall chattiness.  Deterministic on the fixed seed.
    flow = result.flow
    flow_headline = {
        "wire_frames": flow["frames"],
        "wire_bytes": flow["frame_bytes"],
        "bytes_per_frame": {
            row["msg_type"]: row["mean_frame_bytes"] for row in flow["types"]
        },
    }
    for key in ("coalescing_ratio", "overhead_ratio"):
        if key in flow.get("batch", {}):
            flow_headline[key] = flow["batch"][key]
    return {str(SMOKE.entities): result.as_metrics(), "flow": flow_headline}


SCALE_SMOKE = Figure(
    name="scale_smoke",
    doc="""Scale subsystem — single-point smoke for CI.

    One mid-size point (10k entities, three regions, batched) cheap enough
    to run on every push: the CI ``scale-smoke`` job selects it with
    ``python -m repro bench -k scale_smoke`` and fails on baseline drift,
    on the wire byte budget, and on calibrated wall-clock throughput.
    """,
    points={SMOKE.entities: SMOKE},
    run=run_scale,
    headline=smoke_headline,
    shape=lambda results: scale_shape(results) + [
        check("the flow plane counted wire frames",
              (results[SMOKE.entities].flow or {}).get("frames", 0), ">", 0),
    ],
    table=scale_table,
    sections=lambda results: {
        "demand": results[SMOKE.entities].demand,
        "flow": results[SMOKE.entities].flow,
    },
    seed=SMOKE.seed,
    default=Tolerance(rel=0.05),
    ignore=tuple(f"{SMOKE.entities}.{leaf}" for leaf in SCALE_IGNORE),
    calibrated={
        f"{SMOKE.entities}.{leaf}": tolerance
        for leaf, tolerance in SCALE_CALIBRATED.items()
    },
)

SWEEP_METRICS = (
    "submitted", "committed", "rejected", "failed", "rounds_applied", "wire_sent",
    "violations", "drained", "wall_seconds", "wall_events_per_sec",
    "wall_messages_per_sec", "wall_requests_per_sec",
)


def sweep_shape(results):
    top = results[SWEEP[-1]]
    return scale_shape(results) + [
        # The subsystem's acceptance floor: the top point is >= 100k
        # entities and clears a million simulated requests on its own.
        check("the top point has >= 100k entities", top.entities, ">=", 100_000),
        check("the top point submits >= 1M requests", top.submitted, ">=", 1_000_000),
    ]


SCALE_ENTITIES = Figure(
    name="scale_entities",
    doc="""Scale subsystem — entity-count sweep (the `repro.scale` headline).

    Where the paper's figures sweep sites and offered load over a handful
    of entities, this row sweeps the *entity axis*: 10^3 to 10^5 token
    entities on one sharded three-region deployment, with batched Avantan
    traffic and the vectorized conservation audit after every point.  The
    100k point alone pushes over a million simulated client requests.
    """,
    points={count: replace(SCALE, entities=count) for count in SWEEP},
    run=run_scale,
    headline=lambda results: {
        metric: each(results, lambda point: point.as_metrics()[metric])
        for metric in SWEEP_METRICS
    },
    shape=sweep_shape,
    table=scale_table,
    seed=SCALE.seed,
    default=Tolerance(rel=0.05),
    ignore=SCALE_IGNORE,
    calibrated=SCALE_CALIBRATED,
)


#: The list, in the order EXPERIMENTS.md reports it.
FIGURES = (
    TABLE2A, TABLE2B,
    FIG3A, FIG3B, FIG3C, FIG3D, FIG3E, FIG3F, FIG3G, FIG3H,
    EXT_LIMIT, EXT_ARRIVAL,
    ABLATION_ALLOCATION, ABLATION_EPOCH, ABLATION_PREDICTOR, ABLATION_REALLOC,
    NEMESIS, SCALE_SMOKE, SCALE_ENTITIES,
)
