"""Inventory management during a flash sale (one of §1's "other
applications": online shopping stock as aggregate data).

A retailer lists 20,000 units of a product.  Customers in five regions
buy (acquireTokens) and occasionally cancel (releaseTokens); at a known
instant the Asian region runs a flash sale and demand there spikes 10x.
The interesting question: do the Asian sites starve while American
warehouses sit on stock?

This example drives the core API directly (no harness): it builds the
cluster, hand-crafts the workload, and watches tokens migrate toward the
demand spike through Avantan redistributions.  A DemandTracker taps the
telemetry bus, so the run ends with the same token-locality / hot-entity
report ``repro trace FILE --demand`` produces — the quantitative answer
to "did the Asian sites starve?".

Run:  python examples/inventory_flash_sale.py
"""

import random

from repro.core import Entity, SamyaCluster, SamyaConfig
from repro.core.client import Operation
from repro.core.config import AvantanVariant
from repro.core.requests import RequestKind
from repro.harness.report import format_table
from repro.metrics import ConservationChecker, MetricsHub
from repro.net import Network
from repro.net.regions import PAPER_REGIONS, Region
from repro.obs.instruments import Instruments
from repro.prediction import SeasonalNaivePredictor
from repro.sim import Kernel

STOCK = 20_000
SALE_REGION = Region.ASIA_EAST2
SALE_START, SALE_END = 60.0, 120.0
DURATION = 180.0


def shopping_stream(rng: random.Random, region: Region) -> list[Operation]:
    """Steady purchases with ~8% cancellations; 10x during the sale."""
    operations = []
    t = 0.0
    while t < DURATION:
        on_sale = region is SALE_REGION and SALE_START <= t < SALE_END
        rate = 80.0 if on_sale else 8.0
        t += rng.expovariate(rate)
        kind = RequestKind.RELEASE if rng.random() < 0.08 else RequestKind.ACQUIRE
        operations.append(Operation(t, kind, rng.randint(1, 3)))
    return operations


def run_flash_sale():
    """Run the scenario; returns (cluster, metrics, demand tracker, rows)."""
    kernel = Kernel(seed=7)
    network = Network(kernel)
    # The demand plane rides the telemetry bus: asking for ``metrics``
    # builds one (a NullSink keeps the events off disk) and its demand
    # tap folds them into locality/starvation analytics as they happen
    # (sites find the bus via kernel.obs).
    instruments = Instruments(metrics=True)
    instruments.attach(kernel, network)
    kernel.obs = instruments.bus
    demand = instruments.demand
    product = Entity("gadget", STOCK)
    cluster = SamyaCluster(
        kernel=kernel,
        network=network,
        entity=product,
        regions=PAPER_REGIONS,
        config=SamyaConfig(variant=AvantanVariant.STAR, epoch_seconds=5.0),
        predictor_factory=lambda region, replica: SeasonalNaivePredictor(period=12),
    )
    metrics = MetricsHub()
    checker = ConservationChecker(STOCK)
    checker.watch(cluster.sites)

    rng = random.Random(1)
    for region in PAPER_REGIONS:
        cluster.add_client(region, shopping_stream(rng, region), metrics=metrics)

    def snapshot(label: str):
        return [label] + [site.state.tokens_left for site in cluster.sites]

    rows = []
    cluster.start()
    kernel.run(until=SALE_START)
    rows.append(snapshot("before sale"))
    kernel.run(until=SALE_END)
    rows.append(snapshot("sale just ended"))
    kernel.run(until=DURATION)
    rows.append(snapshot("after sale"))
    checker.check()
    return cluster, metrics, demand, rows


def main() -> None:
    from repro.obs import format_demand_report

    cluster, metrics, demand, rows = run_flash_sale()
    print(
        format_table(
            ["moment"] + [site.region.value for site in cluster.sites],
            rows,
            title="Stock available at each regional site",
        )
    )
    print()
    totals = cluster.redistribution_totals()
    sold = sum(site.counters["acquired_tokens"] for site in cluster.sites)
    returned = sum(site.counters["released_tokens"] for site in cluster.sites)
    print(
        format_table(
            ["metric", "value"],
            [
                ["units sold", sold],
                ["units returned", returned],
                ["purchases committed", metrics.committed],
                ["purchases rejected (sold out locally+globally)", metrics.rejected],
                ["p99 checkout latency (ms)", f"{metrics.latency_summary().row_ms()['p99']:.1f}"],
                ["Avantan redistributions", totals["triggered"]],
                ["stock never oversold", "verified (conservation audit)"],
            ],
            title="Flash-sale outcome",
        )
    )
    print()
    # The demand report answers the question the snapshots only hint
    # at: what fraction of checkouts were served from locally held
    # stock (vs stalled behind a redistribution), per region.
    print(format_demand_report(demand, source="flash-sale run"))


if __name__ == "__main__":
    main()
