"""One server shell, one deployment shell, under all five systems.

Every §5 result is a comparison, so the apparatus around the protocols —
the single-server service queue, the envelope dedup in front of it, the
reply, the app-manager / client wiring — has to be one implementation.
The first two tests are the drift that four copies had produced (the
CRDB-like replicas had no envelope dedup; the log baselines applied a
re-routed request id twice); the conformance test holds every system to
the surface the harness reads; the last pins that there is one of each.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.baselines.statemachine import LogServer, TokenCommand, TokenStateMachine
from repro.core.ledger import RedistributionLedger
from repro.core.requests import RequestKind
from repro.core.site import REQUEST_DEDUP_WINDOW, SamyaSite, Server
from repro.faults import FaultyTransport
from repro.harness.experiment import SYSTEMS, Experiment, ExperimentConfig
from repro.harness.scenarios import progressive_region_crashes
from repro.metrics.invariants import ConservationChecker
from repro.net.network import Network, NetworkConfig
from repro.net.regions import PAPER_REGIONS, Region
from repro.sim.kernel import Kernel

LOG_SYSTEMS = {"multipaxsys", "crdb"}


def most_applied(servers: list[LogServer]) -> LogServer:
    return max(servers, key=lambda replica: replica.applied_index)


@pytest.mark.parametrize("system", SYSTEMS)
def test_duplicated_envelopes_execute_once(system):
    """20% of envelopes to every server arrive twice, none is lost: what
    the servers account as held is what the clients hold."""
    kernel = Kernel(seed=3)
    network = FaultyTransport(Network(kernel, NetworkConfig()), kernel, seed=3)
    experiment = Experiment(
        ExperimentConfig(system=system, seed=3, duration=60),
        kernel=kernel,
        network=network,
    )
    names = [server.name for server in experiment.servers]
    network.degrade(names, drop=0.0, duplicate=0.2)
    experiment.start()
    kernel.run(until=75)
    result = experiment.collect()
    assert network.injected["duplicate"] > 0
    held_by_clients = sum(client.outstanding for client in experiment.clients)
    if system in LOG_SYSTEMS:
        replica = most_applied(experiment.servers)
        assert replica.state_machine.used["VM"] == held_by_clients
        assert replica.commits == result.committed
    else:
        held = sum(
            server.counters["acquired_tokens"] - server.counters["released_tokens"]
            for server in experiment.servers
        )
        assert held == held_by_clients


def test_rerouted_request_id_applies_once_on_every_replica():
    """Progressive crashes make an app manager re-route an unanswered
    request to the new leader, so one request id is in the log twice —
    legitimately.  The state machine must execute it once."""
    config = ExperimentConfig(
        system="multipaxsys",
        seed=3,
        duration=200,
        faults=progressive_region_crashes(PAPER_REGIONS, first_at=50, every=50),
        multipaxsys_paper_regions=True,
    )
    experiment = Experiment(config)
    experiment.run()
    replica = most_applied(experiment.servers)
    commands = [
        entry.command
        for entry in (
            replica.log.get(index) for index in range(1, replica.applied_index + 1)
        )
        if entry.command is not None
    ]
    ids = [command.request_id for command in commands]
    assert len(ids) > len(set(ids)), "the schedule no longer forces a re-route"
    fresh = TokenStateMachine({experiment.entity.id: config.maximum})
    seen = set()
    for command in commands:
        if command.request_id not in seen:
            seen.add(command.request_id)
            fresh.apply(command)
    assert replica.state_machine.used == fresh.used


def test_state_machine_request_window_is_bounded():
    assert SamyaSite._RESPONSE_CACHE_LIMIT == REQUEST_DEDUP_WINDOW == 8192
    machine = TokenStateMachine({"VM": 10})
    for request_id in range(REQUEST_DEDUP_WINDOW + 5):
        machine.apply(TokenCommand(request_id, RequestKind.RELEASE, "VM", 1))
    assert len(machine._outcomes) == REQUEST_DEDUP_WINDOW
    refused = TokenCommand(-1, RequestKind.ACQUIRE, "VM", 11)
    assert machine.apply(refused) is False
    machine.maxima["VM"] = 100  # a repeat replays the outcome, not the rule
    assert machine.apply(refused) is False
    assert machine.used["VM"] == 0


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_system_presents_the_same_deployment(system):
    config = ExperimentConfig(system=system, seed=3, duration=5)
    experiment = Experiment(config)
    cluster = experiment.cluster
    assert cluster.servers and experiment.servers is cluster.servers
    for server in cluster.servers:
        assert isinstance(server, Server)
        assert isinstance(server.region, Region) and server.crashed is False
    assert list(cluster.app_managers) == list(PAPER_REGIONS)
    assert experiment.clients is cluster.clients
    assert len(cluster.clients) == len(PAPER_REGIONS)
    result = experiment.run()
    assert isinstance(cluster.redistribution_totals(), dict)
    assert isinstance(cluster.round_summary(), dict)
    assert result.rounds == cluster.round_summary()
    assert cluster.unresolved_pledges() == 0
    token_partitioned = system not in LOG_SYSTEMS
    checker = cluster.make_checker(config.maximum)
    assert isinstance(checker, ConservationChecker) == token_partitioned
    assert (checker is None) != token_partitioned
    assert (experiment.checker is not None) == token_partitioned
    assert (result.tokens_left_total is None) != token_partitioned
    assert bool(result.redistributions) == system.startswith("samya")


# -- there is one of each ------------------------------------------------

SRC = Path(repro.__file__).parent


def sites_of(pattern: str) -> list[str]:
    """Files under ``src/repro`` (one entry per matching line) whose code
    matches the regular expression ``pattern``."""
    regex = re.compile(pattern)
    return [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if regex.search(line)
    ]


def test_there_is_one_server_shell_and_one_deployment_shell():
    site, cluster = "core/site.py", "core/cluster.py"
    logs = "baselines/statemachine.py"
    one_of_each = {
        # the service queue, the envelope dedup in front of it, the reply
        r"_busy_until = start \+": [site],
        r"EnvelopeDedup\(": [site, "scale/site.py"],
        r"def _respond\b": [site],  # SamyaSite's: site.serve + response cache
        r"def _reply\b": [site],
        r"\bSiteResponse\(": [site] * 2,  # the reply, and the cached replay
        # the log-server base
        r'"consensus\.commit"': [logs, "obs/schema.py"],
        r"def majority\b": [logs, "core/avantan/base.py"],
        r"def _on_client_request\b": ["baselines/demarcation.py", logs],
        # the deployment shell
        r"def add_client\b": [cluster, "core/directory.py"],
        r"(?<!class )\bAppManager\(": [cluster],
        r"(?<!class )\bWorkloadClient\(": [cluster],
        r"FixedTargetRouting\(": [logs],
        # the harness no longer probes what it was handed
        r"hasattr\(self\.cluster": [],
        r"checker\._sites =": [],
        r"def _servers\b": [],
        r"def committed_commands\b": [],
        r"apply_listeners": [site] * 2 + ["metrics/invariants.py"],
    }
    for pattern, expected in one_of_each.items():
        assert sorted(sites_of(pattern)) == sorted(expected), pattern
    nemesis = (SRC / "harness/nemesis.py").read_text()
    assert 'getattr(server, "unresolved_pledge"' not in nemesis
    assert 'getattr(server, "counters"' not in nemesis


def test_pledge_attributes_resolve_to_the_ledger():
    """``SamyaSite(Server, RedistributionLedger)``: a pledge default on the
    shell would shadow the ledger's."""
    for name in ("unresolved_pledge", "recover_pledge"):
        assert not hasattr(Server, name)
        assert getattr(SamyaSite, name) is getattr(RedistributionLedger, name)
