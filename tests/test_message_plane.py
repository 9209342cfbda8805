"""One message plane under three substrates and two decorators.

The conformance test drives one script — every way an envelope can end
— over ``Network``, ``AsyncioTransport`` and ``TcpTransport``, bare and
under the ``FaultyTransport`` / ``BatchingTransport(FaultyTransport)``
stacks, and holds every combination to the outcome the script declares
next to each step, so a drop or a duplicate is accounted identically
wherever it happens.  The structural tests pin that this is true by
construction: one core, one decorator base, one byte-accounting site.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core.avantan.state import Ballot
from repro.core.messages import AcceptOk
from repro.faults import FaultyTransport
from repro.net import codec
from repro.net.message import reset_msg_ids
from repro.net.network import Network, NetworkConfig
from repro.net.regions import Region
from repro.net.transport import TransportCore, TransportDecorator
from repro.obs.audit import audit_events
from repro.obs.bus import EventBus, RingSink
from repro.obs.flow import FlowTracker
from repro.obs.schema import SCHEMA, validate_events
from repro.runtime.asyncio_transport import AsyncioTransport, LiveTransport
from repro.runtime.clock import LiveClock
from repro.runtime.tcp_transport import TcpTransport
from repro.scale.batching import BatchingTransport
from repro.sim.kernel import Kernel

SUBSTRATES = ("sim", "asyncio", "tcp")
STACKS = ("bare", "faulty", "batching")


class Endpoint:
    def __init__(self, name: str) -> None:
        self.name = name
        self.crashed = False
        self.received: list = []

    def on_message(self, message) -> None:
        self.received.append(message.payload)


def payload(num: int) -> AcceptOk:
    """A codec-registered payload with a ballot, hence a trace id."""
    return AcceptOk(Ballot(num, "a"))


async def drive(substrate: str, stack: str):
    """Run the script; return what was observed and what it declares."""
    reset_msg_ids()
    if substrate == "sim":
        clock = Kernel(seed=0)
        core = Network(clock, NetworkConfig())
    else:
        clock = LiveClock(seed=0)
        clock.schedule(0.0, lambda: None)  # bind the clock to the running loop
        core = (AsyncioTransport if substrate == "asyncio" else TcpTransport)(clock)
    sink = RingSink()
    core.obs = EventBus(clock, sink)
    core.obs.emit(
        "run.meta", schema=SCHEMA, substrate=substrate, system=stack, seed=0, duration=0.0
    )
    core.flow = FlowTracker()
    faulty = batching = None
    transport = core
    if stack != "bare":
        transport = faulty = FaultyTransport(core, clock, seed=0)
    if stack == "batching":
        transport = batching = BatchingTransport(faulty, clock)
    a, b = Endpoint("a"), Endpoint("b")
    transport.attach(a, Region.US_WEST1)
    transport.attach(b, Region.US_EAST1)
    if substrate != "sim":
        await core.start()

    #: (msg_type, [(event type, drop reason), ...]) per envelope, in send order.
    expected: list[tuple[str, list[tuple[str, str | None]]]] = []

    async def step(outcome, *payloads, dst="b", kind="AcceptOk") -> None:
        """Send ``payloads`` from a in one tick, then wait for the plane
        to go quiet; ``outcome`` is what the envelope's trace must read."""
        for item in payloads:
            transport.send("a", dst, item)
        expected.append((kind, [("msg.send", None), *outcome]))
        if substrate == "sim":
            clock.run(until=clock.now + 1.0)
            return
        for _ in range(400):
            await asyncio.sleep(0.005)
            settled = core.messages_delivered + core.messages_dropped
            if core.messages_sent == settled and not (batching and batching._buffers):
                return
        raise AssertionError("message plane never went quiet")

    delivered = [("msg.deliver", None)]

    await step(delivered, payload(1))

    await step([("msg.drop", "unknown-endpoint")], payload(2), dst="nobody")

    b.crashed = True
    await step([("msg.drop", "endpoint-down")], payload(3))
    b.crashed = False

    transport.partitions.partition([("a",), ("b",)])
    await step([("msg.drop", "partitioned")], payload(4))
    transport.partitions.heal()

    # Raised in flight: right after the core admitted the envelope.
    carry = core._carry

    def carry_then_partition(message, frame):
        carry(message, frame)
        core.partitions.partition([("a",), ("b",)])

    core._carry = carry_then_partition
    await step([("msg.drop", "partitioned")], payload(5))
    core._carry = carry
    transport.partitions.heal()

    core.loss_probability = 1.0
    await step([("msg.drop", "loss")], payload(6))
    core.loss_probability = 0.0

    if faulty is not None:
        faulty.degrade(["b"], drop=1.0)
        await step([("msg.drop", "nemesis-drop")], payload(7))
        faulty.degrade(["b"], duplicate=1.0)
        await step(delivered + [("msg.send", None)] + delivered, payload(8))
        faulty.restore()

    if batching is not None:
        await step(delivered, payload(9), payload(10), kind="BatchEnvelope")

    if substrate != "sim":
        await core.aclose()
        core.raise_errors()
        clock.raise_errors()
    return transport, core, faulty, sink.events(), b, expected


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_substrate_and_stack_accounts_alike(substrate, stack):
    transport, core, faulty, events, b, expected = asyncio.run(drive(substrate, stack))
    msgs = [e for e in events if e["type"].startswith("msg.")]

    # Per envelope: the msg.* events it produced, in order, with reasons.
    by_envelope: dict[int, tuple[str, list]] = {}
    for event in msgs:
        _, story = by_envelope.setdefault(event["msg_id"], (event["msg_type"], []))
        story.append((event["type"], event.get("reason")))
    assert list(by_envelope.values()) == expected

    # Totals and by-type counters are what the trace says, at every layer.
    kinds = Counter((e["type"], e["msg_type"]) for e in msgs)
    for name, etype in (("sent", "msg.send"), ("delivered", "msg.deliver")):
        by_type = {t: n for (e, t), n in kinds.items() if e == etype}
        assert dict(getattr(transport, f"{name}_by_type")) == by_type
        assert getattr(transport, f"messages_{name}") == sum(by_type.values())
    assert transport.messages_dropped == sum(
        n for (e, _), n in kinds.items() if e == "msg.drop"
    )
    assert transport.messages_sent == (
        transport.messages_delivered + transport.messages_dropped
    )

    # What reached the endpoint: 1, the duplicated 8 twice, the batch unpacked.
    got = [p.ballot.num for p in b.received]
    assert got == {"bare": [1], "faulty": [1, 8, 8], "batching": [1, 8, 8, 9, 10]}[stack]

    # Trace ids on everything that has a flow to belong to; byte stamps on
    # everything the core sent (injected drops and duplicates never reach
    # the wire), each agreeing with the flow plane's own totals.
    sends = [e for e in msgs if e["type"] == "msg.send"]
    assert all(("trace_id" in e) == (e["msg_type"] != "BatchEnvelope") for e in msgs)
    stamped = [e for e in sends if "bytes" in e]
    assert len(stamped) == core.messages_sent
    assert len(sends) - len(stamped) == (0 if stack == "bare" else 2)
    assert all(e["frame_bytes"] == e["bytes"] + codec.FRAME_HEADER.size for e in stamped)
    assert core.flow.total_frames == len(stamped)
    assert core.flow.total_payload_bytes == sum(e["bytes"] for e in stamped)
    assert core.flow.total_frame_bytes == sum(e["frame_bytes"] for e in stamped)

    # The partition controller speaks on the same bus as the drops it causes.
    faults = [e["type"] for e in events if e["type"].startswith("fault.")]
    assert faults == ["fault.partition", "fault.heal"] * 2

    if faulty is not None:
        assert dict(faulty.injected) == {"nemesis-drop": 1, "duplicate": 1}
    if stack == "batching":
        assert transport.stats() == {
            "logical_sent": 10,
            "batches_sent": 1,
            "batched_payloads": 2,
            "passthrough_sent": 8,
            "batches_delivered": 1,
        }

    assert validate_events(events) == []
    violations = [
        v for v in audit_events(events).violations
        # An envelope carries many flows, so it has no one trace id.
        if not (v.invariant == "untraced-message" and "BatchEnvelope" in v.detail)
    ]
    assert violations == []


# -- structure: one of each --------------------------------------------------

SRC = Path(repro.__file__).parent


def test_substrates_do_not_reimplement_the_core():
    owned = ("attach", "detach", "region_of", "endpoints", "broadcast", "_drop", "_deliver")
    for cls in (Network, LiveTransport, AsyncioTransport, TcpTransport):
        assert issubclass(cls, TransportCore)
        assert not [name for name in owned if name in vars(cls)], cls
    # Only the perf-timed wrapper of the live pair may stand in front of send.
    assert [cls for cls in (Network, AsyncioTransport, TcpTransport) if "send" in vars(cls)] == []


def test_decorators_do_not_redeclare_delegated_state():
    delegated = (
        "attach", "detach", "region_of", "endpoints", "latency", "broadcast",
        "partitions", "obs", "trace", "flow",
        "messages_sent", "messages_dropped", "messages_delivered",
        "sent_by_type", "delivered_by_type",
    )
    for cls in (FaultyTransport, BatchingTransport):
        assert issubclass(cls, TransportDecorator)
        assert not [name for name in delegated if name in vars(cls)], cls


def test_byte_accounting_has_one_call_site():
    calls = {
        str(path.relative_to(SRC)): path.read_text().count("flow.record_send(")
        for path in SRC.rglob("*.py")
        if path != SRC / "obs" / "flow.py"
    }
    assert {path: n for path, n in calls.items() if n} == {"net/transport.py": 1}
    assert not (SRC / "net" / "faults.py").exists()
