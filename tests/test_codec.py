"""Wire-codec round-trips (PR satellite: exactly-once over real sockets).

Two guarantees, each load-bearing for the TCP transport:

1. Every registered protocol dataclass survives encode -> decode with
   equality preserved, including nested dataclasses, tuples, and
   str-mixin enums (which must come back as enum *members*, not their
   value strings — identity comparisons like ``status is GRANTED`` run
   all over the metrics and client paths).
2. Exhaustiveness: a dataclass added to any protocol message module
   without a codec registration fails here, at test time, instead of at
   the first live run that tries to put it on a socket.

The bytes themselves are pinned twice more: the per-type writers must
print what ``json.dumps`` of the old tagged tree printed (the tree
builder is kept below as the reference), and every registered type's
framed size is a golden.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.demarcation import BorrowGrant, BorrowRequest
from repro.baselines.paxos import messages as paxos_messages
from repro.baselines.raft import messages as raft_messages
from repro.baselines.statemachine import TokenCommand
from repro.core import messages as core_messages
from repro.core.avantan.state import AcceptValue, Ballot
from repro.core.entity import SiteTokenState
from repro.core.requests import (
    ClientRequest,
    ClientResponse,
    RequestKind,
    RequestStatus,
)
from repro.net import codec
from repro.net.message import Message
from repro.net.regions import Region
from repro.scale import batching as scale_batching
from repro.scale.batching import BatchEnvelope, BatchItem, EntityScoped
from repro.storage.wal import LogEntry

BALLOT = Ballot(3, "site-us-west1")
OTHER_BALLOT = Ballot(2, "site-asia-east2")
STATE = SiteTokenState("site-us-west1", "VM", tokens_left=10, tokens_wanted=4)
OTHER_STATE = SiteTokenState("site-asia-east2", "VM", tokens_left=7, tokens_wanted=0)
ACCEPT_VALUE = AcceptValue(BALLOT, "VM", (STATE, OTHER_STATE))
COMMAND = TokenCommand(9, RequestKind.ACQUIRE, "VM", 3)
ENTRY = LogEntry(index=1, term=2, command=COMMAND)
REQUEST = ClientRequest(
    kind=RequestKind.ACQUIRE,
    entity_id="VM",
    amount=2,
    client="client-us-west1-0",
    region="us-west1",
    request_id=41,
    issued_at=1.5,
)
RESPONSE = ClientResponse(41, RequestStatus.GRANTED, value=7, served_by="site-us-west1")

#: One representative instance per registered wire dataclass, nested
#: fields populated (not None) wherever the protocol ever populates them.
SAMPLES: dict[str, object] = {
    "Message": Message(
        src="site-us-west1",
        dst="am-us-west1",
        payload=core_messages.SiteResponse(RESPONSE),
        sent_at=0.25,
        delivered_at=0.31,
        metadata={"hop": 1},
        msg_id=77,
    ),
    "ClientRequest": REQUEST,
    "ClientResponse": RESPONSE,
    "ForwardedRequest": core_messages.ForwardedRequest(REQUEST, reply_to="am-us-west1"),
    "SiteResponse": core_messages.SiteResponse(RESPONSE),
    "ElectionGetValue": core_messages.ElectionGetValue(BALLOT, "VM"),
    "ElectionOkValue": core_messages.ElectionOkValue(
        ballot=BALLOT,
        init_val=STATE,
        accept_val=ACCEPT_VALUE,
        accept_num=OTHER_BALLOT,
        decision=True,
        applied_ids=(OTHER_BALLOT,),
        recently_applied=(ACCEPT_VALUE,),
    ),
    "ElectionReject": core_messages.ElectionReject(BALLOT, "VM"),
    "AcceptValueMsg": core_messages.AcceptValueMsg(BALLOT, ACCEPT_VALUE, decision=False),
    "AcceptOk": core_messages.AcceptOk(BALLOT),
    "DecisionMsg": core_messages.DecisionMsg(BALLOT, ACCEPT_VALUE),
    "DiscardRedistribution": core_messages.DiscardRedistribution(BALLOT),
    "AbortRedistribution": core_messages.AbortRedistribution(BALLOT),
    "RecoveryQuery": core_messages.RecoveryQuery(BALLOT, value_id=OTHER_BALLOT),
    "RecoveryReply": core_messages.RecoveryReply(
        BALLOT, value_id=OTHER_BALLOT, accept_val=ACCEPT_VALUE, decision=True, applied=False
    ),
    "TokenInfoRequest": core_messages.TokenInfoRequest("VM", read_id=5),
    "TokenInfoReply": core_messages.TokenInfoReply("VM", read_id=5, tokens_left=12),
    "Ballot": BALLOT,
    "AcceptValue": ACCEPT_VALUE,
    "SiteTokenState": STATE,
    "Prepare": paxos_messages.Prepare(BALLOT, commit_index=4),
    "Promise": paxos_messages.Promise(BALLOT, entries=(ENTRY,), commit_index=4),
    "Accept": paxos_messages.Accept(BALLOT, entry=ENTRY, commit_index=4),
    "Accepted": paxos_messages.Accepted(BALLOT, index=1),
    "AcceptNack": paxos_messages.AcceptNack(BALLOT, expected_index=2),
    "Backfill": paxos_messages.Backfill(BALLOT, entries=(ENTRY,), commit_index=4),
    "Heartbeat": paxos_messages.Heartbeat(BALLOT, commit_index=4),
    "RequestVote": raft_messages.RequestVote(
        term=3, candidate="replica-1", last_log_index=8, last_log_term=2
    ),
    "RequestVoteReply": raft_messages.RequestVoteReply(term=3, granted=True),
    "AppendEntries": raft_messages.AppendEntries(
        term=3,
        leader="replica-1",
        prev_log_index=7,
        prev_log_term=2,
        entries=(ENTRY,),
        leader_commit=6,
    ),
    "AppendEntriesReply": raft_messages.AppendEntriesReply(
        term=3, success=False, match_index=7
    ),
    "LogEntry": ENTRY,
    "TokenCommand": COMMAND,
    "BorrowRequest": BorrowRequest("VM", amount=6, borrow_id=2),
    "BorrowGrant": BorrowGrant("VM", amount=6, borrow_id=2),
    "EntityScoped": EntityScoped("VM", core_messages.AcceptOk(BALLOT)),
    "BatchItem": BatchItem(101, EntityScoped("VM", core_messages.AcceptOk(BALLOT))),
    "BatchEnvelope": BatchEnvelope(
        (
            BatchItem(101, EntityScoped("VM", core_messages.AcceptOk(BALLOT))),
            BatchItem(
                102,
                EntityScoped("disk-gb", core_messages.DecisionMsg(BALLOT, ACCEPT_VALUE)),
            ),
        )
    ),
}

#: Every module that defines protocol dataclasses crossing the network.
MESSAGE_MODULES = (core_messages, paxos_messages, raft_messages, scale_batching)


@pytest.mark.parametrize("name", sorted(codec.registered_dataclasses()))
def test_round_trip(name):
    sample = SAMPLES.get(name)
    assert sample is not None, (
        f"{name} is registered with the codec but has no round-trip sample; "
        f"add one to SAMPLES"
    )
    decoded = codec.decode(codec.encode(sample))
    assert decoded == sample
    assert type(decoded) is type(sample)


def test_every_sample_is_registered():
    assert set(SAMPLES) == set(codec.registered_dataclasses())


@pytest.mark.parametrize("name", sorted(codec.registered_enums()))
def test_enum_members_round_trip_to_singletons(name):
    cls = codec.registered_enums()[name]
    for member in cls:
        assert codec.decode(codec.encode(member)) is member


def test_str_mixin_enum_is_tagged_not_flattened():
    # Regression: RequestStatus mixes in str, so a naive primitive check
    # would encode it as its value string and break `is` comparisons.
    decoded = codec.decode(codec.encode(RequestStatus.GRANTED))
    assert decoded is RequestStatus.GRANTED
    assert isinstance(decoded, RequestStatus)


def test_message_module_registration_is_exhaustive():
    registered = set(codec.registered_dataclasses().values())
    missing = [
        f"{module.__name__}.{name}"
        for module in MESSAGE_MODULES
        for name, obj in vars(module).items()
        if dataclasses.is_dataclass(obj)
        and isinstance(obj, type)
        and not issubclass(obj, enum.Enum)
        and obj.__module__ == module.__name__
        and obj not in registered
    ]
    assert not missing, (
        f"protocol dataclasses without a codec registration: {missing}; "
        f"register them in repro.net.codec._ensure_bootstrap and add a "
        f"SAMPLES entry here"
    )


def test_frame_round_trip():
    frame = codec.encode_frame(SAMPLES["Message"])
    length = codec.decode_frame_length(frame[: codec.FRAME_HEADER.size])
    body = frame[codec.FRAME_HEADER.size :]
    assert len(body) == length
    assert codec.decode(body) == SAMPLES["Message"]


def test_corrupt_frame_length_is_rejected():
    header = codec.FRAME_HEADER.pack(codec.MAX_FRAME_BYTES + 1)
    with pytest.raises(codec.CodecError):
        codec.decode_frame_length(header)


def test_malformed_bytes_are_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode(b"\xff\xfe not json")
    with pytest.raises(codec.CodecError):
        codec.decode(b'{"__dc__": "NoSuchMessage", "f": {}}')


def test_unregistered_dataclass_is_rejected_at_encode():
    @dataclasses.dataclass
    class NotOnTheWire:
        x: int = 1

    with pytest.raises(codec.CodecError):
        codec.encode(NotOnTheWire())


@pytest.mark.parametrize(
    "body",
    [
        b'{"__dc__":"Ballot","f":{"bogus":1}}',
        b'{"__enum__":"RequestStatus","v":"nope"}',
        b'{"__dc__":"Ballot"}',
        b'{"__dc__":"Ballot","f":[1]}',
        b'{"__map__":[[1]]}',
        b'{"__map__":[[[1],2]]}',
        b'{"__tuple__":5}',
    ],
)
def test_well_formed_json_of_the_wrong_shape_is_a_codec_error(body):
    # The TCP reader records whatever decode raises; a bad frame must
    # surface as a CodecError, not as a TypeError from deep inside.
    with pytest.raises(codec.CodecError):
        codec.decode(body)


# -- the writer is the old encoder, byte for byte ----------------------------


def reference_tree(obj):
    """The tagged tree the codec built before it wrote text directly.

    ``json.dumps(reference_tree(v), separators=(",", ":"))`` is what the
    codec encoded; the per-type writers must print exactly that.
    """
    if isinstance(obj, enum.Enum):
        name = type(obj).__name__
        assert codec.registered_enums().get(name) is type(obj)
        return {"__enum__": name, "v": obj.value}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        assert codec.registered_dataclasses().get(name) is type(obj)
        return {
            "__dc__": name,
            "f": {
                f.name: reference_tree(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, tuple):
        return {"__tuple__": [reference_tree(item) for item in obj]}
    if isinstance(obj, list):
        return [reference_tree(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted((reference_tree(item) for item in obj), key=repr)}
    if isinstance(obj, dict):
        return {"__map__": [[reference_tree(k), reference_tree(v)] for k, v in obj.items()]}
    raise TypeError(type(obj).__name__)


def reference_encode(obj) -> bytes:
    return json.dumps(reference_tree(obj), separators=(",", ":")).encode()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_writer_bytes_equal_the_reference_on_every_sample(name):
    assert codec.encode(SAMPLES[name]) == reference_encode(SAMPLES[name])


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from([*RequestKind, *RequestStatus, *Region])
    | st.builds(Ballot, st.integers(), st.text())
)

_VALUES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.integers() | st.text(), children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_writer_bytes_equal_the_reference_on_generated_values(value):
    assert codec.encode(value) == reference_encode(value)


def test_unregistered_types_are_refused_every_time():
    @dataclasses.dataclass
    class NotOnTheWire:
        x: int = 1

    class NotAnEnumOnTheWire(enum.Enum):
        A = "a"

    for value in (NotOnTheWire(), NotAnEnumOnTheWire.A):
        for _ in range(2):
            with pytest.raises(codec.CodecError, match="not registered"):
                codec.encode(value)


def test_a_refused_type_encodes_once_registered(monkeypatch):
    # A failed writer build is not cached: registering the type later
    # makes it encodable.  Private tables are swapped for copies so the
    # registration does not leak into the other tests' registry.
    codec.registered_dataclasses()  # bootstrap into the real tables first
    monkeypatch.setattr(codec, "_DATACLASSES", dict(codec._DATACLASSES))
    monkeypatch.setattr(codec, "_WRITERS", dict(codec._WRITERS))

    @dataclasses.dataclass
    class LateMessage:
        ballot: Ballot
        note: str = "é"

    with pytest.raises(codec.CodecError):
        codec.encode(LateMessage(BALLOT))
    codec.register(LateMessage)
    assert codec.decode(codec.encode(LateMessage(BALLOT))) == LateMessage(BALLOT)


def test_one_writer_table_and_no_tree_encoder():
    source = Path(codec.__file__).read_text()
    assert source.count("def _to_wire") == 0
    assert source.count("json.dumps(") == 0
    assert source.count("_WRITERS: dict") == 1


# -- encoded-size goldens (flow-plane satellite) -----------------------------
#
# The flow plane's byte accounting is only as trustworthy as the codec's
# framing is stable, so the framed size of every registered wire type is
# pinned exactly on the fixed SAMPLES instances.  A failure here means
# the wire format changed: every committed byte budget (the bench flow
# headline, the baselines under benchmarks/baselines/) moved with it,
# deliberately or not.  Update the goldens and regenerate the baselines
# together.

GOLDEN_FRAME_BYTES: dict[str, int] = {
    "AbortRedistribution": 111,
    "Accept": 303,
    "AcceptNack": 121,
    "AcceptOk": 100,
    "AcceptValue": 372,
    "AcceptValueMsg": 505,
    "Accepted": 110,
    "AppendEntries": 327,
    "AppendEntriesReply": 82,
    "Backfill": 323,
    "Ballot": 63,
    "BatchEnvelope": 866,
    "BatchItem": 211,
    "BorrowGrant": 76,
    "BorrowRequest": 78,
    "ClientRequest": 193,
    "ClientResponse": 143,
    "DecisionMsg": 485,
    "DiscardRedistribution": 113,
    "ElectionGetValue": 125,
    "ElectionOkValue": 1199,
    "ElectionReject": 123,
    "EntityScoped": 159,
    "ForwardedRequest": 264,
    "Heartbeat": 118,
    "LogEntry": 183,
    "Message": 363,
    "Prepare": 116,
    "Promise": 322,
    "RecoveryQuery": 178,
    "RecoveryReply": 592,
    "RequestVote": 104,
    "RequestVoteReply": 63,
    "SiteResponse": 186,
    "SiteTokenState": 115,
    "TokenCommand": 126,
    "TokenInfoReply": 83,
    "TokenInfoRequest": 68,
}

GOLDEN_ENUM_FRAME_BYTES: dict[str, dict[str, int]] = {
    "Region": {
        "US_WEST1": 40, "US_CENTRAL1": 43, "US_EAST1": 40,
        "EUROPE_WEST2": 44, "ASIA_EAST2": 42,
        "AUSTRALIA_SOUTHEAST1": 52, "SOUTHAMERICA_EAST1": 50,
    },
    "RequestKind": {"ACQUIRE": 44, "RELEASE": 44, "READ": 41},
    "RequestStatus": {"GRANTED": 46, "REJECTED": 47, "FAILED": 45},
}


def test_flow_header_constant_mirrors_codec():
    # repro.obs.flow hardcodes the framing overhead so the observation
    # layer never imports the codec; the two must agree.
    from repro.obs.flow import WIRE_HEADER_BYTES

    assert WIRE_HEADER_BYTES == codec.FRAME_HEADER.size


def test_every_registered_type_has_a_size_golden():
    assert set(GOLDEN_FRAME_BYTES) == set(codec.registered_dataclasses())
    assert set(GOLDEN_ENUM_FRAME_BYTES) == set(codec.registered_enums())
    for name, cls in codec.registered_enums().items():
        assert set(GOLDEN_ENUM_FRAME_BYTES[name]) == {m.name for m in cls}


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAME_BYTES))
def test_encoded_frame_size_golden(name):
    frame = codec.encode_frame(SAMPLES[name])
    assert len(frame) == GOLDEN_FRAME_BYTES[name], (
        f"{name} now frames to {len(frame)} bytes (golden "
        f"{GOLDEN_FRAME_BYTES[name]}); the wire format changed — update "
        f"the golden and regenerate the bench baselines"
    )
    assert len(frame) == codec.FRAME_HEADER.size + len(codec.encode(SAMPLES[name]))


@pytest.mark.parametrize("name", sorted(GOLDEN_ENUM_FRAME_BYTES))
def test_encoded_enum_frame_size_golden(name):
    cls = codec.registered_enums()[name]
    sizes = {member.name: len(codec.encode_frame(member)) for member in cls}
    assert sizes == GOLDEN_ENUM_FRAME_BYTES[name]
