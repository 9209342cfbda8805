"""Wire codec for protocol messages: dataclasses <-> length-prefixed bytes.

The sim transport passes payload objects by reference, so nothing in the
discrete-event path ever serializes.  The live TCP transport cannot: a
:class:`~repro.net.message.Message` must survive a real socket.  This
module keeps an explicit **registry** of every wire dataclass (and enum)
and encodes them as JSON with type tags, recursively, preserving tuples
and nested dataclasses so a decoded value compares equal to the original.

Registration is deliberately explicit, not reflective: adding a new
protocol message without registering it here is an error the moment it
crosses a socket, and ``tests/test_codec.py`` fails fast at test time by
scanning the message modules for unregistered dataclasses.

Frame format used by the TCP transport: a 4-byte big-endian length
followed by that many bytes of the JSON document.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from time import perf_counter
from typing import Any, Callable

#: Frame header: payload byte length, unsigned 32-bit big-endian.
FRAME_HEADER = struct.Struct(">I")

#: Hard cap on a single frame (16 MiB) — a corrupt length prefix must
#: not make the reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """Raised for unregistered types and malformed wire data."""


_DATACLASSES: dict[str, type] = {}
_ENUMS: dict[str, type] = {}
_bootstrapped = False

#: Optional :class:`repro.obs.perf.PerfRecorder`.  When ``None`` (the
#: default) ``encode``/``decode`` pay a single ``is None`` test; when a
#: harness installs one, every call is timed under its message type.
_PERF = None


def set_perf_recorder(recorder) -> None:
    """Install (or with ``None``, remove) the codec timing recorder.

    Module-level because the codec is a module-level registry: the live
    transports call :func:`encode`/:func:`decode` directly, so there is
    no per-connection object to hang a recorder on.
    """
    global _PERF
    _PERF = recorder


def _wire_label(obj: Any) -> str:
    """Histogram key for one encode/decode: the innermost message type."""
    kind = getattr(obj, "kind", None)
    return kind if isinstance(kind, str) else type(obj).__name__


def register(cls: type) -> type:
    """Register a wire dataclass or enum under its class name."""
    name = cls.__name__
    table = _ENUMS if issubclass(cls, enum.Enum) else _DATACLASSES
    if not issubclass(cls, enum.Enum) and not is_dataclass(cls):
        raise CodecError(f"{name} is neither a dataclass nor an Enum")
    existing = table.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"codec name collision on {name!r}")
    table[name] = cls
    return cls


def registered_dataclasses() -> dict[str, type]:
    _ensure_bootstrap()
    return dict(_DATACLASSES)


def registered_enums() -> dict[str, type]:
    _ensure_bootstrap()
    return dict(_ENUMS)


def _ensure_bootstrap() -> None:
    """Register every built-in wire type.

    Imports happen lazily so :mod:`repro.net.codec` can be imported from
    low layers without dragging in core/baselines at module load.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    _bootstrapped = True

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
    from repro.net.message import Message
    from repro.net.regions import Region
    from repro.scale.batching import BatchEnvelope, BatchItem, EntityScoped
    from repro.storage.wal import LogEntry

    for cls in (
        # envelope
        Message,
        # client-facing transactions
        ClientRequest,
        ClientResponse,
        # Samya / Avantan (core.messages plus its value types)
        core_messages.ForwardedRequest,
        core_messages.SiteResponse,
        core_messages.ElectionGetValue,
        core_messages.ElectionOkValue,
        core_messages.ElectionReject,
        core_messages.AcceptValueMsg,
        core_messages.AcceptOk,
        core_messages.DecisionMsg,
        core_messages.DiscardRedistribution,
        core_messages.AbortRedistribution,
        core_messages.RecoveryQuery,
        core_messages.RecoveryReply,
        core_messages.TokenInfoRequest,
        core_messages.TokenInfoReply,
        Ballot,
        AcceptValue,
        SiteTokenState,
        # replicated-log baselines
        paxos_messages.Prepare,
        paxos_messages.Promise,
        paxos_messages.Accept,
        paxos_messages.Accepted,
        paxos_messages.AcceptNack,
        paxos_messages.Backfill,
        paxos_messages.Heartbeat,
        raft_messages.RequestVote,
        raft_messages.RequestVoteReply,
        raft_messages.AppendEntries,
        raft_messages.AppendEntriesReply,
        LogEntry,
        TokenCommand,
        # demarcation/escrow baseline
        BorrowRequest,
        BorrowGrant,
        # scale subsystem: batched envelopes and entity-scoped dispatch
        EntityScoped,
        BatchItem,
        BatchEnvelope,
        # enums reached through the above
        RequestKind,
        RequestStatus,
        Region,
    ):
        register(cls)


# -- object -> JSON text: one cached writer per concrete type ---------------
#
# The bytes are those ``json.dumps`` (compact separators) printed for the
# type-tagged tree the codec used to build, kept as the reference in
# ``tests/test_codec.py``.  Set elements now sort by encoded text, not by
# ``repr`` of a tree node; no registered wire type has a set field.


def _float_text(value: float) -> str:
    if isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


#: Exact type -> JSON text writer; primitives seeded, others built on first use.
_WRITERS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _text(obj: Any) -> str:
    writer = _WRITERS.get(type(obj))
    if writer is None:
        # Cached only once built: a refused type may be registered later.
        writer = _WRITERS[type(obj)] = _build_writer(type(obj))
    return writer(obj)


def _build_writer(cls: type) -> Callable[[Any], str]:
    # Enums first: str/int-mixin enums (RequestStatus, Region, ...) are
    # also primitive subclasses and must not fall through untagged.
    if issubclass(cls, enum.Enum):
        _ensure_bootstrap()
        if _ENUMS.get(cls.__name__) is not cls:
            raise CodecError(f"enum {cls.__name__} is not registered with the codec")
        head = '{"__enum__":' + encode_basestring_ascii(cls.__name__) + ',"v":'
        return lambda member: head + _text(member.value) + "}"
    for primitive in (str, int, float):
        if issubclass(cls, primitive):
            return _WRITERS[primitive]
    if is_dataclass(cls):
        _ensure_bootstrap()
        if _DATACLASSES.get(cls.__name__) is not cls:
            raise CodecError(
                f"{cls.__name__} is not registered with the codec — add it to "
                f"repro.net.codec's registry before sending it on a socket"
            )
        return _dataclass_writer(cls)
    if issubclass(cls, tuple):
        return lambda items: '{"__tuple__":[' + ",".join(map(_text, items)) + "]}"
    if issubclass(cls, list):
        return lambda items: "[" + ",".join(map(_text, items)) + "]"
    if issubclass(cls, (set, frozenset)):
        # Deterministic wire order so identical values encode identically.
        return lambda items: '{"__set__":[' + ",".join(sorted(map(_text, items))) + "]}"
    if issubclass(cls, dict):
        return lambda mapping: '{"__map__":[' + ",".join(
            [f"[{_text(k)},{_text(v)}]" for k, v in mapping.items()]) + "]}"
    raise CodecError(f"cannot encode {cls.__name__} for the wire")


def _dataclass_writer(cls: type) -> Callable[[Any], str]:
    """``{"__dc__":"Name","f":{...}}`` with the tag and every key spelled once."""
    head = '{"__dc__":' + encode_basestring_ascii(cls.__name__) + ',"f":{'
    pairs = [(("," if i else "") + encode_basestring_ascii(f.name) + ":", f.name)
             for i, f in enumerate(fields(cls))]
    return lambda obj: head + "".join(
        [key + _text(getattr(obj, name)) for key, name in pairs]) + "}}"


def _from_wire(node: Any) -> Any:
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [_from_wire(item) for item in node]
    if isinstance(node, dict):
        if "__dc__" in node:
            _ensure_bootstrap()
            cls = _DATACLASSES.get(node["__dc__"])
            if cls is None:
                raise CodecError(f"unknown wire dataclass {node['__dc__']!r}")
            kwargs = {key: _from_wire(value) for key, value in node["f"].items()}
            return cls(**kwargs)
        if "__enum__" in node:
            _ensure_bootstrap()
            cls = _ENUMS.get(node["__enum__"])
            if cls is None:
                raise CodecError(f"unknown wire enum {node['__enum__']!r}")
            return cls(node["v"])
        if "__tuple__" in node:
            return tuple(_from_wire(item) for item in node["__tuple__"])
        if "__set__" in node:
            return frozenset(_from_wire(item) for item in node["__set__"])
        if "__map__" in node:
            return {_from_wire(k): _from_wire(v) for k, v in node["__map__"]}
        raise CodecError(f"malformed wire node: {sorted(node)}")
    raise CodecError(f"cannot decode wire node of type {type(node).__name__}")


# -- public surface ---------------------------------------------------------


def encode(obj: Any) -> bytes:
    """Serialize any registered wire object to JSON bytes."""
    if _PERF is None:
        return _text(obj).encode("ascii")
    start = perf_counter()
    body = _text(obj).encode("ascii")
    _PERF.observe("codec.encode", _wire_label(obj), perf_counter() - start)
    return body


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    start = perf_counter() if _PERF is not None else 0.0
    try:
        node = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed wire bytes: {exc}") from exc
    try:
        obj = _from_wire(node)
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        # Well-formed JSON of the wrong shape (CodecError is a ValueError).
        raise CodecError(f"malformed wire data: {exc}") from exc
    if _PERF is not None:
        _PERF.observe("codec.decode", _wire_label(obj), perf_counter() - start)
    return obj


def encode_frame(obj: Any) -> bytes:
    """``encode`` plus the 4-byte length prefix the TCP transport uses."""
    body = encode(obj)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return FRAME_HEADER.pack(len(body)) + body


def decode_frame_length(header: bytes) -> int:
    """Validated payload length from a 4-byte frame header."""
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length
