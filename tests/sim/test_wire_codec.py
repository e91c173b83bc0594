"""Tests of the compact cross-shard wire codec (`repro.sim.network`).

The codec's contract: ``decode_wire(encode_wire(x)) == x`` for every payload
the barrier plane ships — dataclasses in positional tuple form, the
``RingSegment`` two-column form of its own ``__reduce__``, and every other
object via pickle's default path — with the decoded graph sharing exactly
the objects the sender's shares (equal but distinct instances stay distinct)
and the ``SKIP`` sentinel keeping its identity.  Nothing registers: the
dataclass declaration is the layout.

The shipped codec compiles one reducer and one builder per class; the
one-hook-per-object codec it replaced lives on in ``tests/reference/wire.py``
and every frame must equal that one's byte for byte, on generated payloads and
on every frame real worker processes ship.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.parallel import run_fig6_sharded, run_fig7_sharded
from repro.core.client import Command
from repro.multiring.merge import RingSegment
from repro.net.message import ClientRequest, Message
from repro.paxos.messages import SKIP, Decision, ProposalValue, RetransmitReply
from repro.ringpaxos.coordinator import PackedValues
from repro.sim import network, parallel
from repro.sim.network import decode_wire, encode_wire
from tests import golden
from tests.conftest import mutate
from tests.reference.wire import plain_pickle, reference_decode, reference_encode, sharing


# ---------------------------------------------------------------------------
# Hypothesis strategies building the nested payload shapes barrier traffic
# actually carries: Command leaves wrapped in ProposalValue / PackedValues,
# rides inside RingSegments and the per-shard dicts of barrier replies.
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdefgh0123", max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_ints = st.integers(min_value=0, max_value=2**31)


def _commands():
    return st.builds(
        Command,
        op=st.sampled_from(["append", "update", "scan", "read"]),
        args=st.tuples(_ints),
        group_id=st.integers(min_value=0, max_value=7),
        size_bytes=_ints,
        client=_names,
        command_id=_ints,
        created_at=_floats,
        response_size=_ints,
    )


def _skip_values():
    return st.builds(
        ProposalValue,
        payload=st.just(SKIP),
        size_bytes=st.just(0),
        proposer=st.just(""),
        proposal_id=st.just(0),
        created_at=st.just(0.0),
    )


def _value_payloads():
    packed = st.builds(
        PackedValues,
        values=st.lists(
            st.builds(
                ProposalValue,
                payload=_commands(),
                size_bytes=_ints,
                proposer=_names,
                proposal_id=_ints,
                created_at=_floats,
            ),
            max_size=3,
        ),
    )
    return st.one_of(st.just(SKIP), _commands(), packed)


def _proposal_values():
    return st.builds(
        ProposalValue,
        payload=_value_payloads(),
        size_bytes=_ints,
        proposer=_names,
        proposal_id=_ints,
        created_at=_floats,
    )


def _segments():
    # Mix consecutive and arbitrary instance numbering, skip bursts included.
    entries = st.lists(st.tuples(_ints, st.one_of(_proposal_values(), _skip_values())))
    return st.builds(
        RingSegment,
        start=_ints,
        entries=entries,
    )


def _remote_messages():
    message = st.one_of(
        _proposal_values(),
        st.builds(ClientRequest, client=_names),
        st.builds(RetransmitReply, ring_id=_ints,
                  decided=st.lists(st.tuples(_ints, _proposal_values()), max_size=3)),
        st.builds(Decision, ring_id=_ints, instance=_ints, value=_proposal_values()),
    )
    return st.tuples(_floats, _names, _names, message)


_payloads = st.one_of(
    _segments(),
    st.lists(_remote_messages(), max_size=4),
    st.dictionaries(st.integers(0, 7), st.lists(_remote_messages(), max_size=3), max_size=3),
)


def _assert_matches_reference(payload, graph=True):
    """Same bytes as the reference encoder, same graph as the reference decoder."""
    frame = encode_wire(payload)
    assert frame == reference_encode(payload)
    if graph:
        decoded = decode_wire(frame)
        assert decoded == reference_decode(frame) == payload
        assert sharing(decoded) == sharing(payload)


@settings(max_examples=150, deadline=None)
@given(_payloads)
def test_roundtrip_equals_original(payload):
    _assert_matches_reference(payload)


def test_equal_instances_and_skip_runs_equal_the_reference_codec():
    skips = [(i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(40)]
    command = Command(op="append", args=(1,), command_id=7)
    busy = [(40 + i, ProposalValue(command, 64, "p", i // 2, 0.5)) for i in range(6)]
    _assert_matches_reference({0: RingSegment(5, skips + busy + skips[:2])})
    _assert_matches_reference([ProposalValue(Command(op="read", command_id=1), 8, "p", 1, 0.0)
                               for _ in range(5)])


@settings(max_examples=60, deadline=None)
@given(_segments())
def test_segment_wire_form_roundtrip(segment):
    decoded = decode_wire(encode_wire(segment))
    assert decoded == segment
    # Distinct entries stay distinct objects, safe for consumers that mutate
    # delivered values in place.
    assert sharing(decoded) == sharing(segment)


def test_a_shared_skip_value_decodes_shared_and_distinct_values_stay_distinct():
    skip = ProposalValue(SKIP, 0, "", 0, 0.0)
    entries = [(i, skip) for i in range(10)]
    entries += [(10 + i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(3)]
    segment = RingSegment(4, entries)
    decoded = decode_wire(encode_wire(segment))
    assert decoded == segment
    values = [value for _, value in decoded.entries]
    assert len({id(value) for value in values[:10]}) == 1
    assert len({id(value) for value in values}) == 4
    assert sharing(decoded) == sharing(segment)


def test_skip_identity_survives_the_wire():
    segment = RingSegment(
        entries=[(i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(8)]
    )
    decoded = decode_wire(encode_wire(segment))
    assert all(value.payload is SKIP for _, value in decoded.entries)
    assert all(value.is_skip() for _, value in decoded.entries)


def test_identical_objects_stay_interned():
    shared = ProposalValue(Command(op="append", args=(1,)), 64, "p", 9, 1.5)
    wire = encode_wire([shared] * 100)
    assert len(wire) < len(encode_wire([shared])) + 400  # memo back-references


def test_a_consecutive_instance_column_ships_as_one_int():
    dense = RingSegment(
        entries=[(i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(7, 1007)]
    )
    _, instances, values = dense.__reduce__()[1]
    assert instances == 7 and len(values) == 1000
    # Beyond its values, the segment costs its builder's name and two ints.
    assert len(encode_wire(dense)) < len(encode_wire([value for _, value in dense.entries])) + 64
    # Non-consecutive numbering ships the whole column and round-trips exactly.
    sparse = RingSegment(
        entries=[(i * 3 + 1, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(10)]
    )
    assert sparse.__reduce__()[1][1] == tuple(range(1, 30, 3))
    assert decode_wire(encode_wire(sparse)) == sparse


def test_non_dataclass_payloads_pass_through():
    payload = {"arbitrary": [1, 2.5, ("nested", None)], "set": frozenset({1, 2})}
    assert decode_wire(encode_wire(payload)) == payload


def _protocol_messages():
    """Every ``Message`` subclass ``repro`` declares a dataclass, ``Message`` included."""
    found, pending = [], [Message]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and "__dataclass_fields__" in vars(cls):
            found.append(cls)
    return found


def test_protocol_classes_ship_positionally_with_their_sizes():
    messages = _protocol_messages()
    assert {Message, ClientRequest, Decision, RetransmitReply} <= set(messages)
    value = ProposalValue(Command(op="append", args=(1,), command_id=3), 96, "p", 4, 0.5)
    samples = [cls(payload_bytes=100) for cls in messages] + [
        value,
        Command(op="scan", args=(0, 9), size_bytes=80, command_id=5),
        # PackedValues is sized by the ProposalValue carrying it.
        ProposalValue(PackedValues(values=[value, value]), 2 * 96, "coord", 0),
    ]
    for sample in samples:
        frame = encode_wire(sample)
        assert b"_wire_build" in frame, type(sample).__name__
        decoded = decode_wire(frame)
        assert type(decoded) is type(sample) and decoded == sample
        # ``size_bytes`` is a cached field (or a property over fields), so it
        # survives a rebuild that never runs ``__post_init__``.
        assert decoded.size_bytes == sample.size_bytes, type(sample).__name__


def test_cached_sizes_survive_positional_rebuild():
    decided = [(i, ProposalValue(Command(op="read", command_id=i), 64, "p", i)) for i in range(3)]
    reply = RetransmitReply(ring_id=1, decided=decided)
    decoded = decode_wire(encode_wire(reply))
    assert decoded.size_bytes == reply.size_bytes
    assert decoded.payload_bytes == reply.payload_bytes == 3 * 64


@dataclass
class _Point:
    x: int
    label: str = ""


class _LabelledPoint(_Point):
    """A plain subclass: its instance attributes are not dataclass fields."""

    def __init__(self, x, note):
        super().__init__(x)
        self.note = note


@dataclass
class _SelfReduced:
    x: int

    def __reduce__(self):
        return _SelfReduced, (self.x,)


def test_a_test_local_dataclass_ships_positionally_without_registration():
    payload = [_Point(1, "a"), _Point(1, "a"), _Point(2)]
    assert b"_wire_build" in encode_wire(payload)
    _assert_matches_reference(payload)


@dataclass
class _Counted:
    n: int


def test_a_dataclass_codec_is_compiled_once(monkeypatch):
    compiled, compile_codec = [], network._compile_wire_codec

    def counting(cls):
        compiled.append(cls)
        return compile_codec(cls)

    monkeypatch.setattr(network, "_WIRE_CODECS", network._WireCodecs())
    monkeypatch.setattr(network, "_WIRE_REDUCERS", network._WireReducers())
    monkeypatch.setattr(network, "_compile_wire_codec", counting)
    for _ in range(3):
        frame = encode_wire([_Counted(1), _Counted(2)])
        assert decode_wire(frame) == [_Counted(1), _Counted(2)]
    assert compiled == [_Counted]


def test_a_plain_subclass_of_a_dataclass_keeps_its_attributes():
    point = _LabelledPoint(3, "kept")
    decoded = decode_wire(encode_wire(point))
    assert (decoded.x, decoded.note) == (3, "kept")
    assert encode_wire(point) == pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL)


def test_a_dataclass_with_its_own_reduce_keeps_it():
    # (An empty segment: the values of a full one would ship positionally.)
    for obj in (_SelfReduced(4), RingSegment(5)):
        frame = encode_wire(obj)
        assert frame == pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        assert decode_wire(frame) == obj


@dataclass(frozen=True)
class _Frozen:
    left: int
    right: str


def test_a_class_guarding_setattr_is_rebuilt_around_it():
    _assert_matches_reference([_Frozen(1, "a"), _Frozen(1, "a"), _Frozen(2, "b")])


# ---------------------------------------------------------------------------
# Frames of real worker processes: every frame a sharded run ships is checked
# inside the worker that encodes it (the workers fork from this process).
# ---------------------------------------------------------------------------


#: A frame must cost at most this share of its plain default-protocol pickle.
MAX_CODEC_SHARE = 0.70


def _run_with_checked_frames(monkeypatch, spool: Path, run):
    """``run()`` with every frame of the run held to the reference codec.

    Each process (the parent and its two workers) tallies, per frame it
    encodes, the frame's size and the size plain pickling would have shipped.
    """

    def checked(payload):
        # The handshake and the cell frames carry value-comparable objects
        # only (the refuse list is a bare dict); the closing "result" frame
        # ships identity-compared objects (metric registries).
        result_frame = isinstance(payload, tuple) and payload[0] == "result"
        _assert_matches_reference(payload, graph=not result_frame)
        frame = encode_wire(payload)
        with open(spool / str(os.getpid()), "a") as tally:
            tally.write(f"{len(frame)} {len(plain_pickle(payload))}\n")
        return frame

    monkeypatch.setattr(parallel, "encode_wire", checked)
    result = run()
    tallies = {
        p.name: [tuple(map(int, line.split())) for line in p.read_text().splitlines()]
        for p in spool.iterdir()
    }
    workers = [frames for pid, frames in tallies.items() if pid != str(os.getpid())]
    assert len(workers) == 2, "expected frames from two worker processes"
    assert sum(map(len, workers)) >= 2 * result.metrics["barrier_count"] > 2
    # The tallies are the run's whole IPC accounting, both directions.
    frames = [frame for process in tallies.values() for frame in process]
    codec = sum(size for size, _ in frames)
    plain = sum(size for _, size in frames)
    assert len(frames) == result.metrics["ipc_messages"]
    assert codec == result.metrics["ipc_bytes"]
    assert codec <= MAX_CODEC_SHARE * plain, (codec, plain)
    return result


def fig6_shared_point():
    return run_fig6_sharded(
        2, workers=2, clients_per_ring=8, warmup=0.2, duration=0.6, seed=42,
        configuration="shared")


def wire_counts(result) -> dict:
    """What the barrier plane shipped in one run, as ``exact.json`` pins it."""
    return {name: int(result.metrics[name])
            for name in ("barrier_count", "ipc_bytes", "ipc_messages")}


def test_fig6_shared_worker_frames_equal_the_reference_codec(monkeypatch, tmp_path):
    result = _run_with_checked_frames(monkeypatch, tmp_path, fig6_shared_point)
    assert wire_counts(result) == golden.load()["wire_fig6_shared"]


def test_fig7_shared_worker_frames_equal_the_reference_codec(monkeypatch, tmp_path):
    _run_with_checked_frames(monkeypatch, tmp_path, lambda: run_fig7_sharded(
        2, workers=2, warmup=0.3, duration=0.7, seed=42, configuration="shared"))


# ---------------------------------------------------------------------------
# Seeded mutants: the reference differential must catch a broken codec.
# ---------------------------------------------------------------------------

_SAMPLE = [ProposalValue(Command(op="append", args=(i % 2,), command_id=9), 64, "p", 3, 0.25)
           for i in range(4)]


def _recompiled(monkeypatch, *replacements):
    monkeypatch.setattr(
        network, "_compile_wire_codec", mutate(network._compile_wire_codec, *replacements)
    )
    monkeypatch.setattr(network, "_WIRE_CODECS", network._WireCodecs())
    monkeypatch.setattr(network, "_WIRE_REDUCERS", network._WireReducers())


def test_reference_differential_catches_a_builder_swapping_two_fields(monkeypatch):
    _assert_matches_reference(_SAMPLE)
    _recompiled(monkeypatch, ("{fields}= values", "{fields}= values[1], values[0], *values[2:]"))
    frame = encode_wire(_SAMPLE)
    assert frame == reference_encode(_SAMPLE)  # the encoder is intact
    assert decode_wire(frame) != reference_decode(frame)
    with pytest.raises(AssertionError):
        _assert_matches_reference(_SAMPLE)


def test_reference_differential_catches_an_encoder_reversing_the_fields(monkeypatch):
    _assert_matches_reference(_SAMPLE)
    _recompiled(monkeypatch, ("(cls, ({fields}))", "(cls, ({fields})[::-1])"))
    frame = encode_wire(_SAMPLE)
    assert frame != reference_encode(_SAMPLE)
    assert decode_wire(frame) != _SAMPLE
    with pytest.raises(AssertionError):
        _assert_matches_reference(_SAMPLE)
