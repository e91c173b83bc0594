"""The wire codec as it shipped until PR 23: one Python hook per object.

Encoding is a ``pickle.Pickler`` subclass whose ``reducer_override`` applies
the wire rule to every non-builtin object: a class declared a dataclass
itself, with no ``__reduce__`` of its own, ships its ``dataclasses.fields``
positionally; anything else takes pickle's default path.  Decoding rebuilds
a dataclass instance with a ``zip`` + ``object.__setattr__`` loop and a skip
run with one dataclass ``__init__`` per skip.
``repro.sim.network.encode_wire`` must produce the very same bytes, and
``pickle.loads`` of a frame the very same object graph, as this pair does.

The frames name their builders by import path, so the reference encoder
emits the shipped ``_wire_build`` / ``_segment_wire_build`` globals and the
reference decoder maps those two names back to the loops below.

:func:`plain_pickle` is the yardstick both codecs' compression is measured
against: generic pickling, with no segment compression.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle

from repro.multiring import merge
from repro.multiring.merge import RingSegment
from repro.paxos.messages import ProposalValue
from repro.sim import network

_SEGMENT_RUN_MIN = 3


def _positional_fields(cls):
    """The field names ``cls`` ships positionally, or ``None`` for pickle's default."""
    if "__dataclass_fields__" not in vars(cls) or cls.__reduce__ is not object.__reduce__:
        return None
    return [f.name for f in dataclasses.fields(cls)]


def _segment_reduce(segment):
    entries = segment.entries
    count = len(entries)
    instances = 0
    if count:
        first = entries[0][0]
        if all(inst == first + idx for idx, (inst, _) in enumerate(entries)):
            instances = first
        else:
            instances = tuple(inst for inst, _ in entries)
    packed = []
    idx = 0
    while idx < count:
        value = entries[idx][1]
        end = idx + 1
        if value.is_skip():
            while end < count and entries[end][1] == value:
                end += 1
        if end - idx >= _SEGMENT_RUN_MIN:
            packed.append((end - idx, value))
        else:
            packed.extend(entry[1] for entry in entries[idx:end])
        idx = end
    return merge._segment_wire_build, (segment.start, instances, count, tuple(packed))


class ReferencePickler(pickle.Pickler):
    """Dataclasses to ``(_wire_build, (cls, values))``, equal ones interned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._interned = {}

    def reducer_override(self, obj):
        cls = obj.__class__
        if cls is RingSegment:
            return _segment_reduce(obj)
        names = _positional_fields(cls)
        if names is None:
            return NotImplemented
        values = tuple(getattr(obj, name) for name in names)
        try:
            key = (cls, values)
            args = self._interned.get(key)
            if args is None:
                self._interned[key] = args = key
        except TypeError:  # unhashable field: no interning
            args = (cls, values)
        return network._wire_build, args


def reference_encode(payload):
    buffer = io.BytesIO()
    ReferencePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


def _wire_build(cls, values):
    obj = object.__new__(cls)
    for name, value in zip(_positional_fields(cls), values):
        object.__setattr__(obj, name, value)
    return obj


def _segment_wire_build(start, instances, count, packed):
    values = []
    for item in packed:
        if type(item) is tuple:
            run, value = item
            values.append(value)
            for _ in range(run - 1):
                values.append(
                    ProposalValue(
                        value.payload,
                        value.size_bytes,
                        value.proposer,
                        value.proposal_id,
                        value.created_at,
                    )
                )
        else:
            values.append(item)
    if type(instances) is tuple:
        entries = list(zip(instances, values))
    else:
        entries = list(zip(range(instances, instances + count), values))
    return RingSegment(start=start, entries=entries)


_BUILDERS = {
    ("repro.sim.network", "_wire_build"): _wire_build,
    ("repro.multiring.merge", "_segment_wire_build"): _segment_wire_build,
}


class ReferenceUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        return _BUILDERS.get((module, name)) or super().find_class(module, name)


def reference_decode(frame):
    return ReferenceUnpickler(io.BytesIO(frame)).load()


def _generic_segment_reduce(segment):
    """``RingSegment`` by its two fields, the way pickle reduces any slotted dataclass."""
    state = {"start": segment.start, "entries": segment.entries}
    return copyreg.__newobj__, (RingSegment,), (None, state)


def plain_pickle(payload):
    """``pickle.dumps(payload)`` as if ``RingSegment`` had no ``__reduce__`` of its own."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.dispatch_table = {**copyreg.dispatch_table, RingSegment: _generic_segment_reduce}
    pickler.dump(payload)
    return buffer.getvalue()
