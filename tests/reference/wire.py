"""A naive second implementation of the wire codec: one Python hook per object.

Encoding is a ``pickle.Pickler`` subclass whose ``reducer_override`` applies
the wire rule to every non-builtin object: a class declared a dataclass
itself, with no ``__reduce__`` of its own, ships its ``dataclasses.fields``
positionally; a ``RingSegment`` ships as its instance column and its value
column; anything else takes pickle's default path.  Decoding rebuilds a
dataclass instance with a ``zip`` + ``object.__setattr__`` loop and a
segment with one loop over its columns.
``repro.sim.network.encode_wire`` must produce the very same bytes, and
``pickle.loads`` of a frame the very same object graph, as this pair does.

The frames name their builders by import path, so the reference encoder
emits the shipped ``_wire_build`` / ``_segment_from_columns`` globals and
the reference decoder maps those two names back to the loops below.

:func:`plain_pickle` is the yardstick both codecs' compression is measured
against: generic pickling, ``RingSegment`` included.  :func:`sharing` is the
object-identity structure a decoded graph must keep.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle

from repro.multiring import merge
from repro.multiring.merge import RingSegment
from repro.sim import network


def _positional_fields(cls):
    """The field names ``cls`` ships positionally, or ``None`` for pickle's default."""
    if "__dataclass_fields__" not in vars(cls) or cls.__reduce__ is not object.__reduce__:
        return None
    return [f.name for f in dataclasses.fields(cls)]


def _segment_reduce(segment):
    instances = tuple(inst for inst, _ in segment.entries)
    values = tuple(value for _, value in segment.entries)
    if not instances:
        column = 0
    elif all(inst == instances[0] + idx for idx, inst in enumerate(instances)):
        column = instances[0]
    else:
        column = instances
    return merge._segment_from_columns, (segment.start, column, values)


class ReferencePickler(pickle.Pickler):
    """Dataclasses to ``(_wire_build, (cls, values))``, segments to two columns."""

    def reducer_override(self, obj):
        cls = obj.__class__
        if cls is RingSegment:
            return _segment_reduce(obj)
        names = _positional_fields(cls)
        if names is None:
            return NotImplemented
        return network._wire_build, (cls, tuple(getattr(obj, name) for name in names))


def reference_encode(payload):
    buffer = io.BytesIO()
    ReferencePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


def _wire_build(cls, values):
    obj = object.__new__(cls)
    for name, value in zip(_positional_fields(cls), values):
        object.__setattr__(obj, name, value)
    return obj


def _segment_from_columns(start, instances, values):
    if type(instances) is int:
        instances = range(instances, instances + len(values))
    entries = []
    for instance, value in zip(instances, values):
        entries.append((instance, value))
    return RingSegment(start=start, entries=entries)


_BUILDERS = {
    ("repro.sim.network", "_wire_build"): _wire_build,
    ("repro.multiring.merge", "_segment_from_columns"): _segment_from_columns,
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


_ATOMS = (type(None), bool, int, float, str, bytes, type)


def sharing(graph):
    """The object-identity structure of ``graph``, comparable across copies.

    A depth-first walk that numbers every object which can carry identity
    (lists, dicts, dataclass instances, other objects) on first sight and
    records a back-reference on every later sight.  Two graphs with equal
    structures share exactly the same objects.  Scalars, strings and classes
    are compared by value elsewhere; tuples are immutable, so only their
    elements count.
    """
    seen = {}
    out = []

    def walk(obj):
        if isinstance(obj, _ATOMS):
            return
        if type(obj) is tuple:
            for item in obj:
                walk(item)
            return
        if id(obj) in seen:
            out.append(("ref", seen[id(obj)]))
            return
        seen[id(obj)] = len(seen)
        out.append(("new", type(obj).__qualname__))
        if isinstance(obj, list):
            children = obj
        elif isinstance(obj, dict):
            children = [item for pair in obj.items() for item in pair]
        elif dataclasses.is_dataclass(obj):
            children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        else:
            children = list(getattr(obj, "__dict__", {}).values())
        for child in children:
            walk(child)

    walk(graph)
    return out
