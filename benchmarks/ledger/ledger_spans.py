"""Outside-in span tracing: benchmark-side wrappers around each layer's methods.

The traced run replaces, at class level and *before* the deployment is built
(so dispatch tables and cached bound methods pick the wrappers up), the
methods listed in :data:`HOOKS`.  Every call becomes a span — name, start,
end, parent (the enclosing span on the call stack) — aggregated in memory per
layer:

``calls``
    spans closed;
``busy_s``
    time with at least one span of the layer open (nested spans of one layer
    are not counted twice);
``self_s``
    span durations minus the part their child spans cover.  Code that no
    hook wraps is charged to the enclosing span, so the self times of all
    layers sum *exactly* to the duration of the root spans.

The first :data:`RAW_SPAN_LIMIT` spans (plus their ancestors) are kept raw
and written as a Chrome ``trace_event`` file when the run ends.  Nothing in
``src/`` knows about any of this; untraced runs never import this module's
wrappers.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Layers are the repository's modules; the order is the report order.
LAYERS: Tuple[str, ...] = (
    "bench",
    "sim.kernel",
    "sim.network",
    "ringpaxos",
    "multiring.multicast",
    "paxos",
    "storage.wal",
    "sim.disk",
    "multiring.merge",
    "core.smr",
    "kvstore",
    "dlog",
    "core.client",
    "core.swarm",
    "sim.metrics",
    "sim.parallel",
)

#: ``(layer, module, owner, attribute)``.  ``owner`` is a class name, or
#: ``None`` for a module-level function.  Hooks on private methods are kernel
#: entry points of their layer (timer and durability callbacks) that would
#: otherwise be charged to ``sim.kernel``.  A hook whose target is gone is
#: skipped and reported, so a refactor that renames one costs attribution
#: (``trace.hooks_missing``), not the benchmark.
HOOKS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim.kernel", "repro.sim.kernel", "Simulator", "run"),
    ("sim.kernel", "repro.sim.kernel", "Simulator", "run_window"),
    ("sim.network", "repro.sim.network", "Network", "send"),
    ("ringpaxos", "repro.multiring.process", "MultiRingProcess", "on_message"),
    ("ringpaxos", "repro.ringpaxos.node", "RingNode", "_after_own_vote"),
    ("ringpaxos", "repro.ringpaxos.node", "RingNode", "_batch_flush_tick"),
    ("ringpaxos", "repro.ringpaxos.node", "RingNode", "_rate_level_tick"),
    ("multiring.multicast", "repro.multiring.process", "MultiRingProcess", "multicast"),
    ("paxos", "repro.paxos.acceptor", "AcceptorState", "receive_phase2"),
    ("paxos", "repro.paxos.acceptor", "AcceptorState", "receive_phase2_range"),
    ("paxos", "repro.paxos.acceptor", "AcceptorState", "record_decision"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog", "append"),
    ("sim.disk", "repro.sim.disk", "Disk", "write"),
    ("multiring.merge", "repro.multiring.merge", "DeterministicMerger", "offer"),
    ("multiring.merge", "repro.multiring.merge", "MergeCursor", "feed_segments"),
    ("core.smr", "repro.core.smr", "StateMachineReplica", "on_deliver"),
    ("core.smr", "repro.core.smr", "ProposerFrontend", "on_service_message"),
    ("core.smr", "repro.core.smr", "ReactiveReplicaHost", "ingest"),
    ("kvstore", "repro.kvstore.replica", "MRPStoreReplica", "apply_command"),
    ("dlog", "repro.dlog.replica", "DLogReplica", "apply_command"),
    ("core.client", "repro.core.client", "ClosedLoopClient", "on_message"),
    ("core.swarm", "repro.core.swarm", "ClientSwarm", "on_message"),
    ("core.swarm", "repro.core.swarm", "ClientSwarm", "_wheel_tick"),
    ("sim.metrics", "repro.sim.metrics", "LatencyRecorder", "record"),
    ("sim.metrics", "repro.sim.metrics", "ThroughputTracker", "record"),
    ("sim.parallel", "repro.bench.parallel", None, "run_sharded"),
)

#: Raw spans kept for the Chrome trace file.
RAW_SPAN_LIMIT = 10_000

#: Wire bytes the network model adds to every message (``Network.HEADER_BYTES``)
#: and charges for a message without a size (``Network.send``).
_HEADER_BYTES = 66
_UNSIZED_BYTES = 128


class SpanRecorder:
    """In-memory span stack and per-layer aggregates of one traced slice."""

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 keep: int = RAW_SPAN_LIMIT) -> None:
        self.clock = clock
        self.keep = keep
        self.labels: List[str] = []
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.reset()

    def reset(self) -> None:
        """Forget every span (the start of a traced slice)."""
        n = len(LAYERS)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_s = [0.0] * n
        self.depth = [0] * n
        #: open frames, innermost last: ``[child seconds, span id]``
        self.stack: List[List[Any]] = []
        self.spans = 0
        self.root_s = 0.0
        #: ``(label index, start, end, span id, parent id)``; parent 0 = root
        self.raw: List[Tuple[int, float, float, int, int]] = []
        self._wanted: Set[int] = set()
        self.network_bytes = 0
        self.cursor_deliveries = 0

    # ----------------------------------------------------------------- spans
    def wrap(self, layer: str, label: str, fn: Callable[..., Any],
             tap: Optional[Callable[[tuple, Any], None]] = None) -> Callable[..., Any]:
        """``fn`` wrapped into a span of ``layer``.

        ``tap(args, result)`` runs after the span closed (its cost lands in
        the parent's self time, as tracing overhead does everywhere).
        """
        index = self._layer_index[layer]
        self.labels.append(label)
        label_index = len(self.labels) - 1
        rec = self
        clock = self.clock

        def span(*args: Any, **kwargs: Any) -> Any:
            rec.spans = span_id = rec.spans + 1
            frame = [0.0, span_id]
            stack = rec.stack
            stack.append(frame)
            rec.depth[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                rec.calls[index] += 1
                rec.self_s[index] += elapsed - frame[0]
                rec.depth[index] -= 1
                if not rec.depth[index]:
                    rec.busy[index] += elapsed
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent_id = parent[1]
                else:
                    rec.root_s += elapsed
                    parent_id = 0
                if len(rec.raw) < rec.keep or span_id in rec._wanted:
                    rec.raw.append((label_index, start, end, span_id, parent_id))
                    if parent_id:
                        rec._wanted.add(parent_id)
            if tap is not None:
                tap(args, result)
            return result

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    # ------------------------------------------------------------ aggregates
    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls/busy_s/self_s/self_share`` for every layer."""
        total = sum(self.self_s)
        out: Dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = float(self.calls[i])
            out[f"{layer}.busy_s"] = self.busy[i]
            out[f"{layer}.self_s"] = self.self_s[i]
            out[f"{layer}.self_share"] = self.self_s[i] / total if total > 0 else 0.0
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept raw spans as a Chrome ``trace_event`` document."""
        if not self.raw:
            return {"traceEvents": []}
        origin = min(start for _, start, _, _, _ in self.raw)
        events = [
            {
                "name": self.labels[label],
                "cat": self.labels[label].split(":", 1)[0],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent_id},
            }
            for label, start, end, span_id, parent_id in sorted(
                self.raw, key=lambda s: (s[1], -s[2])
            )
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Tracer:
    """Installs and removes the :data:`HOOKS` wrappers around a recorder."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder or SpanRecorder()
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def _tap_for(self, owner: Optional[str], attribute: str):
        rec = self.recorder
        if (owner, attribute) == ("Network", "send"):
            def count_bytes(args: tuple, _result: Any) -> None:
                rec.network_bytes += (
                    getattr(args[3], "size_bytes", _UNSIZED_BYTES) + _HEADER_BYTES
                )
            return count_bytes
        if (owner, attribute) == ("MergeCursor", "feed_segments"):
            def count_deliveries(_args: tuple, result: Any) -> None:
                rec.cursor_deliveries += len(result)
            return count_deliveries
        return None

    def install(self, hooks: Sequence[Tuple[str, str, Optional[str], str]] = HOOKS) -> None:
        """Replace every hooked attribute by its span wrapper."""
        for layer, module_name, owner_name, attribute in hooks:
            where = f"{module_name}.{owner_name + '.' if owner_name else ''}{attribute}"
            try:
                holder = importlib.import_module(module_name)
                if owner_name is not None:
                    holder = getattr(holder, owner_name)
                original = holder.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(where)
                continue
            label = f"{layer}:{owner_name + '.' if owner_name else ''}{attribute}"
            wrapper = self.recorder.wrap(
                layer, label, original, tap=self._tap_for(owner_name, attribute)
            )
            setattr(holder, attribute, wrapper)
            self._installed.append((holder, attribute, original))

    def uninstall(self) -> None:
        """Put the original attributes back."""
        while self._installed:
            holder, attribute, original = self._installed.pop()
            setattr(holder, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
