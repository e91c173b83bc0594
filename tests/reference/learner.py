"""The learner as plain rules: decide, then emit the contiguous prefix.

Everything is remembered (``known`` never shrinks); a decision waits in
``waiting`` until every instance before it was emitted or fast-forwarded
over.  ``RingLearner`` must show the same trace while keeping only what it
has not emitted.
"""

from __future__ import annotations


class ReferenceLearner:
    """Orders decided instances of one ring and emits them contiguously."""

    def __init__(self, ring_id, on_ordered):
        self.ring_id = ring_id
        self.on_ordered = on_ordered
        self.known = set()          # every instance ever decided
        self.forwarded = -1         # everything up to here counts as decided
        self.waiting = {}           # decided, not yet emitted
        self.pending_values = {}
        self.undeliv = set()
        self.next_to_emit = 0
        self.next_instance = 0

    # --------------------------------------------------------------- inputs
    def _observe_instance(self, instance):
        self.next_instance = max(self.next_instance, instance + 1)

    def observe_value(self, instance, value):
        self.pending_values[instance] = value
        self._observe_instance(instance)

    def observe_decision(self, instance, value):
        resolved = value if value is not None else self.pending_values.get(instance)
        if resolved is None:
            self._observe_instance(instance)
            self.undeliv.add(instance)  # waits for supply_missing_value
        elif not self.is_decided(instance):
            self._observe_instance(instance)
            self.known.add(instance)
            self.waiting[instance] = resolved
            self._drain()

    def supply_missing_value(self, instance, value):
        self.pending_values[instance] = value
        if instance in self.undeliv:
            self.undeliv.discard(instance)
            self.observe_decision(instance, value)

    def inject_decided(self, instance, value):
        self.observe_value(instance, value)
        self.observe_decision(instance, value)

    def fast_forward(self, to_instance):
        if to_instance + 1 > self.next_to_emit:
            self.next_to_emit = to_instance + 1
            self._observe_instance(to_instance)
        self.forwarded = max(self.forwarded, to_instance)
        self.waiting = {i: v for i, v in self.waiting.items() if i > to_instance}
        self.pending_values = {i: v for i, v in self.pending_values.items() if i > to_instance}
        self.undeliv = {i for i in self.undeliv if i > to_instance}

    # --------------------------------------------------------------- output
    def _drain(self):
        while self.next_to_emit in self.waiting:
            instance = self.next_to_emit
            value = self.waiting.pop(instance)
            self.on_ordered(self.ring_id, instance, value)  # sees next_to_emit == instance
            self.pending_values.pop(instance, None)
            if self.next_to_emit == instance:  # unless the callback fast-forwarded
                self.next_to_emit = instance + 1

    # ------------------------------------------------------------ inspection
    def is_decided(self, instance):
        return instance in self.known or instance <= self.forwarded

    @property
    def highest_contiguous_decided(self):
        highest = -1
        while self.is_decided(highest + 1):
            highest += 1
        return highest

    @property
    def highest_decided(self):
        return max(self.highest_contiguous_decided, max(self.undeliv, default=-1))

    def gaps(self):
        top = max(self.waiting, default=0)
        return [i for i in range(top) if not self.is_decided(i)]
