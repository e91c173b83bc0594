"""Batch-assembly differential: running byte total vs pop-all / push-back.

``CoordinatorState.next_assignments`` decides from a running
``_pending_bytes`` whether the next greedy group is emitted or held.  The
algorithm it replaced popped the whole queue into a group on every call and
pushed a partial trailing group back; that algorithm lives on here, as the
test-local reference.  Hypothesis drives both through the same random
programs — value sizes around and above ``max_bytes``, sums that land on it
exactly, ``force`` on and off, values queued before Phase 1 completes,
batching off — and requires identical assignments and identical queue state
after every call.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.config import MultiRingConfig
from repro.paxos.messages import ProposalValue
from repro.ringpaxos.coordinator import CoordinatorState, PackedValues

MAX_BYTES = 64


class _PopAllReference:
    """The pre-``_pending_bytes`` assembly: pop everything, push a partial back."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.phase1_ready = False
        self.pending = deque()
        self.next_instance = 0

    def enqueue(self, value):
        self.pending.append(value)

    def _allocate(self):
        instance = self.next_instance
        self.next_instance += 1
        return instance

    def next_assignments(self, force=True):
        if not self.phase1_ready:
            return []
        assignments = []
        if not self.enabled:
            while self.pending:
                assignments.append((self._allocate(), self.pending.popleft()))
            return assignments
        while self.pending:
            group = []
            size = 0
            while self.pending and (
                size + self.pending[0].size_bytes <= MAX_BYTES or not group
            ):
                value = self.pending.popleft()
                group.append(value)
                size += value.size_bytes
            if not force and not self.pending and size < MAX_BYTES:
                self.pending.extendleft(reversed(group))
                break
            if len(group) == 1:
                packed = group[0]
            else:
                packed = ProposalValue(
                    payload=PackedValues(values=list(group)),
                    size_bytes=size,
                    proposer=group[0].proposer,
                    proposal_id=group[0].proposal_id,
                    created_at=min(v.created_at for v in group),
                )
            assignments.append((self._allocate(), packed))
        return assignments


def _signature(assignments):
    """``(instance, packed proposal ids, size_bytes, created_at)`` per instance."""
    out = []
    for instance, value in assignments:
        payload = value.payload
        leaves = payload.values if isinstance(payload, PackedValues) else [value]
        ids = tuple((leaf.proposer, leaf.proposal_id) for leaf in leaves)
        out.append((instance, ids, value.size_bytes, value.created_at))
    return out


#: Sizes cluster on the interesting boundaries: zero, divisors of MAX_BYTES
#: (so sums hit it exactly), MAX_BYTES itself, and singles above it.
value_size = st.one_of(
    st.sampled_from([0, 1, 16, 32, MAX_BYTES - 1, MAX_BYTES, MAX_BYTES + 1, 200]),
    st.integers(min_value=0, max_value=2 * MAX_BYTES),
)
program_step = st.one_of(
    st.tuples(st.just("enqueue"), value_size, st.floats(0.0, 10.0)),
    st.tuples(st.just("assign"), st.booleans()),
    st.tuples(st.just("promise")),
)


@given(st.booleans(), st.lists(program_step, max_size=80))
@settings(max_examples=300, deadline=None)
def test_assembly_matches_pop_all_reference(enabled, program):
    state = CoordinatorState(0, 1, MultiRingConfig(batching_enabled=enabled))
    state.BATCH_MAX_BYTES = MAX_BYTES
    reference = _PopAllReference(enabled)
    proposal_id = 0
    # Phase 1 may complete anywhere in the program; force it at the end so
    # whatever was queued before it gets assigned too.
    for step in program + [("promise",), ("assign", False), ("assign", True)]:
        if step[0] == "enqueue":
            proposal_id += 1
            value = ProposalValue(
                payload=f"v{proposal_id}",
                size_bytes=step[1],
                proposer=f"p{proposal_id % 3}",
                proposal_id=proposal_id,
                created_at=step[2],
            )
            state.enqueue(value)
            reference.enqueue(value)
        elif step[0] == "promise":
            state.record_promise("a0", quorum=1)
            reference.phase1_ready = True
        else:
            got = state.next_assignments(force=step[1])
            want = reference.next_assignments(force=step[1])
            assert _signature(got) == _signature(want)
        assert list(state._pending) == list(reference.pending)
        assert state.has_pending() == bool(reference.pending)
        assert state._pending_bytes == sum(v.size_bytes for v in state._pending)
    assert not state.has_pending()
    assert state.ledger.next_instance == reference.next_instance
