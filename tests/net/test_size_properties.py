"""Property tests: cached wire sizes equal their recomputed definitions.

``size_bytes`` is cached at construction everywhere on the message plane;
these properties pin the cache to the recomputed definition:

* a client message always reports its payload plus its framing overhead;
* a ``ProposalValue`` wrapping ``PackedValues`` built the way the
  coordinator packs instances always reports the sum of its leaf values'
  sizes, packs-of-packs included.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.packing import iter_values
from repro.net.message import ClientRequest, ClientResponse, Message
from repro.paxos.messages import ProposalValue
from repro.ringpaxos.coordinator import PackedValues

#: Payload sizes from empty to the 32 KB client batching ceiling.
payload_sizes = st.integers(min_value=0, max_value=32_768)

leaf_messages = st.one_of(
    payload_sizes.map(lambda n: Message(payload_bytes=n)),
    payload_sizes.map(lambda n: ClientRequest(payload_bytes=n, client="c", command="x")),
    payload_sizes.map(lambda n: ClientResponse(payload_bytes=n, request_id=1)),
)


@given(message=leaf_messages)
@settings(max_examples=200)
def test_cached_size_equals_recomputed_definition(message):
    assert message.size_bytes == message.payload_bytes + type(message).OVERHEAD_BYTES


# --------------------------------------------------------------- PackedValues
def _pack(values):
    """Pack values exactly like the coordinator: size is the member sum."""
    return ProposalValue(
        payload=PackedValues(values=list(values)),
        size_bytes=sum(v.size_bytes for v in values),
        proposer="coord",
        proposal_id=0,
    )


plain_values = st.builds(
    ProposalValue,
    payload=st.just("cmd"),
    size_bytes=payload_sizes,
    proposer=st.just("p0"),
    proposal_id=st.integers(min_value=0, max_value=1 << 20),
)

#: Packs of packs, mirroring what re-proposed repaired instances can produce.
nested_packs = st.recursive(
    plain_values,
    lambda children: st.lists(children, min_size=1, max_size=5).map(_pack),
    max_leaves=25,
)


@given(value=nested_packs)
@settings(max_examples=200)
def test_packed_value_size_is_sum_of_leaves(value):
    leaves = list(iter_values(value))
    assert value.size_bytes == sum(leaf.size_bytes for leaf in leaves)
