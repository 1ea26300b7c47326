"""Corollary 3.11: two-party communication protocol for (Delta+1)-coloring.

The standard reduction: Alice holds edge set A, Bob holds B.  They run the
multipass streaming algorithm on the stream A followed by B; each pass
costs two messages (Alice -> Bob at the boundary, Bob -> Alice at the end
of the pass), each carrying the algorithm's current state.  With Algorithm
1's ``O(n log^2 n)``-bit state and ``O(log Delta log log Delta)`` passes,
the total communication is ``O(n log^4 n)`` bits — matching the corollary
(the interesting part being the small *round* count).

The simulation measures message sizes with the algorithm's own
:class:`SpaceMeter` (current working-state bits at each handoff moment).
It streams the players' tokens one per item through a
:class:`MaterializedSource` whose passes record each handoff as they
reach it: Alice's message at Bob's first token, Bob's at the first token
of every later pass.
"""

from dataclasses import dataclass, field

from repro.streaming.source import MaterializedSource
from repro.streaming.stream import TokenStream


@dataclass
class ProtocolResult:
    """Outcome of the simulated two-party protocol."""

    coloring: dict[int, int]
    passes: int
    rounds: int
    total_bits: int
    message_bits: list[int] = field(default_factory=list)


class _HandoffSource(MaterializedSource):
    """The players' stream, one token per item, recording every handoff."""

    def __init__(self, stream: TokenStream, boundary: int, record):
        super().__init__(stream, chunk_size=1)
        self.boundary = boundary
        self.record = record

    def new_pass(self):
        later = self.passes_used > 0
        for index, item in enumerate(super().new_pass()):
            # Alice -> Bob: the instant the pass crosses into B's half.
            if index == self.boundary:
                self.record()
            # Bob -> Alice: at the start of each pass after the first, Bob
            # ships the state back so Alice can restart the stream.
            if index == 0 and later:
                self.record()
            yield item


def two_party_coloring_protocol(algorithm, alice_tokens, bob_tokens, n: int) -> ProtocolResult:
    """Simulate the Corollary 3.11 protocol.

    Parameters
    ----------
    algorithm:
        A :class:`repro.streaming.MultipassStreamingAlgorithm` (typically
        :class:`repro.core.DeterministicColoring`).
    alice_tokens, bob_tokens:
        The two players' token sequences (any interleaving-free split).
    n:
        Number of vertices.
    """
    alice_tokens = list(alice_tokens)
    bob_tokens = list(bob_tokens)
    boundary = len(alice_tokens)
    tokens = alice_tokens + bob_tokens
    messages: list[int] = []
    source = _HandoffSource(
        TokenStream(tokens, n), boundary,
        lambda: messages.append(algorithm.meter.current_bits),
    )
    coloring = algorithm.run(source)
    # Bob's final message delivering the answer/state after the last pass.
    messages.append(algorithm.meter.current_bits)
    if boundary == 0 or boundary == len(tokens):
        # Degenerate splits: one player holds everything; a single message
        # of the final state suffices.
        messages = [algorithm.meter.current_bits]
    return ProtocolResult(
        coloring=coloring,
        passes=source.passes_used,
        rounds=len(messages),
        total_bits=sum(messages),
        message_bits=messages,
    )
