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
"""

from dataclasses import dataclass, field

from repro.streaming.stream import TokenStream


@dataclass
class ProtocolResult:
    """Outcome of the simulated two-party protocol."""

    coloring: dict[int, int]
    passes: int
    rounds: int
    total_bits: int
    message_bits: list[int] = field(default_factory=list)


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
    source = TokenStream(tokens, n).as_source(1)
    messages: list[int] = []

    def observer(pass_index: int, token_index: int) -> None:
        # Alice -> Bob: the instant the read position crosses into B's half.
        if token_index == boundary:
            messages.append(algorithm.meter.current_bits)
        # Bob -> Alice: at the start of each pass after the first, Bob ships
        # the state back so Alice can restart the stream.
        if token_index == 0 and pass_index > 1:
            messages.append(algorithm.meter.current_bits)

    source.set_observer(observer)
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
