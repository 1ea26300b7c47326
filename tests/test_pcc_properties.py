"""Property tests for the PCC/slack/potential mathematics (Section 3).

These validate the identities the analysis of Algorithm 1 rests on, on
randomly generated partially-committed colorings, against reference
implementations written directly from the paper's definitions:

- eq. (1)/(2) vs Lemma 3.3: the potential as an edge sum equals the
  vertex sum ``sum_x dconf(x)/s_x``.
- Lemma 3.4: slack subadditivity over disjoint color sets.
- eq. (3): the expected number of monochromatic edges under
  uniform-from-``Free`` completion is at most Phi.
- eq. (5): under the slack-weighted pattern distribution the expected new
  potential is ``sum_edges (1/S_u + 1/S_v) <= Phi`` (with equality iff
  the per-pattern slacks sum to the total slack).
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subcube import Subcube
from repro.graph.generators import gnp_random_graph


# ----------------------------------------------------------------------
# Reference implementations, straight from the paper's definitions.
# ----------------------------------------------------------------------
def ref_slack(graph, chi, uncolored, lists, x, color_set) -> int:
    """Eq. (1): slack(x | T) = max(0, |T ∩ L_x| - #{colored nbrs with chi in T})."""
    available = len(color_set & lists[x])
    used = sum(
        1
        for y in graph.neighbors(x)
        if y not in uncolored and chi[y] in color_set
    )
    return max(0, available - used)


def ref_potential_edge_sum(graph, chi, uncolored, lists, proposals) -> float:
    """Eq. (2): sum over edges inside U with P_u == P_v of 1/s_u + 1/s_v."""
    total = 0.0
    for u, v in graph.edges():
        if u in uncolored and v in uncolored and proposals[u] == proposals[v]:
            su = ref_slack(graph, chi, uncolored, lists, u, proposals[u])
            sv = ref_slack(graph, chi, uncolored, lists, v, proposals[v])
            total += 1.0 / su + 1.0 / sv  # analysis assumes s >= 1
    return total


def ref_potential_vertex_sum(graph, chi, uncolored, lists, proposals) -> float:
    """Lemma 3.3: sum_x dconf(x)/s_x."""
    total = 0.0
    for x in uncolored:
        dconf = sum(
            1
            for y in graph.neighbors(x)
            if y in uncolored and proposals[y] == proposals[x]
        )
        if dconf:
            s_x = ref_slack(graph, chi, uncolored, lists, x, proposals[x])
            total += dconf / s_x
    return total


def make_instance(seed: int):
    """A random graph + proper partial coloring + subcube PCC with s_x >= 1."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    graph = gnp_random_graph(n, 0.35, seed=seed)
    delta = max(1, graph.max_degree())
    b = max(1, math.ceil(math.log2(delta + 1)))
    palette = set(range(1, delta + 2))
    lists = {v: set(palette) for v in range(n)}
    # Color a random subset properly (greedy over a random order).
    chi = {v: None for v in range(n)}
    order = list(range(n))
    rng.shuffle(order)
    colored = set(order[: n // 2])
    for v in order:
        if v in colored:
            used = {chi[w] for w in graph.neighbors(v) if chi[w] is not None}
            free = sorted(palette - used)
            chi[v] = free[0]
    uncolored = {v for v in range(n) if chi[v] is None}
    # All uncolored vertices share the full cube (the trivial PCC) so that
    # the "P_u == P_v or disjoint" invariant holds trivially.
    cube = Subcube.full(b)
    proposals = {x: frozenset(c for c in cube.members() if c in palette)
                 for x in uncolored}
    return graph, chi, uncolored, lists, proposals, delta, b


class TestPotentialIdentity:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_lemma_3_3_edge_sum_equals_vertex_sum(self, seed):
        graph, chi, uncolored, lists, proposals, _, _ = make_instance(seed)
        lhs = ref_potential_edge_sum(graph, chi, uncolored, lists, proposals)
        rhs = ref_potential_vertex_sum(graph, chi, uncolored, lists, proposals)
        assert abs(lhs - rhs) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_trivial_pcc_potential_at_most_u(self, seed):
        """Lemma 3.5 start: Phi_0 <= |U| for the trivial PCC."""
        graph, chi, uncolored, lists, proposals, _, _ = make_instance(seed)
        phi = ref_potential_edge_sum(graph, chi, uncolored, lists, proposals)
        assert phi <= len(uncolored) + 1e-9


class TestSlackSubadditivity:
    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lemma_3_4(self, seed, data):
        graph, chi, uncolored, lists, _, delta, _ = make_instance(seed)
        if not uncolored:
            return
        x = sorted(uncolored)[0]
        palette = list(range(1, delta + 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(palette),
                                  max_size=len(palette)))
        t1 = {c for c, m in zip(palette, mask) if m}
        t2 = {c for c, m in zip(palette, mask) if not m}
        whole = ref_slack(graph, chi, uncolored, lists, x, t1 | t2)
        parts = (ref_slack(graph, chi, uncolored, lists, x, t1)
                 + ref_slack(graph, chi, uncolored, lists, x, t2))
        assert whole <= parts

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pattern_slacks_cover_total(self, seed):
        """The per-pattern slacks of a stage sum to >= s_x (why Lemma 3.6
        can always pick a positive pattern)."""
        graph, chi, uncolored, lists, _, delta, b = make_instance(seed)
        cube = Subcube.full(b)
        k = 1
        for x in uncolored:
            total = ref_slack(
                graph, chi, uncolored, lists, x,
                set(cube.members()),
            )
            parts = 0
            for j in range(1 << k):
                child = cube.restrict(j, k)
                parts += ref_slack(graph, chi, uncolored, lists, x,
                                   set(child.members()))
            assert total <= parts


class TestExpectedMonochromatic:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_eq_3_expected_mono_at_most_phi(self, seed):
        """E[#mono edges] under uniform Free-completion <= Phi."""
        graph, chi, uncolored, lists, proposals, _, _ = make_instance(seed)

        def free(x):
            used = {
                chi[y]
                for y in graph.neighbors(x)
                if y not in uncolored
            }
            return (proposals[x] & lists[x]) - used

        expected = 0.0
        for u, v in graph.edges():
            if u in uncolored and v in uncolored and proposals[u] == proposals[v]:
                fu, fv = free(u), free(v)
                expected += len(fu & fv) / (len(fu) * len(fv))
        phi = ref_potential_edge_sum(graph, chi, uncolored, lists, proposals)
        assert expected <= phi + 1e-9


class TestAveragePreservation:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_eq_5_expected_new_potential_at_most_old(self, seed):
        """Under the w-distribution, E Phi_new = sum (1/S_u + 1/S_v) <= Phi."""
        graph, chi, uncolored, lists, proposals, delta, b = make_instance(seed)
        cube = Subcube.full(b)
        k = 1

        def pattern_slacks(x):
            return [
                ref_slack(graph, chi, uncolored, lists, x,
                          set(cube.restrict(j, k).members()))
                for j in range(1 << k)
            ]

        expected_new = 0.0
        for u, v in graph.edges():
            if not (u in uncolored and v in uncolored):
                continue
            slacks_u = pattern_slacks(u)
            slacks_v = pattern_slacks(v)
            su_total, sv_total = sum(slacks_u), sum(slacks_v)
            if su_total == 0 or sv_total == 0:
                continue
            # E over independent w-draws of the new edge contribution.
            for j in range(1 << k):
                wu = slacks_u[j] / su_total
                wv = slacks_v[j] / sv_total
                if wu > 0 and wv > 0:
                    expected_new += wu * wv * (
                        1.0 / slacks_u[j] + 1.0 / slacks_v[j]
                    )
        phi = ref_potential_edge_sum(graph, chi, uncolored, lists, proposals)
        assert expected_new <= phi + 1e-9
