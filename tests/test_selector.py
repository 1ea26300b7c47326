"""Unit tests for the slack-weighted hash-family selector.

The key correctness properties are that the part sums (pass 2) and member
sums (pass 3) agree with brute-force evaluation of the potential over the
whole Carter-Wegman family, that both reproduce the per-edge float
reference below (the same ``argmin``, bit-equal there), and that the
batched g_w registration builds, row by row, the blocks of the per-vertex
reference construction below.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.selector as selector_module
from repro.common.exceptions import ReproError
from repro.core.selector import (
    SlackWeightedSelector,
    _as_edges,
    _exact_part_sums,
    _profile_segments,
    _scaled_weights,
    int64_exact,
)


# ----------------------------------------------------------------------
# The per-vertex g_w reference: the block construction and slot lookup as
# first written, one vertex at a time.  The batched register_vertex and
# proposal_for must reproduce them bit for bit.
# ----------------------------------------------------------------------
def reference_blocks(p, eps, x, cids, slacks):
    """Vertex ``x``'s ``(cids, slacks, sizes, cum)`` under ``g_w``."""
    cids = np.asarray(cids, dtype=np.int64)
    slacks = np.asarray(slacks, dtype=np.int64)
    if len(cids) != len(slacks):
        raise ReproError("cids and slacks must align")
    positive = slacks > 0
    if not positive.any():
        raise ReproError(
            f"vertex {x} has no positive-slack candidate; "
            "the s_x >= 1 invariant (Lemma 3.6) was violated upstream"
        )
    cids = cids[positive]
    slacks = slacks[positive]
    total = float(slacks.sum())
    w = slacks / total
    sizes = np.floor(p * w * (1.0 + eps)).astype(np.int64)
    sizes = np.maximum(sizes, 1)
    cum = np.cumsum(sizes)
    over = int(np.searchsorted(cum, p, side="left"))
    if over < len(sizes):
        sizes = sizes[: over + 1].copy()
        cids = cids[: over + 1]
        slacks = slacks[: over + 1]
        sizes[over] = p - (cum[over - 1] if over > 0 else 0)
    else:
        sizes = sizes.copy()
        sizes[-1] += p - int(cum[-1])
    if int(sizes.sum()) != p or (sizes <= 0).any():
        raise ReproError(f"g_w block construction failed for vertex {x}")
    return cids, slacks, sizes, np.concatenate(([0], np.cumsum(sizes)))


def reference_cid_of_slot(blocks, t):
    """The candidate owning slot ``t`` of one vertex's blocks (g_w(x, t))."""
    idx = int(np.searchsorted(blocks.cum, t, side="right")) - 1
    idx = min(idx, len(blocks.cids) - 1)
    return int(blocks.cids[idx])


def brute_force_phi(selector, conflict_edges, a, b):
    """Direct evaluation of the potential of h_{a,b}."""
    p = selector.p
    total = 0.0
    for u, v in conflict_edges:
        cu = selector.proposal_for(u, a, b)
        cv = selector.proposal_for(v, a, b)
        if cu == cv:
            bu = selector.blocks(u)
            bv = selector.blocks(v)
            su = dict(zip(bu.cids.tolist(), bu.slacks.tolist()))[cu]
            sv = dict(zip(bv.cids.tolist(), bv.slacks.tolist()))[cv]
            total += 1.0 / su + 1.0 / sv
    return total


# ----------------------------------------------------------------------
# The per-edge float reference: the selector's sums as first written,
# Θ(|E_U| 2^k p) and Θ(|E_U| p) numpy work.  Its float64 accumulation in
# edge order defines the tie-break the selector must reproduce.
# ----------------------------------------------------------------------
def reference_edge_weights(selector, u, v):
    """Dense cid-indexed weights ``1/slack_u[c] + 1/slack_v[c]`` (0 unless
    both endpoints have candidate ``c``)."""
    bu = selector.blocks(u)
    bv = selector.blocks(v)
    wu = np.zeros(selector.cid_space)
    wu[bu.cids] = 1.0 / bu.slacks
    wv = np.zeros(selector.cid_space)
    wv[bv.cids] = 1.0 / bv.slacks
    both = (wu > 0) & (wv > 0)
    out = np.zeros(selector.cid_space)
    out[both] = wu[both] + wv[both]
    return out


def reference_shift_profile(selector, u, v):
    """``S[d] = sum over shared cids of wt(cid) * |A_cid ∩ (B_cid - d)|``."""
    bu = selector.blocks(u)
    bv = selector.blocks(v)
    p = selector.p
    wt = reference_edge_weights(selector, u, v)
    s = np.zeros(p)
    cid_to_v_index = {int(c): i for i, c in enumerate(bv.cids)}
    d = np.arange(p)
    for i, cid in enumerate(bu.cids):
        weight = wt[cid]
        if weight == 0.0:
            continue
        j = cid_to_v_index.get(int(cid))
        if j is None:
            continue
        a0, a1 = int(bu.cum[i]), int(bu.cum[i + 1])
        b0, b1 = int(bv.cum[j]), int(bv.cum[j + 1])
        t0 = (b0 - d) % p
        end = t0 + (b1 - b0)
        hi1 = np.minimum(end, p)
        ov = np.maximum(0, np.minimum(a1, hi1) - np.maximum(a0, t0))
        hi2 = np.maximum(0, end - p)
        ov += np.maximum(0, np.minimum(a1, hi2) - a0)
        s += weight * ov
    return s


def reference_part_sums(selector, conflict_edges):
    p = selector.p
    parts = np.zeros(p)
    a = np.arange(p)
    for u, v in conflict_edges:
        s = reference_shift_profile(selector, u, v)
        parts += s[(a * ((v - u) % p)) % p]
    return parts


def reference_member_sums(selector, a, conflict_edges):
    p = selector.p
    phi = np.zeros(p)
    b = np.arange(p)
    for u, v in conflict_edges:
        bu, bv = selector.blocks(u), selector.blocks(v)
        cu = np.repeat(bu.cids, bu.sizes)[(a * u + b) % p]
        cv = np.repeat(bv.cids, bv.sizes)[(a * v + b) % p]
        wt = reference_edge_weights(selector, u, v)
        phi += np.where(cu == cv, wt[cu], 0.0)
    return phi


def rational_part_sums(selector, conflict_edges):
    """The part sums in exact rational arithmetic, slot by slot."""
    p = selector.p
    parts = [Fraction(0)] * p
    for u, v in conflict_edges:
        bu, bv = selector.blocks(u), selector.blocks(v)
        v_index = {int(c): j for j, c in enumerate(bv.cids)}
        for i, cid in enumerate(bu.cids.tolist()):
            j = v_index.get(cid)
            if j is None:
                continue
            weight = (Fraction(1, int(bu.slacks[i]))
                      + Fraction(1, int(bv.slacks[j])))
            slots = np.arange(bu.cum[i], bu.cum[i + 1])
            for a in range(p):
                shifted = (slots + a * (v - u)) % p
                hits = np.count_nonzero((shifted >= bv.cum[j])
                                        & (shifted < bv.cum[j + 1]))
                parts[a] += weight * hits
    return parts


def rational_member_sums(selector, a, conflict_edges):
    """The member sums of part ``a`` in exact rational arithmetic."""
    p = selector.p
    phi = [Fraction(0)] * p
    for u, v in conflict_edges:
        bu, bv = selector.blocks(u), selector.blocks(v)
        cu, su = (np.repeat(arr, bu.sizes).tolist() for arr in (bu.cids, bu.slacks))
        cv, sv = (np.repeat(arr, bv.sizes).tolist() for arr in (bv.cids, bv.slacks))
        for b in range(p):
            tu, tv = (a * u + b) % p, (a * v + b) % p
            if cu[tu] == cv[tv]:
                phi[b] += Fraction(1, su[tu]) + Fraction(1, sv[tv])
    return phi


def assert_same_pick(sums, ref):
    """The tie-break contract: the reference's first minimizer, bit-equal
    there, and close to the reference everywhere."""
    pick = int(np.argmin(ref))
    assert int(np.argmin(sums)) == pick
    assert sums[pick] == ref[pick]
    np.testing.assert_allclose(sums, ref, rtol=1e-9, atol=0)
    return pick


def assert_matches_reference(selector, edges):
    """Both sums keep the tie-break contract against the reference."""
    a_star = assert_same_pick(selector.part_sums(edges),
                              reference_part_sums(selector, edges))
    assert_same_pick(selector.member_sums(a_star, edges),
                     reference_member_sums(selector, a_star, edges))


def make_selector(p, n, cid_space, vertex_slacks):
    sel = SlackWeightedSelector(p, n, cid_space)
    for x, slacks in vertex_slacks.items():
        sel.register_vertex(x, np.arange(len(slacks)), slacks)
    return sel


class TestGwMap:
    def test_blocks_cover_exactly_p(self):
        sel = make_selector(31, 10, 4, {0: [3, 1, 0, 2]})
        blk = sel.blocks(0)
        assert int(blk.sizes.sum()) == 31
        assert (blk.sizes > 0).all()

    def test_zero_slack_candidates_excluded(self):
        sel = make_selector(31, 10, 4, {0: [3, 0, 0, 2]})
        blk = sel.blocks(0)
        assert set(blk.cids.tolist()) <= {0, 3}

    def test_all_zero_slack_rejected(self):
        sel = SlackWeightedSelector(31, 10, 3)
        with pytest.raises(ReproError):
            sel.register_vertex(0, [0, 1, 2], [0, 0, 0])

    def test_mismatched_lengths_rejected(self):
        sel = SlackWeightedSelector(31, 10, 3)
        with pytest.raises(ReproError):
            sel.register_vertex(0, [0, 1], [1])

    def test_block_mass_close_to_weights(self):
        """Lemma 3.2: block fraction <= w * (1 + 1/(8 log n))."""
        p = 4099  # comfortably large prime
        slacks = [5, 3, 2]
        sel = make_selector(p, 100, 3, {0: slacks})
        blk = sel.blocks(0)
        total = sum(slacks)
        for cid, size in zip(blk.cids.tolist(), blk.sizes.tolist()):
            w = slacks[cid] / total
            assert size / p <= w * (1 + sel.eps) + 2 / p  # +slots for min-1/leftover

    def test_cid_of_slot_matches_materialized(self):
        """The reference slot lookup and the batched ``proposal_for`` both
        read the materialized ``g_w`` map."""
        sel = make_selector(101, 20, 5, {0: [1, 4, 0, 2, 3]})
        blk = sel.blocks(0)
        arr = np.repeat(blk.cids, blk.sizes)
        for t in range(101):
            assert reference_cid_of_slot(blk, t) == arr[t]
            assert sel.proposal_for(0, 0, t) == arr[t]

    def test_proposal_has_positive_slack(self):
        sel = make_selector(31, 10, 4, {0: [0, 2, 0, 1]})
        for a in range(31):
            for b in range(31):
                cid = sel.proposal_for(0, a, b)
                assert cid in (1, 3)


def random_batch(rng):
    """``(xs, cids, slacks)``: a random batch of up to 8 vertices whose rows
    of up to 8 candidates are zero-padded to one width; a third of the
    rows give every candidate the same slack."""
    m = int(rng.integers(1, 9))
    width = int(rng.integers(1, 9))
    xs = rng.choice(64, size=m, replace=False)
    cids = np.zeros((m, width), dtype=np.int64)
    slacks = np.zeros((m, width), dtype=np.int64)
    for r in range(m):
        size = int(rng.integers(1, width + 1))
        cids[r, :size] = rng.choice(40, size=size, replace=False)
        if rng.random() < 1 / 3:
            slacks[r, :size] = int(rng.integers(1, 7))
        else:
            slacks[r, :size] = rng.integers(0, 7, size=size)
            slacks[r, int(rng.integers(0, size))] = int(rng.integers(1, 7))
    return xs, cids, slacks


class TestBatchRegistration:
    """``register_vertex`` on a batch against :func:`reference_blocks`."""

    @pytest.mark.parametrize("p,n,cases", [
        (47, 2, {"padding", "cut", "dropped"}),
        (47, 12, {"padding", "cut", "leftover"}),
        (101, 12, {"padding", "cut", "leftover"}),
        (16411, 256, {"padding", "cut"}),
    ])
    def test_batch_matches_per_vertex_reference(self, p, n, cases):
        """Bit-identical blocks on batches that cover ``cases``: zero-slack
        padding, floored sizes past ``p`` (the row is cut at ``p``, and
        with ``dropped`` candidates after the cut get no slot), and
        leftover slots that go to the last candidate."""
        rng = np.random.default_rng(p)
        seen = set()
        for _ in range(80):
            xs, cids, slacks = random_batch(rng)
            sel = SlackWeightedSelector(p, n, 40)
            sel.register_vertex(xs, cids, slacks)
            assert list(sel._blocks) == xs.tolist()
            for x, row_cids, row_slacks in zip(xs.tolist(), cids, slacks):
                expected = reference_blocks(p, sel.eps, x, row_cids, row_slacks)
                blk = sel.blocks(x)
                for got, want in zip((blk.cids, blk.slacks, blk.sizes, blk.cum),
                                     expected):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                share = row_slacks[row_slacks > 0] / row_slacks.sum()
                floored = np.maximum(
                    np.floor(p * share * (1.0 + sel.eps)).astype(np.int64), 1)
                seen.update(name for name, hit in (
                    ("padding", row_slacks[-1] == 0),
                    ("cut", floored.sum() > p),
                    ("dropped", floored[:-1].sum() >= p),
                    ("leftover", floored.sum() < p),
                ) if hit)
        assert cases <= seen

    def test_proposals_match_per_vertex_lookup(self):
        rng = np.random.default_rng(5)
        xs, cids, slacks = random_batch(rng)
        sel = SlackWeightedSelector(47, 12, 40)
        sel.register_vertex(xs, cids, slacks)
        for a, b in ((0, 0), (3, 11), (46, 46)):
            got = sel.proposal_for(xs, a, b)
            assert got.tolist() == [
                reference_cid_of_slot(sel.blocks(x), (a * x + b) % 47)
                for x in xs.tolist()
            ]
            assert sel.proposal_for(int(xs[0]), a, b) == got[0]

    def test_row_without_positive_slack_names_first_in_batch_order(self):
        sel = SlackWeightedSelector(47, 12, 4)
        cids = np.tile(np.arange(3), (4, 1))
        slacks = np.array([[1, 2, 0], [0, 0, 0], [3, 0, 1], [0, 0, 0]])
        with pytest.raises(ReproError, match="vertex 9 has no positive"):
            sel.register_vertex([5, 9, 2, 1], cids, slacks)

    def test_rows_must_align(self):
        sel = SlackWeightedSelector(47, 12, 4)
        with pytest.raises(ReproError, match="must align"):
            sel.register_vertex([1, 2], [[0, 1], [0, 1]], [[1, 1]])


class TestFamilySearch:
    def _two_vertex_setup(self, p=61):
        return make_selector(
            p, 10, 4, {3: [2, 1, 3, 1], 7: [1, 1, 1, 4]}
        )

    def test_part_sums_match_brute_force(self):
        sel = self._two_vertex_setup()
        edges = [(3, 7)]
        parts = sel.part_sums(edges)
        for a in range(sel.p):
            expected = sum(brute_force_phi(sel, edges, a, b) for b in range(sel.p))
            assert parts[a] == pytest.approx(expected, rel=1e-9)

    def test_member_sums_match_brute_force(self):
        sel = self._two_vertex_setup()
        edges = [(3, 7)]
        for a in (0, 1, 17, 60):
            members = sel.member_sums(a, edges)
            for b in range(sel.p):
                assert members[b] == pytest.approx(
                    brute_force_phi(sel, edges, a, b), rel=1e-9
                )

    def test_multi_edge_aggregation(self):
        sel = make_selector(
            53, 12, 4,
            {1: [2, 2, 1, 0], 2: [1, 3, 0, 1], 5: [4, 1, 1, 1], 9: [1, 1, 1, 1]},
        )
        edges = [(1, 2), (2, 5), (5, 9), (1, 9)]
        parts = sel.part_sums(edges)
        a = 13
        expected = sum(brute_force_phi(sel, edges, a, b) for b in range(sel.p))
        assert parts[a] == pytest.approx(expected, rel=1e-9)
        members = sel.member_sums(a, edges)
        assert members[11] == pytest.approx(
            brute_force_phi(sel, edges, a, 11), rel=1e-9
        )

    def test_choose_picks_below_average(self):
        """Lemma 3.5: the h* that best_part and best_member choose has
        potential <= family average."""
        sel = self._two_vertex_setup()
        edges = [(3, 7)]
        a_star = sel.best_part(edges)
        b_star = sel.best_member(a_star, edges)
        chosen = brute_force_phi(sel, edges, a_star, b_star)
        total = sel.part_sums(edges).sum()
        average = total / (sel.p * sel.p)
        assert chosen <= average + 1e-9

    def test_choose_without_conflicts(self):
        sel = self._two_vertex_setup()
        empty = np.empty((0, 2), dtype=np.int64)
        assert sel.best_part(empty) == 0
        assert sel.best_member(17, empty) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_random_instances_below_average(self, seed):
        rng = np.random.default_rng(seed)
        p = 47
        vertices = {x: rng.integers(0, 5, size=4) for x in range(6)}
        for x in vertices:
            if vertices[x].sum() == 0:
                vertices[x][rng.integers(0, 4)] = 1
        sel = make_selector(p, 12, 4, vertices)
        edges = [(0, 1), (2, 3), (4, 5), (0, 5)]
        a_star = sel.best_part(edges)
        b_star = sel.best_member(a_star, edges)
        chosen = brute_force_phi(sel, edges, a_star, b_star)
        average = sel.part_sums(edges).sum() / (p * p)
        assert chosen <= average + 1e-9

    def test_accumulator_bits_positive(self):
        sel = self._two_vertex_setup()
        assert sel.accumulator_bits() >= sel.p


@st.composite
def selector_instances(draw):
    """Small selectors with the shapes the callers produce, plus edge cases.

    ``subcube``: every vertex has cids ``0..k-1`` (Algorithm 1 stages);
    ``identical``: one shared slack vector, which forces exact ties;
    ``lists``: each vertex a random subset of a larger cid space, often a
    single candidate (list-coloring classes and final-stage colors).
    """
    p = draw(st.sampled_from([47, 53, 61, 101]))
    mode = draw(st.sampled_from(["subcube", "identical", "lists"]))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    cid_space = k if mode != "lists" else draw(st.integers(k, 12))
    slack = st.integers(1, 6)
    shared = draw(st.lists(slack, min_size=k, max_size=k))
    sel = SlackWeightedSelector(p, n, cid_space)
    for x in range(n):
        if mode == "lists":
            cids = draw(st.lists(st.integers(0, cid_space - 1), min_size=1,
                                 max_size=k, unique=True))
            slacks = draw(st.lists(slack, min_size=len(cids),
                                   max_size=len(cids)))
        else:
            cids = list(range(k))
            slacks = shared if mode == "identical" else draw(
                st.lists(st.integers(0, 6), min_size=k, max_size=k)
                .filter(any)
            )
        sel.register_vertex(x, cids, slacks)
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    return sel, edges


class TestReferenceDifferential:
    """The selector against the per-edge float reference defined above."""

    @given(selector_instances(), st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, instance, extra_a):
        sel, edges = instance
        assert_matches_reference(sel, edges)
        a = extra_a % sel.p
        assert_same_pick(sel.member_sums(a, edges),
                         reference_member_sums(sel, a, edges))

    def test_exact_ties_break_like_the_float_sums(self):
        """Identical slack vectors make many parts tie exactly; the
        re-scored band must still pick the reference's first minimizer."""
        slacks = [3, 1, 2, 5]
        sel = make_selector(101, 40, 4, {x: slacks for x in range(40)})
        edges = [(x, (7 * x + 3) % 40) for x in range(40) if x != (7 * x + 3) % 40]
        ref = reference_part_sums(sel, edges)
        assert (ref == ref.min()).sum() > 1
        assert_matches_reference(sel, edges)

    def test_float_tie_of_unequal_exact_sums(self):
        """A heavy constant edge first, then two light edges whose profiles
        each stay below half an ulp of the heavy sum: every light addition
        rounds away, so parts whose exact sums differ (and differ after
        one rounding) tie in float, and the reference's first float
        minimizer is not an exact minimizer.  Only the band re-score, in
        edge order, recovers it."""
        sel = SlackWeightedSelector(101, 8, 3)
        sel.register_vertex(0, [0], [1])
        sel.register_vertex(1, [0], [1])
        for x in (2, 3, 4, 5):
            sel.register_vertex(x, [1, 2], [10**15, 10**15])
        edges = [(0, 1), (2, 3), (4, 5)]
        exact = rational_part_sums(sel, edges)
        ref = reference_part_sums(sel, edges)
        a_float = int(np.argmin(ref))
        assert exact[a_float] > min(exact)
        rounded_once = [float(x) for x in exact]
        assert a_float != int(np.argmin(rounded_once))
        assert int64_exact(10**15, sel.p, len(edges))
        assert_matches_reference(sel, edges)

    def test_member_exact_ties_break_like_the_float_sums(self):
        """The member-sum version: with identical slack vectors, part 53's
        member sums tie exactly at 7 values of ``b``, and the reference's
        float pick is not the first of them; the band re-score must still
        pick it."""
        slacks = [3, 1, 2, 5]
        sel = make_selector(101, 40, 4, {x: slacks for x in range(40)})
        edges = [(x, (7 * x + 3) % 40) for x in range(40) if x != (7 * x + 3) % 40]
        exact = rational_member_sums(sel, 53, edges)
        ties = [b for b, value in enumerate(exact) if value == min(exact)]
        ref = reference_member_sums(sel, 53, edges)
        assert len(ties) == 7 and int(np.argmin(ref)) != ties[0]
        assert_same_pick(sel.member_sums(53, edges), ref)

    def test_member_float_tie_of_unequal_exact_sums(self):
        """Sixteen weight-2 edges that collide at every member, then two
        light edges whose weights stay below half an ulp of 32: every light
        addition rounds away, so the float member sums all tie at 32.0
        while the exact sums differ (and differ after one rounding).  The
        reference's first float minimizer is then not an exact minimizer;
        only the band re-score, in edge order, recovers it."""
        sel = SlackWeightedSelector(101, 8, 3)
        sel.register_vertex(np.arange(17), np.zeros((17, 1)), np.ones((17, 1)))
        sel.register_vertex([20, 21, 22, 23], np.tile([1, 2], (4, 1)),
                            np.full((4, 2), 10**15))
        edges = [(0, x) for x in range(1, 17)] + [(20, 21), (22, 23)]
        exact = rational_member_sums(sel, 1, edges)
        ref = reference_member_sums(sel, 1, edges)
        assert (ref == 32.0).all()
        assert exact[0] > min(exact)
        assert int(np.argmin([float(x) for x in exact])) != 0
        assert int64_exact(10**15, sel.p, len(edges))
        assert_same_pick(sel.member_sums(1, edges), ref)

    def test_empty_and_disjoint_edges(self):
        sel = SlackWeightedSelector(47, 4, 10)
        sel.register_vertex(0, [1, 2], [1, 3])
        sel.register_vertex(1, [5, 7], [2, 2])
        sel.register_vertex(2, [7], [4])
        for edges in ([], [(0, 1)], [(1, 0), (2, 1)]):
            assert_matches_reference(sel, edges)
        assert not sel.part_sums([(0, 1)]).any()

    def test_unregistered_vertex_rejected(self):
        sel = make_selector(47, 4, 2, {0: [1, 1]})
        with pytest.raises(ReproError, match="vertex 3"):
            sel.part_sums([(0, 3)])

    def test_int64_overflow_falls_back_to_exact_integers(self):
        """Slacks with a huge lcm push the scaled sums past int64; the
        Python-integer tier must still reproduce the reference argmins."""
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                  1000117, 1000121, 1000133]
        vertices = {x: primes[3 * x:3 * x + 3] for x in range(3)}
        sel = make_selector(61, 3, 3, vertices)
        edges = [(0, 1), (2, 1), (0, 2)]
        assert not int64_exact(math.lcm(*primes), sel.p, len(edges))
        assert_matches_reference(sel, edges)


# ----------------------------------------------------------------------
# The exact reference: every row's overlap profile written out over all of
# Z_p and read at each part, Θ(rows · p) numpy work in the exact tier's
# dtype.  The part sums must reproduce it element for element.
# ----------------------------------------------------------------------
def reference_exact_part_sums(p, delta, shared, weight, dtype):
    """Scaled exact part sums ``sum_r W_r |A_r ∩ (B_r - a δ_r)|`` for every
    ``a``, one row of ``shared`` at a time."""
    shifts = np.arange(p)
    exact = np.zeros(p, dtype=dtype)
    for r in range(len(delta)):
        t0 = (shared.b0[r] - shifts * delta[r]) % p
        end = t0 + (shared.b1[r] - shared.b0[r])
        ov = np.maximum(0, np.minimum(shared.a1[r], np.minimum(end, p))
                        - np.maximum(shared.a0[r], t0))
        ov += np.maximum(0, np.minimum(shared.a1[r], end - p) - shared.a0[r])
        exact += weight[r:r + 1] * ov
    return exact


def exact_inputs(sel, edges):
    """The arguments ``part_sums`` hands to ``_exact_part_sums``."""
    edges = _as_edges(edges)
    shared = sel._shared_blocks(edges)
    scale, dtype, weight = _scaled_weights(shared, sel.p, len(edges))
    delta = (edges[:, 1] - edges[:, 0]) % sel.p
    return sel.p, delta[shared.edge], shared, weight, dtype


def assert_matches_exact_reference(args):
    got = _exact_part_sums(*args)
    want = reference_exact_part_sums(*args)
    assert got.dtype == want.dtype == args[4]
    assert np.array_equal(got, want)
    return got


def special_instance(p, seed):
    """A random selector whose conflict edges cover the part sums' cases.

    Vertex ids include pairs at distance 1 and ``(p ± 1)/2``, so the
    ``δ``-groups include ``s = 1`` in both step signs, both middle steps,
    ``δ = 0`` (self-loops) and random steps of both signs; every other
    vertex has candidate 0, so each of these edges has a shared candidate.
    Vertices 3 and 10 have one candidate, which owns every slot, so the
    edge between them has a flat profile: a one-segment group.
    """
    rng = np.random.default_rng(seed)
    h = (p - 1) // 2
    ids = np.unique(np.concatenate((
        [0, 1, 2, 3, 10, h, h + 1, h + 2], rng.choice(p, size=24, replace=False))))
    sel = SlackWeightedSelector(p, len(ids), 6)
    for x in ids.tolist():
        if x in (3, 10):
            sel.register_vertex(x, [4], [3])
            continue
        width = int(rng.integers(1, 5))
        cids = np.concatenate(([0], rng.choice(5, size=width - 1, replace=False) + 1))
        slacks = rng.integers(0, 7, size=width)
        slacks[0] += 1
        sel.register_vertex(x, cids, slacks)
    edges = [(0, 1), (1, 0), (1, 2), (0, h), (0, h + 1), (h + 2, 1), (2, 2),
             (h, h), (3, 10)]
    pairs = rng.choice(ids, size=(40, 2))
    edges += [tuple(e) for e in pairs.tolist()]
    return sel, edges


class TestKinkEventDifferential:
    """The part sums from kink events against the exact reference above,
    element for element."""

    @pytest.mark.parametrize("p", [1009, 16411])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_special_steps_match(self, p, seed):
        sel, edges = special_instance(p, seed)
        args = exact_inputs(sel, edges)
        assert_matches_exact_reference(args)
        seg = _profile_segments(*args)
        h = (p - 1) // 2
        assert {0, 1, p - 1, 7, h, h + 1} <= set(seg.groups.tolist())
        assert (seg.groups[1:] < h).any() and (seg.groups > h + 1).any()
        assert (np.diff(seg.bounds) == 1).any()

    def test_dense_group(self):
        """300 edges at distance 300 share one δ: one group whose ``s k``
        kink events outnumber the ``p`` parts, beside a few sparse ones."""
        rng = np.random.default_rng(3)
        sel = SlackWeightedSelector(16411, 600, 4)
        sel.register_vertex(np.arange(600), np.tile(np.arange(4), (600, 1)),
                            rng.integers(1, 9, size=(600, 4)))
        edges = [(i, i + 300) for i in range(300)] + [(5, 7), (9, 8), (4, 4)]
        args = exact_inputs(sel, edges)
        seg = _profile_segments(*args)
        dense = int(np.flatnonzero(seg.groups == 300)[0])
        kinks = np.count_nonzero(seg.impulse[seg.bounds[dense]:seg.bounds[dense + 1]])
        assert 300 * kinks > sel.p
        assert_matches_exact_reference(args)

    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_batch_boundaries(self, monkeypatch, batch):
        """Shrunk batches cut rows of events at every boundary."""
        monkeypatch.setattr(selector_module, "_EVENT_BATCH", batch)
        sel, edges = special_instance(1009, 4)
        assert_matches_exact_reference(exact_inputs(sel, edges))

    def test_int64_wrap_around(self):
        """Slack 1 against a large lcm: the scaled sums fit int64, yet a kink
        event has ``|I pos| >= 2^63``, so its int64 product wraps; the
        result is still exact."""
        p, q1, q2 = 16411, 3_000_000, 3_000_001
        sel = SlackWeightedSelector(p, 3, 2)
        sel.register_vertex(0, [0, 1], [1, q1])
        sel.register_vertex(500, [0, 1], [1, q2])
        sel.register_vertex(900, [0, 1], [1, q1])
        edges = [(0, 500), (900, 500), (0, 900)]
        args = exact_inputs(sel, edges)
        assert args[4] is np.int64
        seg = _profile_segments(*args)
        owner = np.repeat(np.arange(len(seg.groups)), np.diff(seg.bounds))
        step = np.minimum(seg.groups, p - seg.groups)
        largest = max(abs(int(seg.impulse[r])) * (int(step[owner[r]]) - 1) * p
                      for r in range(len(owner)))
        assert largest >= 2**63
        exact = assert_matches_exact_reference(args)
        assert exact.min() >= 0

    def test_python_integer_tier(self):
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                  1000117, 1000121, 1000133]
        sel = SlackWeightedSelector(1009, 3, 3)
        for x, at in ((0, 0), (1, 400), (2, 700)):
            sel.register_vertex(at, [0, 1, 2], primes[3 * x:3 * x + 3])
        edges = [(0, 400), (700, 400), (0, 700), (400, 400)]
        args = exact_inputs(sel, edges)
        assert args[4] is object
        assert_matches_exact_reference(args)
