"""Theorem 2: deterministic semi-streaming (deg+1)-list-coloring.

The input stream interleaves edges of ``G`` with ``(x, L_x)`` tokens giving
each vertex's allowed colors (``|L_x| >= deg(x) + 1``) drawn from a color
universe ``C`` of size ``O(n^2)``.  Same bounds as Theorem 1:
``O(n log^2 n)`` bits, ``O(log Delta log log Delta)`` passes.

Differences from Algorithm 1 (Section 3.5):

1. **Adaptive partitions instead of bit subcubes.**  Because ``P_x ∩ L_x``
   cannot be evaluated arithmetically for arbitrary lists, each stage first
   *selects* a partition ``Q^{(i)}`` of the color universe from the
   Lemma 3.10 family ``F`` (built on 2-universal hashing), choosing one for
   which ``sum_x a_R(P_x ∩ L_x)`` is sub-average, where
   ``a_R(S) = max_class(|S ∩ class| - 1)``.  The selection uses the same
   multi-level group-minimization trick as the hash search (the paper uses
   four passes over ``|F|^{1/4}``-sized groups).  Lemma 3.10 then drives
   the decay ``sum_x (|P_x ∩ L_x| - 1) -> <= |U|`` within
   ``ceil(2 log(Delta+1)/k)`` stages; we additionally stop early once the
   (stream-measurable) quantity actually drops below ``|U|``.
2. **Class choice per vertex** still uses the slack-weighted,
   Carter-Wegman-derandomized selector — "the analysis to prove that the
   potential does not increase by much requires no adjustment".
3. **Final singleton stage.**  Once ``sum_x (|P_x ∩ L_x| - 1) <= |U|``, a
   recording pass stores each ``P_x ∩ L_x`` explicitly (``<= 2|U|`` color
   ids in total), a marking pass flags colors used by colored neighbors,
   and the selector (candidates = the surviving colors themselves, uniform
   slack) picks each vertex's proposal.

``P_x`` is represented by its *chain*: the per-stage class indices under
the globally chosen partitions — the paper's ``O(log n)``-bit encoding.

As with Algorithm 1, the run executes on the resumable pass machine of
:mod:`repro.streaming.machine`: the epoch state (chains, partitions,
proposals), the partition-search candidates, the slack counters, and the
registered selector all live in ``self._mach`` between passes, making
runs snapshot/restorable at every pass boundary.

The conflict-edge pass (here masked by equal chains, and by equal
proposals in the F pass), the hash-family search, the Turán commit and the
final pass are Algorithm 1's, shared from :mod:`repro.core.deterministic`;
the mass, partition-score, slack, record and mark passes are this module's.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import ceil_div, ceil_log2, floor_log2
from repro.core.deterministic import (
    ConflictEdgeConsumer,
    FinalPassConsumer,
    epoch_check,
    family_proposals,
    family_selector,
    turan_commit,
)
from repro.graph.coloring import coloring_array, complete_partial_coloring
from repro.hashing.partitions import PartitionFamily
from repro.kernels import dispatch
from repro.streaming.machine import PassConsumer, require_machine
from repro.streaming.model import MultipassStreamingAlgorithm
from repro.streaming.tokens import ListToken


@dataclass
class ListRunStats:
    """Diagnostics: the Lemma 3.10 decay and pass/epoch counts."""

    passes: int = 0
    epochs: int = 0
    # (epoch, measured sum_x (|P_x ∩ L_x| - 1)) before each partition stage.
    list_mass_per_stage: list[tuple[int, int]] = field(default_factory=list)


class _EpochState:
    """Per-epoch PCC state: partition chains and the stage partitions."""

    def __init__(self, uncolored):
        self.members = sorted(uncolored)
        # chain[x] = tuple of chosen class indices, one per completed stage.
        self.chain = {x: () for x in self.members}
        # One color->class array per completed stage (shared by all x).
        self.partitions: list[np.ndarray] = []
        self.proposals: dict[int, int] = {}


# ----------------------------------------------------------------------
# pass consumers
# ----------------------------------------------------------------------

class _ListMassConsumer(PassConsumer):
    """The Lemma 3.10 decay quantity ``sum_x (|P_x ∩ L_x| - 1)``."""

    def __init__(self, algo, uncolored, state):
        self.algo = algo
        self.uncolored = uncolored
        self.state = state
        self.seen: set = set()
        self.total = 0

    def feed(self, item) -> None:
        if not isinstance(item, ListToken):
            return
        x = item.x
        if x in self.uncolored and x not in self.seen:
            self.seen.add(x)
            colors = self.algo._token_colors(item)
            count = int(self.algo._contains_colors(self.state, x, colors).sum())
            self.total += max(0, count - 1)

    def finish(self):
        return self.total


class _PartitionScoreConsumer(PassConsumer):
    """Group-scoring pass of the Lemma 3.10 partition search.

    All candidate members are scored at once against the family's
    precomputed class table: per list token, one occupancy bincount over
    ``(member, class)`` keys yields every member's ``a_R`` value, then a
    grouped sum.  Scores are integer-valued float sums.
    """

    def __init__(self, algo, uncolored, state, family, groups):
        self.algo = algo
        self.uncolored = uncolored
        self.state = state
        self.s = family.s
        table = family.class_table()
        row_of = {key: i for i, key in enumerate(family.members())}
        cand_keys = [key for group in groups for key in group]
        self.rows = np.fromiter(
            (row_of[key] for key in cand_keys), dtype=np.int64,
            count=len(cand_keys),
        )
        self.group_ids = np.repeat(
            np.arange(len(groups)), [len(group) for group in groups]
        )
        self.sub_table = table[self.rows]  # (M, universe + 1)
        self.scores = np.zeros(len(groups))
        self.num_groups = len(groups)
        self.seen: set = set()

    def feed(self, item) -> None:
        if not isinstance(item, ListToken) or item.x not in self.uncolored:
            return
        x = item.x
        if x in self.seen:
            return
        self.seen.add(x)
        colors = self.algo._token_colors(item)
        survivors = colors[self.algo._contains_colors(self.state, x, colors)]
        if not len(survivors):
            return
        self.scores += dispatch(
            "partition_scores", self.sub_table, survivors,
            self.group_ids, self.num_groups, self.s,
        )

    def finish(self):
        return self.scores


class _ListSlackConsumer(PassConsumer):
    """The slack counter pass (both base and used, per class).

    List tokens contribute to per-vertex ``base`` histograms via one
    masked ``np.add.at`` each; edge blocks accumulate ``used`` with a
    flat ``np.bincount`` over ``(vertex, class)`` keys, exactly as the
    deterministic algorithm's stage pass does.
    """

    def __init__(self, algo, chi, uncolored, state, partition_arr, s):
        self.algo = algo
        self.uncolored = uncolored
        self.state = state
        self.partition_arr = partition_arr
        self.s = s
        self.members = state.members
        member_mask, chain_matrix = algo._chain_arrays(state)
        self.member_mask = member_mask
        self.chain_matrix = chain_matrix
        self.chi_arr = coloring_array(algo.n, chi)
        self.base = {x: np.zeros(s, dtype=np.int64) for x in self.members}
        self.used_counts = np.zeros(algo.n * s, dtype=np.int64)
        self.seen_lists: set = set()

    def feed(self, item) -> None:
        s = self.s
        if isinstance(item, ListToken):
            x = item.x
            if x in self.uncolored and x not in self.seen_lists:
                self.seen_lists.add(x)
                colors = self.algo._token_colors(item)
                colors = colors[self.algo._contains_colors(self.state, x, colors)]
                np.add.at(self.base[x], self.partition_arr[colors], 1)
        elif isinstance(item, np.ndarray):
            for xs, ys in ((item[:, 0], item[:, 1]), (item[:, 1], item[:, 0])):
                cy = self.chi_arr[ys]
                sel = self.member_mask[xs] & (cy > 0)
                if not sel.any():
                    continue
                xs_s, cy_s = xs[sel], cy[sel]
                inside = self.algo._contains_pairs(
                    self.state, self.chain_matrix, xs_s, cy_s
                )
                if inside.any():
                    self.used_counts += np.bincount(
                        xs_s[inside] * s + self.partition_arr[cy_s[inside]],
                        minlength=self.algo.n * s,
                    )

    def finish(self):
        used = self.used_counts.reshape(self.algo.n, self.s)
        return {
            x: np.maximum(0, self.base[x] - used[x]) for x in self.members
        }


class _RecordConsumer(PassConsumer):
    """Final-stage recording pass: ``P_x ∩ L_x`` explicitly per vertex."""

    def __init__(self, algo, uncolored, state):
        self.algo = algo
        self.uncolored = uncolored
        self.state = state
        self.candidates: dict[int, list] = {x: [] for x in state.members}
        self.seen: set = set()

    def feed(self, item) -> None:
        if isinstance(item, ListToken) and item.x in self.uncolored:
            if item.x in self.seen:
                return
            self.seen.add(item.x)
            colors = self.algo._token_colors(item)
            inside = colors[
                self.algo._contains_colors(self.state, item.x, colors)
            ]
            self.candidates[item.x] = np.sort(inside).tolist()

    def finish(self):
        return self.candidates


class _MarkingConsumer(PassConsumer):
    """Final-stage marking pass: colors used by already-colored neighbors."""

    def __init__(self, algo, chi, state):
        self.algo = algo
        member_mask, _ = algo._chain_arrays(state)
        self.member_mask = member_mask
        self.chi_arr = coloring_array(algo.n, chi)
        self.members = state.members
        self.key_chunks: list = []

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        for xs, ys in ((item[:, 0], item[:, 1]), (item[:, 1], item[:, 0])):
            cy = self.chi_arr[ys]
            sel = self.member_mask[xs] & (cy > 0)
            if sel.any():
                self.key_chunks.append(
                    xs[sel] * (self.algo.universe + 1) + cy[sel]
                )

    def finish(self):
        unavailable: dict[int, set[int]] = {x: set() for x in self.members}
        if self.key_chunks:
            keys = np.unique(np.concatenate(self.key_chunks))
            for x, color in zip(
                (keys // (self.algo.universe + 1)).tolist(),
                (keys % (self.algo.universe + 1)).tolist(),
            ):
                unavailable[x].add(color)
        return unavailable


class DeterministicListColoring(MultipassStreamingAlgorithm):
    """Deterministic multipass (deg+1)-list-coloring (Theorem 2).

    Every pass runs vectorized on the pass machine over edge blocks with
    ``ListToken`` items interleaved in place: list-token work is numpy
    per token (survivor masks over the chain's partition arrays), edge
    work is masked block arithmetic, and the Lemma 3.10 partition search
    scores whole candidate groups against the family's precomputed class
    table.
    """

    def __init__(
        self,
        n: int,
        delta: int,
        color_universe_size: int,
        selection: str = "hash_family",
        prime_policy: str = "paper",
        prime=None,
        partition_levels: int = 4,
        instrument: bool = False,
        max_epochs=None,
    ):
        super().__init__()
        if selection not in ("hash_family", "greedy_slack"):
            raise ReproError(f"unknown selection mode {selection!r}")
        if color_universe_size < 1:
            raise ReproError("color universe must be non-empty")
        self.n = n
        self.delta = delta
        self.universe = color_universe_size
        # Colors are drawn from [1, universe]; per-vertex lists constrain
        # further, so validation goes through ``lists``, not this bound.
        self.palette_size = color_universe_size
        self.selection = selection
        self.prime_policy = prime_policy
        self.prime_override = prime
        self.partition_levels = partition_levels
        self.instrument = instrument
        if max_epochs is None:
            max_epochs = 4 * max(1, ceil_log2(max(2, delta + 1))) + 8
        self.max_epochs = max_epochs
        self.stats = ListRunStats()

    # ------------------------------------------------------------------
    # pass machine
    # ------------------------------------------------------------------
    def blocks_start(self) -> None:
        n = self.n
        chi: dict[int, int] = {v: None for v in range(n)}
        uncolored = set(range(n))
        self.meter.set_gauge(
            "partial coloring", n * (ceil_log2(max(2, self.universe)) + 1)
        )
        if self.delta == 0:
            # No epoch loop runs: stats stay unset.
            self._mach = {
                "phase": "final", "chi": chi, "uncolored": uncolored,
                "epoch": None,
            }
            return
        self._mach = {
            "phase": "epoch_check", "chi": chi, "uncolored": uncolored,
            "epoch": 0,
        }
        self._machine_advance()

    def blocks_consumer(self):
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "mass":
            return _ListMassConsumer(self, mach["uncolored"], mach["state"])
        if phase == "pscore":
            return _PartitionScoreConsumer(
                self, mach["uncolored"], mach["state"], mach["family"],
                mach["groups"],
            )
        if phase == "pslack":
            return _ListSlackConsumer(
                self, mach["chi"], mach["uncolored"], mach["state"],
                mach["partition_arr"], mach["s"],
            )
        if phase in ("pconf_a", "pconf_b", "fs_conf_a", "fs_conf_b"):
            member_mask, chain_matrix = self._chain_arrays(mach["state"])
            return ConflictEdgeConsumer(
                self.n,
                lambda u, v: dispatch(
                    "chain_conflict_mask", u, v, member_mask, chain_matrix
                ),
            )
        if phase == "fs_record":
            return _RecordConsumer(self, mach["uncolored"], mach["state"])
        if phase == "fs_mark":
            return _MarkingConsumer(self, mach["chi"], mach["state"])
        if phase == "commit":
            member_mask, _ = self._chain_arrays(mach["state"])
            proposals = mach["state"].proposals
            prop = np.full(self.n, -1, dtype=np.int64)
            prop[list(proposals)] = list(proposals.values())
            return ConflictEdgeConsumer(
                self.n,
                lambda u, v: member_mask[u] & member_mask[v] & (prop[u] == prop[v]),
            )
        if phase == "final":
            return FinalPassConsumer(self.n, mach["uncolored"])
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "mass":
            if self.instrument:
                self.stats.list_mass_per_stage.append((mach["epoch"], result))
            if result <= len(mach["state"].members):
                mach["phase"] = "fs_record"
            else:
                self._enter_partition_stage()
                self._machine_advance()
        elif phase == "pscore":
            self._deliver_partition_scores(result)
            self._machine_advance()
        elif phase == "pslack":
            self._deliver_slacks(result)
            self._machine_advance()
        elif phase == "pconf_a":
            mach["a_star"] = mach["selector"].best_part(result)
            mach["phase"] = "pconf_b"
        elif phase == "pconf_b":
            proposals = family_proposals(
                mach.pop("selector"), mach["a_star"], result,
                mach["state"].members,
            )
            self.meter.clear_gauge("part accumulators")
            self._tighten_stage(proposals)
            self._machine_advance()
        elif phase == "fs_record":
            total_ids = sum(len(v) for v in result.values())
            self.meter.set_gauge(
                "final-stage candidates",
                total_ids * ceil_log2(max(2, self.universe)),
            )
            mach["fcand"] = result
            mach["phase"] = "fs_mark"
        elif phase == "fs_mark":
            self._deliver_marking(result)
        elif phase == "fs_conf_a":
            mach["a_star"] = mach["selector"].best_part(result)
            mach["phase"] = "fs_conf_b"
        elif phase == "fs_conf_b":
            state = mach["state"]
            state.proposals = family_proposals(
                mach.pop("selector"), mach["a_star"], result, state.members
            )
            self.meter.clear_gauge("final-stage candidates")
            mach["phase"] = "commit"
        elif phase == "commit":
            self._deliver_commit(result)
            self._machine_advance()
        elif phase == "final":
            self._deliver_final(result, stream)

    # -- machine transitions -------------------------------------------
    def _machine_advance(self) -> None:
        mach = self._mach
        while True:
            phase = mach["phase"]
            if phase == "epoch_check":
                if epoch_check(self):
                    continue
                return
            if phase == "mass_check":
                # The stage loop runs the mass pass before each of its
                # max_partition_stages iterations; once exhausted, the
                # final stage begins without another mass measurement.
                if mach["pstage"] < mach["max_partition_stages"]:
                    mach["phase"] = "mass"
                else:
                    mach["phase"] = "fs_record"
                return
            if phase == "psel_next":
                if self._partition_select_next():
                    return
                continue
            return

    def _enter_epoch(self) -> None:
        mach = self._mach
        n = self.n
        uncolored = mach["uncolored"]
        k = 1 + floor_log2(max(1, n // len(uncolored)))
        state = _EpochState(uncolored)
        self.meter.set_gauge(
            "pcc chains",
            len(state.members)
            * (2 * ceil_log2(max(2, self.delta + 1))
               + ceil_log2(max(2, self.universe))),
        )
        mach["k"] = k
        mach["s"] = 1 << k
        mach["state"] = state
        mach["max_partition_stages"] = (
            ceil_div(2 * ceil_log2(self.delta + 1), k) + 2
        )
        mach["pstage"] = 0
        mach["phase"] = "mass_check"

    def _enter_partition_stage(self) -> None:
        """Begin the Lemma 3.10 family search for this stage's partition."""
        mach = self._mach
        family = PartitionFamily(self.universe, mach["s"])
        mach["family"] = family
        mach["candidates"] = list(family.members())
        mach["level"] = 0
        mach["final_select"] = False
        mach["phase"] = "psel_next"

    def _partition_select_next(self) -> bool:
        """Set up the next scoring pass; False once a partition is chosen."""
        mach = self._mach
        candidates = mach["candidates"]
        levels = max(1, self.partition_levels)
        if mach["level"] < levels and len(candidates) > 1:
            # Group count ~ |candidates|^(1/(levels - level)) so the last
            # level reaches singletons, mirroring |F|^{1/4} groups per pass.
            remaining = levels - mach["level"]
            group_count = max(2, round(len(candidates) ** (1.0 / remaining)))
            group_size = ceil_div(len(candidates), group_count)
            mach["groups"] = [
                candidates[i : i + group_size]
                for i in range(0, len(candidates), group_size)
            ]
        elif len(candidates) > 1:
            mach["groups"] = [[key] for key in candidates]
            mach["final_select"] = True
        else:
            self._enter_slack_pass(candidates[0])
            return True
        self.meter.set_gauge(
            "partition accumulators",
            len(mach["groups"]) * 2 * ceil_log2(max(2, self.n)),
        )
        mach["phase"] = "pscore"
        return True

    def _deliver_partition_scores(self, scores) -> None:
        mach = self._mach
        self.meter.clear_gauge("partition accumulators")
        if mach["final_select"]:
            key = mach["candidates"][int(np.argmin(scores))]
            del mach["groups"], mach["candidates"]
            self._enter_slack_pass(key)
            return
        mach["candidates"] = mach["groups"][int(np.argmin(scores))]
        mach["level"] += 1
        mach["phase"] = "psel_next"

    def _enter_slack_pass(self, key) -> None:
        mach = self._mach
        mach["partition_arr"] = self._materialize(mach["family"], key)
        del mach["family"]
        mach.pop("candidates", None)
        self.meter.set_gauge(
            "stage counters",
            len(mach["state"].members)
            * mach["s"] * 2 * ceil_log2(max(2, self.delta + 2)),
        )
        mach["phase"] = "pslack"

    def _deliver_slacks(self, slacks) -> None:
        """Class choice: greedy, or the 3-pass hash-family search."""
        mach = self._mach
        members = mach["state"].members
        mach["slacks"] = slacks
        if self.selection == "greedy_slack":
            self._tighten_stage({x: int(np.argmax(slacks[x])) for x in members})
            return
        s = mach["s"]
        selector = family_selector(
            self, s, members, np.arange(s), np.array([slacks[x] for x in members])
        )
        self.meter.set_gauge("part accumulators", selector.accumulator_bits())
        mach["selector"] = selector
        mach["phase"] = "pconf_a"

    def _tighten_stage(self, proposals) -> None:
        mach = self._mach
        state = mach["state"]
        slacks = mach.pop("slacks")
        for x in state.members:
            if slacks[x][proposals[x]] <= 0:
                raise ReproError(
                    f"list stage chose a zero-slack class for vertex {x}"
                )
            state.chain[x] = state.chain[x] + (proposals[x],)
        state.partitions.append(mach.pop("partition_arr"))
        self.meter.clear_gauge("stage counters")
        mach["pstage"] += 1
        mach["phase"] = "mass_check"

    def _deliver_marking(self, unavailable) -> None:
        """Final-stage selection from the surviving per-vertex colors."""
        mach = self._mach
        state = mach["state"]
        members = state.members
        candidates = mach.pop("fcand")
        avail = {
            x: [c for c in candidates[x] if c not in unavailable[x]]
            for x in members
        }
        for x in members:
            if not avail[x]:
                raise ReproError(
                    f"vertex {x} has no available color at the final stage; "
                    "slack invariant violated"
                )
        if self.selection == "greedy_slack":
            state.proposals = {x: avail[x][0] for x in members}
            self.meter.clear_gauge("final-stage candidates")
            mach["phase"] = "commit"
            return
        # One row per member, its colors at slack 1 and zero-slack padding.
        sizes = np.array([len(avail[x]) for x in members])
        listed = np.arange(sizes.max()) < sizes[:, None]
        cids = np.zeros(listed.shape, dtype=np.int64)
        cids[listed] = [c for x in members for c in avail[x]]
        mach["selector"] = family_selector(
            self, self.universe + 1, members, cids, listed.astype(np.int64)
        )
        mach["phase"] = "fs_conf_a"

    def _deliver_commit(self, conflict_edges) -> None:
        """End-of-epoch: Turán-commit an independent set of (U, F)."""
        mach = self._mach
        proposals = mach.pop("state").proposals
        turan_commit(mach["chi"], mach["uncolored"], proposals, conflict_edges)
        self.meter.clear_gauge("pcc chains")
        mach["phase"] = "epoch_check"

    def _deliver_final(self, result, stream) -> None:
        """Final pass: gauge the stored edges and lists, first-fit U from
        the lists."""
        mach = self._mach
        adjacency, stored, lists = result
        chi, uncolored = mach["chi"], mach["uncolored"]
        self.meter.set_gauge(
            "final edges+lists",
            stored * 2 * ceil_log2(max(2, self.n))
            + sum(len(l) for l in lists.values()) * ceil_log2(max(2, self.universe)),
        )

        def allowed(x):
            if x not in lists:
                raise ReproError(f"stream never provided a list for vertex {x}")
            return lists[x]

        complete_partial_coloring(
            chi, sorted(uncolored), adjacency.__getitem__, allowed
        )
        uncolored.clear()
        self.meter.clear_gauge("final edges+lists")
        if mach["epoch"] is not None:
            self.stats.passes = stream.passes_used
            self.stats.epochs = mach["epoch"]
        self._mach = {"phase": "done", "coloring": chi}

    # ------------------------------------------------------------------
    # per-pass state arrays (derived per pass; O(n) << O(m) scan cost)
    # ------------------------------------------------------------------
    def _chain_arrays(self, state):
        """``(member_mask, chain_matrix)`` arrays mirroring the PCC chains.

        ``chain_matrix[t, x]`` is vertex ``x``'s class at stage ``t``
        (-1 for non-members), so chain containment and chain equality
        become branch-free array comparisons.
        """
        n = self.n
        stages = len(state.partitions)
        member_mask = np.zeros(n, dtype=bool)
        if state.members:
            member_mask[state.members] = True
        chain_matrix = np.full((stages, n), -1, dtype=np.int64)
        for x in state.members:
            chain = state.chain[x]
            for t in range(stages):
                chain_matrix[t, x] = chain[t]
        return member_mask, chain_matrix

    def _contains_colors(self, state, x, colors: np.ndarray) -> np.ndarray:
        """Mask of ``colors`` inside ``P_x`` (vectorized chain walk)."""
        mask = np.ones(len(colors), dtype=bool)
        for arr, cls in zip(state.partitions, state.chain[x]):
            mask &= arr[colors] == cls
        return mask

    def _contains_pairs(self, state, chain_matrix, xs, colors) -> np.ndarray:
        """Mask where ``colors[i]`` lies in ``P_{xs[i]}``, elementwise."""
        if not state.partitions:
            return np.ones(len(xs), dtype=bool)
        part_stack = np.ascontiguousarray(
            np.stack(state.partitions), dtype=np.int64
        )
        return dispatch("contains_pairs", part_stack, chain_matrix, xs, colors)

    def _token_colors(self, token) -> np.ndarray:
        return np.fromiter(token.colors, dtype=np.int64, count=len(token.colors))

    def _materialize(self, family, key) -> np.ndarray:
        """Color -> class array for the chosen partition (index 1..universe)."""
        return family.class_array(*key)
