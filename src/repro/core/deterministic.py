"""Algorithm 1: deterministic multipass semi-streaming (Delta+1)-coloring.

Theorem 1: ``O(n log^2 n)`` bits of space, ``O(log Delta * log log Delta)``
passes, palette exactly ``[Delta + 1]``.

Structure (Section 3.1-3.3):

- **Epochs** (``COLORING-EPOCH``): start from the current proper partial
  coloring ``(U, chi)`` with the trivial PCC ``P_x = {0,1}^b``; each epoch
  colors at least a third of ``U`` (Lemma 3.8) and epochs stop once
  ``|U| <= n / Delta``.
- **Stages** within an epoch: fix the next ``k = 1 + floor(log(n/|U|))``
  bits of every ``P_x``, choosing each vertex's bit pattern via the
  slack-weighted, hash-family-derandomized selection of
  :mod:`repro.core.selector` (3 streaming passes per stage: slack counters,
  part sums, member sums).
- **End of epoch**: each ``P_x`` is a singleton proposal; one pass collects
  the would-be-monochromatic edges ``F`` (Lemma 3.7: ``|F| <= |U|``), and
  the constructive Turán lemma commits the proposals on an independent set
  of ``(U, F)``.
- **Final pass** (line 6): once ``|U| <= n/Delta``, store every edge
  incident to ``U`` (at most ``|U| * Delta <= n``) and finish greedily.

``selection="greedy_slack"`` swaps the family search for the max-slack
heuristic (1 pass per stage, no Lemma 3.5 guarantee) — see DESIGN.md,
faithfulness note 1.

The run executes on the resumable pass machine of
:mod:`repro.streaming.machine`: every cross-pass quantity — the partial
coloring, the uncolored set, the subcube PCCs, per-stage slack counters,
the registered selector, the committed proposals — lives in ``self._mach``
between passes (and is therefore snapshot-complete for
``repro.persist``); the intra-pass accumulators live in the pass
consumers, rebuilt by deterministic replay on restore.

Theorem 2 (:mod:`repro.core.list_coloring`) is this algorithm with
partition chains in place of subcubes and reuses the steps written here
once: the conflict-edge pass (:class:`ConflictEdgeConsumer`), the
hash-family search (:func:`family_selector`, ``best_part`` and
:func:`family_proposals`), the Turán commit (:func:`turan_commit`), the
epoch loop (:func:`epoch_check`) and the final pass
(:class:`FinalPassConsumer`).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.common.exceptions import ReproError
from repro.common.integer_math import (
    ceil_log2,
    floor_log2,
    next_prime,
    prime_in_range,
)
from repro.core.selector import SlackWeightedSelector
from repro.core.subcube import Subcube
from repro.graph.coloring import coloring_array, complete_partial_coloring
from repro.graph.csr import dedupe_edges
from repro.graph.graph import Graph
from repro.graph.independent_set import turan_independent_set
from repro.kernels import dispatch
from repro.streaming.blocks import group_pairs
from repro.streaming.machine import PassConsumer, require_machine
from repro.streaming.model import MultipassStreamingAlgorithm
from repro.streaming.tokens import EdgeToken, ListToken


# Pending-key budget for the block slack pass: flushing the (vertex,
# pattern) batch into the histogram at this size keeps peak memory bounded
# by the batch while amortizing the O(n*s) bincount over many blocks.
_FLUSH_KEYS = 1 << 20


@dataclass
class StageStats:
    """Instrumentation for one stage (used by experiments F1/A1)."""

    epoch: int
    stage: int
    k: int
    potential_before: float
    potential_after: float
    uncolored: int


@dataclass
class EpochStats:
    """Instrumentation for one epoch (experiment F2)."""

    epoch: int
    uncolored_before: int
    uncolored_after: int
    conflict_edges: int
    stages: int


@dataclass
class RunStats:
    """Aggregate run diagnostics."""

    passes: int = 0
    epochs: int = 0
    stage_stats: list[StageStats] = field(default_factory=list)
    epoch_stats: list[EpochStats] = field(default_factory=list)


def choose_family_prime(n: int, policy: str, override=None) -> int:
    """The Carter-Wegman prime for the stage selector.

    ``policy="paper"`` takes a prime in ``[8 n log n, 16 n log n]``
    (Algorithm 1, line 16); ``policy="scaled"`` takes the first prime
    ``>= max(2n+1, 17)``, trading the Lemma 3.2 approximation constant for
    speed on larger inputs (DESIGN.md, note 1).
    """
    if override is not None:
        return next_prime(override)
    log_n = max(1, ceil_log2(max(2, n)))
    if policy == "paper":
        return prime_in_range(8 * n * log_n, 16 * n * log_n)
    if policy == "scaled":
        return next_prime(max(2 * n + 1, 17))
    raise ReproError(f"unknown prime policy {policy!r}")


def family_selector(algo, cid_space, members, cids, slacks) -> SlackWeightedSelector:
    """The family search's set-up in both theorems (Algorithm 1, line 16).

    Picks ``algo``'s Carter-Wegman prime, builds the selector and
    registers every member's g_w blocks in one batch: ``slacks`` has one
    row per member, a zero slack padding a short row, and ``cids`` is
    either such rows or one row that every member shares.
    """
    p = choose_family_prime(algo.n, algo.prime_policy, algo.prime_override)
    selector = SlackWeightedSelector(p, algo.n, cid_space)
    selector.register_vertex(members, np.broadcast_to(cids, np.shape(slacks)), slacks)
    return selector


def family_proposals(selector, a_star, conflict_edges, members) -> dict:
    """Pass 3's pick ``b*`` in part ``a*`` and each member's proposal
    ``g_w(x, h_{a*, b*}(x))``, as a dict in member order."""
    b_star = selector.best_member(a_star, conflict_edges)
    cids = selector.proposal_for(members, a_star, b_star)
    return dict(zip(members, cids.tolist()))


class _SlackPassConsumer(PassConsumer):
    """Stage pass 1 (line 14): the slack counters, one ``np.bincount``.

    Within an epoch every uncolored vertex's subcube shares ``(b, fixed)``
    and differs only in ``value``, so membership and ``pattern_of`` reduce
    to branch-free bit arithmetic on arrays.  Flat ``(vertex, pattern)``
    keys are batched and flushed into the histogram at ``_FLUSH_KEYS``:
    O(m + n*s*flushes) work with peak memory bounded by the batch, not the
    stream length, so the O(chunk_size)-memory promise of lazy sources
    survives this pass.
    """

    def __init__(self, algo, chi, uncolored, cubes, kk, members):
        self.algo = algo
        self.members = members
        self.kk = kk
        self.s = 1 << kk
        self.fixed = cubes[members[0]].fixed
        chi_arr, unc, cube_value = algo._state_arrays(chi, uncolored, cubes)
        self.chi_arr = chi_arr
        self.unc = unc
        self.cube_value = cube_value
        self.low_mask = (1 << self.fixed) - 1
        self.counts = np.zeros(algo.n * self.s, dtype=np.int64)
        self.key_chunks: list = []
        self.pending = 0

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        s = self.s
        for x, y in ((item[:, 0], item[:, 1]), (item[:, 1], item[:, 0])):
            keys = dispatch(
                "det_slack_keys", x, y, self.chi_arr, self.unc,
                self.cube_value, self.low_mask, self.fixed, s,
            )
            if not len(keys):
                continue
            self.key_chunks.append(keys)
            self.pending += len(keys)
            if self.pending >= _FLUSH_KEYS:
                self.counts += np.bincount(
                    np.concatenate(self.key_chunks), minlength=len(self.counts)
                )
                self.key_chunks.clear()
                self.pending = 0

    def finish(self):
        n, delta = self.algo.n, self.algo.delta
        s, kk, fixed = self.s, self.kk, self.fixed
        if self.key_chunks:
            self.counts += np.bincount(
                np.concatenate(self.key_chunks), minlength=n * s
            )
        used = self.counts.reshape(n, s)[self.members]
        # base[i, j] = |restrict(j, kk) ∩ [1, delta+1]| in closed form.
        hi = delta + 1
        step = 1 << (fixed + kk)
        values = self.cube_value[self.members][:, None] | (
            np.arange(s, dtype=np.int64)[None, :] << fixed
        )
        base = np.where(values >= hi, 0, (hi - 1 - values) // step + 1)
        slack_matrix = np.maximum(0, base - used)
        return {x: slack_matrix[i] for i, x in enumerate(self.members)}


class ConflictEdgeConsumer(PassConsumer):
    """The conflict-edge pass of both theorems: the edges ``select`` keeps.

    ``select(u, v)`` maps a block's endpoint columns to a keep mask; each
    phase builds its own.  Theorem 1 keeps the edges inside U whose
    endpoints share a subcube (``det_conflict_mask``; at the end of the
    epoch the subcubes are the proposals); Theorem 2 keeps those whose
    endpoints share a chain, and in its F pass those with equal proposals.

    Returns the kept edges as a ``(k, 2)`` array, unique and in
    first-occurrence stream order.  The selector's sums are exact, but its
    tie-break is the first minimizer of float64 sums accumulated in edge
    order, so order still matters for the member sums' rounding and the
    part sums' near-tie re-score (:mod:`repro.core.selector`).
    """

    def __init__(self, n, select):
        self.n = n
        self.select = select
        self.chunks: list = []

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        sel = self.select(item[:, 0], item[:, 1])
        if sel.any():
            self.chunks.append(item[sel])

    def finish(self):
        if not self.chunks:
            return np.empty((0, 2), dtype=np.int64)
        return dedupe_edges(self.n, np.concatenate(self.chunks), keep_order=True)


class FinalPassConsumer(PassConsumer):
    """The final pass of both theorems (lines 6-7): U's edges and lists.

    Keeps every edge incident to U and the first list token of each vertex
    in U.  ``finish`` groups the unique directed pairs ``(x, y)``, ``x`` in
    U, with one sort and returns ``(adjacency, stored, lists)``: each
    vertex's distinct neighbours, the number of pairs stored, and the lists
    (none on an edge-only stream).
    """

    def __init__(self, n, uncolored):
        self.n = n
        self.uncolored = uncolored
        self.unc = np.zeros(n, dtype=bool)
        if uncolored:
            self.unc[list(uncolored)] = True
        self.lists: dict[int, set[int]] = {}
        self.chunks: list = []

    def feed(self, item) -> None:
        if isinstance(item, ListToken):
            if item.x in self.uncolored and item.x not in self.lists:
                self.lists[item.x] = set(item.colors)
        elif isinstance(item, np.ndarray):
            keep = self.unc[item[:, 0]] | self.unc[item[:, 1]]
            if keep.any():
                self.chunks.append(item[keep])

    def finish(self):
        adjacency: dict[int, list] = {x: [] for x in self.uncolored}
        if not self.chunks:
            return adjacency, 0, self.lists
        n, unc = self.n, self.unc
        arr = np.concatenate(self.chunks)
        fwd = arr[unc[arr[:, 0]]]
        rev = arr[unc[arr[:, 1]]][:, ::-1]
        pairs = np.concatenate([fwd, rev])
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        for x, ys in group_pairs(np.stack([keys // n, keys % n], axis=1)):
            adjacency[x] = ys.tolist()
        return adjacency, len(keys), self.lists


def epoch_check(algo) -> bool:
    """The epoch loop of both theorems: enter the next epoch, or stop.

    Another epoch runs while ``|U| * Delta > n``, counted in
    ``_mach["epoch"]`` and entered by ``algo._enter_epoch()``; past
    ``algo.max_epochs`` (heuristic mode may stall) or once ``U`` is small
    enough, the phase becomes ``final`` and ``False`` is returned.
    """
    mach = algo._mach
    if len(mach["uncolored"]) * algo.delta > algo.n:
        mach["epoch"] += 1
        if mach["epoch"] <= algo.max_epochs:
            algo._enter_epoch()
            return True
    mach["phase"] = "final"
    return False


def turan_commit(chi, uncolored, proposals, conflict_edges) -> None:
    """The end-of-epoch commit of both theorems (lines 29-33).

    Builds the conflict graph ``(U, F)`` on ``U`` in ascending order, takes
    its constructive Turán independent set (Lemma 2.1), and commits each
    chosen vertex's proposal to ``chi``, removing it from ``uncolored``.
    """
    members = sorted(uncolored)
    index = {x: i for i, x in enumerate(members)}
    conflict_graph = Graph(len(members))
    for u, v in conflict_edges.tolist():
        conflict_graph.add_edge(index[u], index[v])
    for i in turan_independent_set(conflict_graph):
        x = members[i]
        chi[x] = proposals[x]
        uncolored.discard(x)


class DeterministicColoring(MultipassStreamingAlgorithm):
    """Deterministic multipass ``(Delta+1)``-coloring (Theorem 1).

    Runs on the pass machine with the counting passes (slack counters,
    conflict-edge collection, the end-of-epoch F pass, and the final
    stored-edges pass) vectorized over ``(k, 2)`` edge blocks; a token
    stream is read as one-edge blocks.
    """

    def __init__(
        self,
        n: int,
        delta: int,
        selection: str = "hash_family",
        prime_policy: str = "paper",
        prime=None,
        instrument: bool = False,
        max_epochs=None,
    ):
        super().__init__()
        if selection not in ("hash_family", "greedy_slack"):
            raise ReproError(f"unknown selection mode {selection!r}")
        self.n = n
        self.delta = delta
        self.selection = selection
        self.prime_policy = prime_policy
        self.prime_override = prime
        self.instrument = instrument
        # Guard against non-convergence in heuristic mode; the paper bound
        # is ceil(log_{3/2} Delta) epochs (Lemma 3.8).
        if max_epochs is None:
            max_epochs = 4 * max(1, ceil_log2(max(2, delta))) + 8
        self.max_epochs = max_epochs
        self.stats = RunStats()
        self.palette_size = delta + 1

    # ------------------------------------------------------------------
    # pass machine
    # ------------------------------------------------------------------
    def blocks_start(self) -> None:
        n, delta = self.n, self.delta
        chi: dict[int, int] = {v: None for v in range(n)}
        if delta == 0:
            for v in range(n):
                chi[v] = 1
            self._mach = {"phase": "done", "coloring": chi}
            return
        uncolored = set(range(n))
        self.meter.set_gauge("partial coloring", n * (ceil_log2(delta + 2) + 1))
        self._mach = {
            "phase": "epoch_check",
            "chi": chi,
            "uncolored": uncolored,
            "epoch": 0,
        }
        self._machine_advance()

    def blocks_consumer(self):
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "stage_slacks":
            return _SlackPassConsumer(
                self, mach["chi"], mach["uncolored"], mach["cubes"],
                mach["kk"], mach["members"],
            )
        if phase in ("stage_parts", "stage_members", "epoch_f"):
            _, unc, cube_value = self._state_arrays(
                {}, mach["uncolored"], mach["cubes"]
            )
            return ConflictEdgeConsumer(
                self.n,
                lambda u, v: dispatch("det_conflict_mask", u, v, unc, cube_value),
            )
        if phase == "final":
            return FinalPassConsumer(self.n, mach["uncolored"])
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "stage_slacks":
            self._deliver_slacks(result, stream)
        elif phase == "stage_parts":
            mach["a_star"] = mach["selector"].best_part(result)
            mach["phase"] = "stage_members"
        elif phase == "stage_members":
            proposals = family_proposals(
                mach.pop("selector"), mach["a_star"], result, mach["members"]
            )
            self.meter.clear_gauge("part accumulators")
            self._tighten_stage(proposals, stream)
            self._machine_advance()
        elif phase == "epoch_f":
            self._deliver_epoch_f(result)
            self._machine_advance()
        elif phase == "final":
            self._deliver_final(result, stream)

    # -- machine transitions -------------------------------------------
    def _machine_advance(self) -> None:
        """Advance through compute-only phases until a pass is needed."""
        mach = self._mach
        while True:
            phase = mach["phase"]
            if phase == "epoch_check":
                if epoch_check(self):
                    continue
                return
            if phase == "stage_check":
                if mach["fixed"] < mach["b"]:
                    self._enter_stage()
                else:
                    self._enter_epoch_f()
                return
            return

    def _enter_epoch(self) -> None:
        """COLORING-EPOCH prologue: trivial PCCs, epoch gauges."""
        mach = self._mach
        n, delta = self.n, self.delta
        uncolored = mach["uncolored"]
        b = ceil_log2(delta + 1)
        mach["b"] = b
        mach["k"] = 1 + floor_log2(max(1, n // len(uncolored)))
        mach["cubes"] = {x: Subcube.full(b) for x in uncolored}
        self.meter.set_gauge(
            "pcc", len(uncolored) * (b + ceil_log2(max(2, b)) + 1)
        )
        mach["u_before"] = len(uncolored)
        mach["fixed"] = 0
        mach["stage_index"] = 0
        mach["phase"] = "stage_check"

    def _enter_stage(self) -> None:
        """Stage prologue (lines 12-14): counters gauge, next-k bookkeeping."""
        mach = self._mach
        mach["stage_index"] += 1
        kk = min(mach["k"], mach["b"] - mach["fixed"])
        mach["kk"] = kk
        members = sorted(mach["uncolored"])
        mach["members"] = members
        self.meter.set_gauge(
            "stage counters",
            len(members) * (1 << kk) * ceil_log2(max(2, self.delta + 2)),
        )
        mach["phase"] = "stage_slacks"

    def _enter_epoch_f(self) -> None:
        """End-of-epoch: cubes are singletons; their colors are the proposals."""
        mach = self._mach
        cubes = mach["cubes"]
        mach["proposals"] = {
            x: cubes[x].sole_color for x in mach["uncolored"]
        }
        mach["phase"] = "epoch_f"

    def _deliver_slacks(self, slacks, stream) -> None:
        """Post slack pass: selection (greedy, or begin the family search)."""
        mach = self._mach
        mach["potential_before"] = None
        if self.instrument:
            mach["potential_before"] = self._measure_potential(
                stream, mach["chi"], mach["uncolored"], mach["cubes"], slacks=None
            )
        if self.selection == "greedy_slack":
            proposals = {x: int(np.argmax(slacks[x])) for x in mach["members"]}
            mach["slacks"] = slacks
            self._tighten_stage(proposals, stream)
            self._machine_advance()
            return
        members, s = mach["members"], 1 << mach["kk"]
        selector = family_selector(
            self, s, members, np.arange(s), np.array([slacks[x] for x in members])
        )
        self.meter.set_gauge("part accumulators", selector.accumulator_bits())
        mach["selector"] = selector
        mach["slacks"] = slacks
        mach["phase"] = "stage_parts"

    def _tighten_stage(self, proposals, stream) -> None:
        """Line 27: fix the chosen pattern of every PCC, close the stage."""
        mach = self._mach
        slacks = mach.pop("slacks")
        cubes = mach["cubes"]
        kk = mach["kk"]
        for x in mach["members"]:
            j = proposals[x]
            if slacks[x][j] <= 0:
                raise ReproError(
                    f"stage selected a zero-slack pattern for vertex {x}; "
                    "Lemma 3.6 invariant violated"
                )
            cubes[x] = cubes[x].restrict(j, kk)
        self.meter.clear_gauge("stage counters")
        if self.instrument:
            potential_after = self._measure_potential(
                stream, mach["chi"], mach["uncolored"], cubes, slacks=None
            )
            self.stats.stage_stats.append(
                StageStats(
                    epoch=mach["epoch"],
                    stage=mach["stage_index"],
                    k=kk,
                    potential_before=mach["potential_before"],
                    potential_after=potential_after,
                    uncolored=len(mach["uncolored"]),
                )
            )
        mach["fixed"] += kk
        mach["phase"] = "stage_check"

    def _deliver_epoch_f(self, conflict_edges) -> None:
        """Lines 29-33: gauge F, commit proposals on a Turán independent set."""
        mach = self._mach
        uncolored = mach["uncolored"]
        self.meter.set_gauge(
            "epoch conflict edges F",
            len(conflict_edges) * 2 * ceil_log2(max(2, self.n)),
        )
        turan_commit(mach["chi"], uncolored, mach.pop("proposals"), conflict_edges)
        self.meter.clear_gauge("epoch conflict edges F")
        self.meter.clear_gauge("pcc")
        if self.instrument:
            self.stats.epoch_stats.append(
                EpochStats(
                    epoch=mach["epoch"],
                    uncolored_before=mach["u_before"],
                    uncolored_after=len(uncolored),
                    conflict_edges=len(conflict_edges),
                    stages=mach["stage_index"],
                )
            )
        mach["phase"] = "epoch_check"

    def _deliver_final(self, result, stream) -> None:
        """Lines 6-7 epilogue: gauge the stored edges, first-fit U from them."""
        mach = self._mach
        adjacency, stored, _ = result
        chi, uncolored = mach["chi"], mach["uncolored"]
        self.meter.set_gauge("final edges", stored * 2 * ceil_log2(max(2, self.n)))
        palette = set(range(1, self.delta + 2))
        complete_partial_coloring(
            chi, sorted(uncolored), adjacency.__getitem__, lambda _: palette
        )
        uncolored.clear()
        self.meter.clear_gauge("final edges")
        self.stats.passes = stream.passes_used
        self.stats.epochs = mach["epoch"]
        self._mach = {"phase": "done", "coloring": chi}

    # ------------------------------------------------------------------
    # per-pass state arrays (derived per pass; O(n) << O(m) scan cost)
    # ------------------------------------------------------------------
    def _state_arrays(self, chi, uncolored, cubes):
        n = self.n
        chi_arr = coloring_array(n, chi)  # 0 encodes "uncolored"
        unc = np.zeros(n, dtype=bool)
        if uncolored:
            unc[list(uncolored)] = True
        cube_value = np.full(n, -1, dtype=np.int64)
        for x, cube in cubes.items():
            cube_value[x] = cube.value
        return chi_arr, unc, cube_value

    # ------------------------------------------------------------------
    def _measure_potential(self, stream, chi, uncolored, cubes, slacks) -> float:
        """Out-of-band diagnostic: Phi via Lemma 3.3 (sum of dconf(x)/s_x).

        Reads the stream out-of-band (``iter_tokens``, not ``new_pass``)
        so that instrumentation does not distort the pass count.
        """
        dconf = {x: 0 for x in uncolored}
        used_total = {x: 0 for x in uncolored}
        for token in stream.iter_tokens():
            if not isinstance(token, EdgeToken):
                continue
            u, v = token.u, token.v
            if u in uncolored and v in uncolored:
                if cubes[u] == cubes[v]:
                    dconf[u] += 1
                    dconf[v] += 1
            else:
                for x, y in ((u, v), (v, u)):
                    if x in uncolored:
                        color = chi.get(y)
                        if color is not None and cubes[x].contains(color):
                            used_total[x] += 1
        phi = 0.0
        for x in uncolored:
            s_x = max(0, cubes[x].count_in_range(self.delta + 1) - used_total[x])
            if dconf[x] > 0:
                if s_x == 0:
                    return float("inf")
                phi += dconf[x] / s_x
        return phi
