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
``repro.persist``); the intra-pass accumulators live in the three
consumer classes below, rebuilt by deterministic replay on restore.
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
from repro.graph.graph import Graph
from repro.graph.independent_set import turan_independent_set
from repro.kernels import dispatch
from repro.streaming.machine import PassConsumer, require_machine
from repro.streaming.model import MultipassStreamingAlgorithm
from repro.streaming.tokens import EdgeToken


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


class _ConflictEdgesConsumer(PassConsumer):
    """Stage passes 2-3 and the end-of-epoch F pass: edges inside U whose
    endpoints share a subcube (its proposal, once the cube is a singleton).

    Returns the conflict edges as a ``(k, 2)`` array, unique and in
    first-occurrence stream order.  The selector's sums are exact, but its
    tie-break is the first minimizer of float64 sums accumulated in edge
    order, so order still matters for the member sums' rounding and the
    part sums' near-tie re-score (:mod:`repro.core.selector`).
    """

    def __init__(self, algo, uncolored, cubes):
        self.algo = algo
        _, unc, cube_value = algo._state_arrays({}, uncolored, cubes)
        self.unc = unc
        self.cube_value = cube_value
        self.chunks: list = []

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        u, v = item[:, 0], item[:, 1]
        sel = dispatch("det_conflict_mask", u, v, self.unc, self.cube_value)
        if sel.any():
            self.chunks.append(item[sel])

    def finish(self):
        from repro.graph.csr import dedupe_edges

        if not self.chunks:
            return np.empty((0, 2), dtype=np.int64)
        return dedupe_edges(
            self.algo.n, np.concatenate(self.chunks), keep_order=True
        )


class _FinalAdjacencyConsumer(PassConsumer):
    """The final pass (line 6): every edge incident to U.

    Gathers the unique directed pairs ``(x, y)`` with ``x`` uncolored,
    then groups them into adjacency lists with one sort.
    """

    def __init__(self, algo, uncolored):
        self.algo = algo
        self.uncolored = uncolored
        _, unc = algo._state_arrays({}, uncolored)
        self.unc = unc
        self.chunks: list = []

    def feed(self, item) -> None:
        if not isinstance(item, np.ndarray):
            return
        keep = self.unc[item[:, 0]] | self.unc[item[:, 1]]
        if keep.any():
            self.chunks.append(item[keep])

    def finish(self):
        adjacency: dict[int, list] = {x: [] for x in self.uncolored}
        if not self.chunks:
            return adjacency, 0
        from repro.streaming.blocks import group_pairs

        n, unc = self.algo.n, self.unc
        arr = np.concatenate(self.chunks)
        fwd = arr[unc[arr[:, 0]]]
        rev = arr[unc[arr[:, 1]]][:, ::-1]
        pairs = np.concatenate([fwd, rev])
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        for x, ys in group_pairs(np.stack([keys // n, keys % n], axis=1)):
            adjacency[x] = ys.tolist()
        return adjacency, len(keys)


class DeterministicColoring(MultipassStreamingAlgorithm):
    """Deterministic multipass ``(Delta+1)``-coloring (Theorem 1).

    Runs on the pass machine with the counting passes (slack counters,
    conflict-edge collection, the end-of-epoch F pass, and the final
    stored-edges pass) vectorized over ``(k, 2)`` edge blocks; a token
    stream is read as one-edge blocks.
    """

    supports_checkpoint = True

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
            return _ConflictEdgesConsumer(self, mach["uncolored"], mach["cubes"])
        if phase == "final":
            return _FinalAdjacencyConsumer(self, mach["uncolored"])
        return None

    def blocks_deliver(self, result, stream) -> None:
        mach = require_machine(self)
        phase = mach["phase"]
        if phase == "stage_slacks":
            self._deliver_slacks(result, stream)
        elif phase == "stage_parts":
            selector = mach["selector"]
            mach["a_star"] = (
                int(np.argmin(selector.part_sums(result))) if len(result) else 0
            )
            mach["phase"] = "stage_members"
        elif phase == "stage_members":
            selector = mach["selector"]
            member = selector.member_sums(mach["a_star"], result)
            b_star = int(np.argmin(member)) if len(result) else 0
            proposals = {
                x: selector.proposal_for(x, mach["a_star"], b_star)
                for x in mach["members"]
            }
            self.meter.clear_gauge("part accumulators")
            del mach["selector"]
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
                if len(mach["uncolored"]) * self.delta > self.n:
                    mach["epoch"] += 1
                    if mach["epoch"] > self.max_epochs:
                        # heuristic mode may stall; the final pass finishes
                        mach["phase"] = "final"
                        return
                    self._enter_epoch()
                    continue
                mach["phase"] = "final"
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
        p = choose_family_prime(self.n, self.prime_policy, self.prime_override)
        selector = SlackWeightedSelector(p, self.n, cid_space=1 << mach["kk"])
        for x in mach["members"]:
            selector.register_vertex(x, np.arange(1 << mach["kk"]), slacks[x])
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
        n = self.n
        chi, uncolored = mach["chi"], mach["uncolored"]
        proposals = mach.pop("proposals")
        self.meter.set_gauge(
            "epoch conflict edges F",
            len(conflict_edges) * 2 * ceil_log2(max(2, n)),
        )
        members = sorted(uncolored)
        index = {x: i for i, x in enumerate(members)}
        conflict_graph = Graph(len(members))
        for u, v in conflict_edges:
            conflict_graph.add_edge(index[u], index[v])
        independent = turan_independent_set(conflict_graph)
        for i in independent:
            x = members[i]
            chi[x] = proposals[x]
            uncolored.discard(x)
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
        """Line 6-7 epilogue: greedy-finish U from its stored adjacency."""
        mach = self._mach
        adjacency, stored = result
        chi, uncolored = mach["chi"], mach["uncolored"]
        self._finish_greedy(chi, uncolored, adjacency, stored)
        self.stats.passes = stream.passes_used
        self.stats.epochs = mach["epoch"]
        self._mach = {"phase": "done", "coloring": chi}

    # ------------------------------------------------------------------
    # per-pass state arrays (derived per pass; O(n) << O(m) scan cost)
    # ------------------------------------------------------------------
    def _state_arrays(self, chi, uncolored, cubes=None):
        from repro.graph.coloring import coloring_array

        n = self.n
        chi_arr = coloring_array(n, chi)  # 0 encodes "uncolored"
        unc = np.zeros(n, dtype=bool)
        if uncolored:
            unc[list(uncolored)] = True
        if cubes is None:
            return chi_arr, unc
        cube_value = np.full(n, -1, dtype=np.int64)
        for x, cube in cubes.items():
            cube_value[x] = cube.value
        return chi_arr, unc, cube_value

    def _finish_greedy(self, chi, uncolored, adjacency, stored) -> None:
        """Final-pass epilogue: gauge the store, first-fit U."""
        n = self.n
        self.meter.set_gauge("final edges", stored * 2 * ceil_log2(max(2, n)))
        palette = set(range(1, self.delta + 2))
        for x in sorted(uncolored):
            used_colors = {chi[y] for y in adjacency[x] if chi.get(y) is not None}
            free = sorted(palette - used_colors)
            if not free:
                raise ReproError(f"final pass found no free color for vertex {x}")
            chi[x] = free[0]
        uncolored.clear()
        self.meter.clear_gauge("final edges")

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
