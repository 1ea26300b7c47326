"""Checkpoints taken while a family-search selector is live restore.

Theorems 1 and 2 keep their :class:`~repro.core.selector.
SlackWeightedSelector` in the pass machine's ``_mach`` between a stage's
part pass and its member pass, so a pass-boundary checkpoint there holds
the selector's registered g_w blocks.  The files in
``tests/data/selector_checkpoints/`` are ``REPROCK1`` run checkpoints
written at such boundaries (see :data:`CASES`); they stand for checkpoints
already on disk and pin the selector's snapshot layout: every vertex's
``VertexBlocks`` with its ``cids``, ``slacks``, ``sizes`` and ``cum``.
Each must restore into today's classes and finish exactly as the run that
was never interrupted.  Never re-record them.

``python tests/test_selector_checkpoints.py DIR`` writes the same files,
from the code it runs on, into ``DIR``.
"""

import pathlib
import sys

import pytest

from repro.core.selector import SlackWeightedSelector, VertexBlocks
from repro.engine import RunSpec, run
from repro.persist import ResumableRun, strip_volatile

DATA = pathlib.Path(__file__).parent / "data" / "selector_checkpoints"

#: name -> (algorithm, n, delta, seed, phase, occurrence): the checkpoint
#: is written at the ``occurrence``-th pass boundary where the machine's
#: next pass is ``phase``.  ``stage_members`` (Theorem 1) and ``pconf_b``
#: (Theorem 2's partition stages) follow a part pass; ``fs_conf_b``
#: follows Theorem 2's final-stage part pass, whose candidates are colors.
CASES = {
    "deterministic-stage_members": ("deterministic", 64, 8, 1,
                                    "stage_members", 2),
    "list_coloring-pconf_b": ("list_coloring", 64, 8, 1, "pconf_b", 2),
    "list_coloring-fs_conf_b": ("list_coloring", 64, 8, 1, "fs_conf_b", 1),
}


def case_spec(name) -> RunSpec:
    algorithm, n, delta, seed, _, _ = CASES[name]
    return RunSpec(algorithm=algorithm, n=n, delta=delta, seed=seed,
                   keep_coloring=True, verify="strict")


def record(directory) -> None:
    """Write every case's checkpoint to ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (_, _, _, _, phase, occurrence) in CASES.items():
        resumable = ResumableRun(case_spec(name))
        seen = 0
        while resumable.step():
            if resumable.algo._mach.get("phase") == phase:
                seen += 1
                if seen == occurrence:
                    resumable.save(directory / f"{name}.ck")
                    break
        resumable.close()


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_restores_and_finishes_as_uninterrupted(name):
    spec = case_spec(name)
    resumable = ResumableRun.load(DATA / f"{name}.ck")
    try:
        result = resumable.run_to_completion()
    finally:
        resumable.close()
    assert strip_volatile(result) == strip_volatile(run(spec))
    assert result.proper


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_holds_a_live_selector(name):
    """The restored machine waits for the member pass, with ``a*`` chosen
    and every member's blocks registered, each covering ``[0, p)``."""
    _, _, _, _, phase, _ = CASES[name]
    resumable = ResumableRun.load(DATA / f"{name}.ck")
    resumable.close()
    mach = resumable.algo._mach
    assert mach["phase"] == phase
    assert 0 <= mach["a_star"]
    selector = mach["selector"]
    assert isinstance(selector, SlackWeightedSelector)
    assert selector._pack is None
    members = mach["state"].members if "state" in mach else mach["members"]
    assert sorted(selector._blocks) == members
    for blocks in selector._blocks.values():
        assert isinstance(blocks, VertexBlocks)
        assert blocks.cum[0] == 0 and blocks.cum[-1] == selector.p
        assert (blocks.sizes > 0).all() and (blocks.slacks > 0).all()
        assert len(blocks.cids) == len(blocks.slacks) == len(blocks.sizes)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_selector_checkpoints.py DIR")
    record(sys.argv[1])
