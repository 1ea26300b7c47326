"""The golden corpus: every registered algorithm on every zoo cell, pinned.

One sha256 per cell of registry × zoo family × zoo order × seed {0, 1}
at n = 32 (560 cells), over :func:`repro.verify.cell_fingerprint`: the
coloring's items in dict order, ``colors_used``, ``palette_bound``,
``passes``, ``peak_space_bits``, ``random_bits`` and ``proper``.

The digests in ``tests/data/token_corpus.json`` were recorded on the
token plane (``chunk_size=None``) at commit 118f5fb, where each multipass
algorithm still had its own token-at-a-time implementation beside the
pass machine.  The corpus is that implementation's output, kept as the
oracle after the copies were deleted: every cell must reproduce it on the
token plane (one-edge blocks) and at chunk 64.  Never re-record it to
make a mismatch pass; a mismatch is a change of behaviour.

``python tests/test_token_corpus.py`` prints the digests the current code
produces, in the corpus file's format, for diffing against it.
"""

import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from repro.engine import REGISTRY
from repro.graph.zoo import ZOO_FAMILIES, ZOO_ORDERS
from repro.verify import Cell, cell_fingerprint, run_cell

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "token_corpus.json"
N = 32
SEEDS = (0, 1)


def cell_key(cell: Cell) -> str:
    return f"{cell.algorithm}/{cell.family}/{cell.order}/{cell.seed}"


def cell_digest(result) -> str:
    coloring, *rest = cell_fingerprint(result)
    record = [[[v, c] for v, c in coloring.items()], *rest]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def corpus_cells(algorithm: str):
    for family in sorted(ZOO_FAMILIES):
        for order in ZOO_ORDERS:
            for seed in SEEDS:
                yield Cell(algorithm=algorithm, family=family, order=order,
                           n=N, seed=seed)


def current_digests(chunk_size=None) -> dict[str, str]:
    return {
        cell_key(cell): cell_digest(run_cell(
            replace(cell, chunk_size=chunk_size), keep_coloring=True
        ))
        for algorithm in REGISTRY.names()
        for cell in corpus_cells(algorithm)
    }


def corpus_text(digests: dict[str, str]) -> str:
    return json.dumps(
        {"n": N, "seeds": list(SEEDS), "digests": digests},
        indent=1, sort_keys=True,
    ) + "\n"


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return json.loads(CORPUS_PATH.read_text())["digests"]


def test_corpus_covers_the_registry(corpus):
    expected = {
        cell_key(cell)
        for algorithm in REGISTRY.names()
        for cell in corpus_cells(algorithm)
    }
    assert len(expected) == 560
    assert set(corpus) == expected


@pytest.mark.parametrize("chunk_size", [None, 64], ids=["tokens", "chunk64"])
@pytest.mark.parametrize("algorithm", REGISTRY.names())
def test_replays_the_corpus(corpus, algorithm, chunk_size):
    mismatched = [
        cell_key(cell)
        for cell in corpus_cells(algorithm)
        if cell_digest(run_cell(replace(cell, chunk_size=chunk_size),
                                keep_coloring=True)) != corpus[cell_key(cell)]
    ]
    assert not mismatched


if __name__ == "__main__":
    print(corpus_text(current_digests()), end="")
