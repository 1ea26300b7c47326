"""The paper's experiment tables, pinned.

``tests/data/tables/<id>.txt`` holds the output of ``repro run <id>`` at
default arguments for each of the 17 experiments.  Each test regenerates
one table through the CLI and compares it with the pinned text, byte for
byte.  The one volatile column, a4's wall-clock ``runtime_s``, is masked
in both texts first.  A change that moves a table shows the move in its
diff and gives the reason in CHANGES.md.
"""

from pathlib import Path

import pytest

from repro.cli import EXPERIMENT_TABLE, main

TABLES = Path(__file__).parent / "data" / "tables"

#: Columns whose values are wall-clock readings, per experiment.
VOLATILE = {"a4": ("runtime_s",)}


def masked(text: str, columns) -> str:
    """``text`` with every cell of the named columns replaced by ``~``.

    A table is a title, a header line, a dash line whose runs of ``-``
    give each column's span, and the rows.  The spans come from the
    text's own dash line.
    """
    if not columns:
        return text
    lines = text.split("\n")
    dash = next(i for i, line in enumerate(lines) if line.startswith("-"))
    spans, start = [], 0
    for run in lines[dash].split("  "):
        spans.append((start, start + len(run)))
        start += len(run) + 2
    headers = [lines[dash - 1][lo:hi].strip() for lo, hi in spans]
    for name in columns:
        lo, hi = spans[headers.index(name)]
        for i in range(dash + 1, len(lines)):
            if lines[i]:
                lines[i] = lines[i][:lo] + "~" * (hi - lo) + lines[i][hi:]
    return "\n".join(lines)


def test_every_experiment_is_pinned():
    assert sorted(p.stem for p in TABLES.glob("*.txt")) == sorted(EXPERIMENT_TABLE)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_TABLE))
def test_table_matches_pin(experiment, capsys):
    assert main(["run", experiment]) == 0
    got = capsys.readouterr().out
    want = (TABLES / f"{experiment}.txt").read_text()
    columns = VOLATILE.get(experiment, ())
    assert masked(got, columns) == masked(want, columns)


def test_mask_covers_only_the_named_column():
    text = ("a4: title\nname  runtime_s  ok\n----  ---------  --\n"
            "x     0.03       1 \ny     12.5       0 \n")
    out = masked(text, ("runtime_s",))
    assert out.split("\n")[3] == "x     ~~~~~~~~~  1 "
    assert out.split("\n")[4] == "y     ~~~~~~~~~  0 "
    assert masked(text.replace("0.03 ", "0.9  "), ("runtime_s",)) == out
    assert masked(text.replace("  1 ", "  2 "), ("runtime_s",)) != out
