"""The differential oracle: all data planes must agree bit for bit.

Every registered algorithm must produce identical colorings, pass
counts, space charges, and randomness draws on the token plane and on
every block backend at every chunk size.  Every algorithm reads the
token plane as one-edge blocks, so the check pins the chunking
invariance of the pass consumers and of the one-pass algorithms'
``process_block``.  This module runs one verification cell on the token
plane and on each requested chunk size, and reports any field-level
divergence.
"""

from dataclasses import dataclass, replace

from repro.verify.cells import Cell, cell_fingerprint, run_cell

__all__ = ["DifferentialReport", "differential_check"]

_FIELDS = (
    "coloring", "colors_used", "palette_bound", "passes",
    "peak_space_bits", "random_bits", "proper",
)


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison."""

    cell: Cell
    chunk_sizes: tuple
    mismatches: list  # (chunk_size, field, token_value, block_value)
    results: dict  # chunk_size (None = tokens) -> ColoringResult

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> list[str]:
        return [
            f"{self.cell.algorithm}/{self.cell.family}/{self.cell.order} "
            f"chunk={chunk}: {field} diverged from the token plane "
            f"({token!r} vs {block!r})"
            for chunk, field, token, block in self.mismatches
        ]


def differential_check(
    cell: Cell,
    chunk_sizes=(64, 4096),
    registry=None,
    config: dict | None = None,
) -> DifferentialReport:
    """Run a cell on tokens + every chunk size; compare all result fields.

    The token run is the reference.  Colorings are compared exactly, so
    the check subsumes palette/properness agreement; wall times are the
    only excluded fields.
    """
    token_cell = replace(cell, chunk_size=None)
    reference = run_cell(
        token_cell, registry=registry, keep_coloring=True, config=config
    )
    ref_print = cell_fingerprint(reference)
    results = {None: reference}
    mismatches = []
    for chunk in chunk_sizes:
        block = run_cell(
            replace(cell, chunk_size=chunk), registry=registry,
            keep_coloring=True, config=config,
        )
        results[chunk] = block
        block_print = cell_fingerprint(block)
        for field_name, token_val, block_val in zip(
            _FIELDS, ref_print, block_print
        ):
            if token_val != block_val:
                summary = (
                    "<coloring>" if field_name == "coloring" else token_val,
                    "<coloring>" if field_name == "coloring" else block_val,
                )
                mismatches.append((chunk, field_name, *summary))
    return DifferentialReport(
        cell=cell, chunk_sizes=tuple(chunk_sizes),
        mismatches=mismatches, results=results,
    )
