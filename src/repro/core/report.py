"""Plain-text report rendering.

Every evaluation artefact (Tables I-IV, the per-figure data series) is
rendered as an aligned ASCII table so the benches and the CLI can
print paper-vs-measured comparisons directly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == int(cell) and abs(cell) < 1e15:
            return f"{int(cell)}"
        return f"{cell:.3g}"
    return str(cell)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table with optional title."""
    formatted_rows: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    header_row = [str(h) for h in headers]
    for row in formatted_rows:
        if len(row) != len(header_row):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(header_row)} columns"
            )
    widths = [len(h) for h in header_row]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(header_row))
    out.append(line(["-" * w for w in widths]))
    for row in formatted_rows:
        out.append(line(row))
    return "\n".join(out)


def format_percent(fraction: float, digits: int = 0) -> str:
    """Render a fraction as a percentage string (0.33 -> '33%')."""
    return f"{fraction * 100:.{digits}f}%"


def format_ms(value: float, digits: int = 1) -> str:
    """Render a millisecond value ('30.9ms')."""
    return f"{value:.{digits}f}ms"
