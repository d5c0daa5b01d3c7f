"""Plain-text table formatting for benches and examples.

Every experiment prints its results as an aligned table (the repository
has no plotting dependency).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned monospace table.

    Floats are shown with four significant decimals; everything else via
    ``str``.
    """
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
