"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.3f}".rstrip("0").rstrip(".") if value != 0 else "0"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as a fixed-width text table."""
    rendered_rows: List[List[str]] = [[_format_cell(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)
