"""Plain-text reporting helpers used by the examples and the CLI."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_rows(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format ``rows`` as a fixed-width text table with ``headers``."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    def render(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))

    lines = [render(list(headers)), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in materialised)
    return "\n".join(lines)
