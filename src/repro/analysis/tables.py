"""Plain-text result tables used by benches and examples.

The benchmark harnesses print the same rows/series the paper reports;
:class:`ResultTable` keeps that rendering in one place so every experiment's
output looks the same and can be parsed back by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float]


@dataclass
class ResultTable:
    """A small named table of result rows.

    Args:
        title: Table title printed above the header.
        columns: Column names.
        float_format: Format spec applied to float cells.
    """

    title: str
    columns: Sequence[str]
    float_format: str = "{:.3g}"
    rows: List[List[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append a row; must have exactly one cell per column."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        """Return all cells of the named column."""
        try:
            index = list(self.columns).index(name)
        except ValueError as exc:
            raise KeyError(f"no column named {name!r}") from exc
        return [row[index] for row in self.rows]

    def _format_cell(self, cell: Cell) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return self.float_format.format(cell)
        return str(cell)

    def render(self) -> str:
        """Render the table as aligned plain text."""
        header = [str(c) for c in self.columns]
        body = [[self._format_cell(cell) for cell in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def format_line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = [self.title, separator, format_line(header), separator]
        lines.extend(format_line(row) for row in body)
        lines.append(separator)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
