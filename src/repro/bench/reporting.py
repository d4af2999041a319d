"""Plain-text tables with aligned columns (the telemetry report's layout)."""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["Table"]


class Table:
    """A printable results table with aligned columns."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, got {len(cells)}")
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)
