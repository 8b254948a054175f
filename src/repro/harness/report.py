"""Result containers and ASCII table rendering for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """The regenerated artifact for one paper figure."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    # Optional named timeline series: label -> [(t_seconds, ops_per_s)].
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    paper_expectation: str = ""
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, **match: Any) -> Dict[str, Any]:
        """First row whose fields equal ``match`` (raises if absent)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.exp_id}")

    def table_str(self) -> str:
        return format_table(self.columns, self.rows, title=f"{self.exp_id}: {self.title}")

    def render(self) -> str:
        """Full text report: table, series sketches, expectations."""
        parts = [self.table_str()]
        for label, series in self.series.items():
            parts.append(render_sparkline(label, series))
        if self.paper_expectation:
            parts.append(f"paper expectation: {self.paper_expectation}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Dict[str, Any]], title: Optional[str] = None
) -> str:
    """Render rows as a fixed-width ASCII table."""
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


_SPARK = " .:-=+*#%@"


def render_sparkline(label: str, series: Sequence[Tuple[float, float]]) -> str:
    """One-line ASCII sketch of a throughput timeline."""
    if not series:
        return f"{label}: (empty)"
    rates = [rate for _, rate in series]
    top = max(rates) or 1.0
    chars = "".join(
        _SPARK[min(len(_SPARK) - 1, int(rate / top * (len(_SPARK) - 1)))]
        for rate in rates
    )
    return f"{label}: [{chars}] max={top / 1e3:.1f} kop/s"
