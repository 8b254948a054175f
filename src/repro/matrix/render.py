"""Markdown rendering and ``EXPERIMENTS.md`` block injection.

A table's :class:`~repro.harness.report.ExperimentResult` renders to a
deterministic markdown block wrapped in ``<!-- matrix:begin ID -->`` /
``<!-- matrix:end ID -->`` markers.  ``inject_block`` splices a rendered
block into a document, replacing whatever sits between its markers;
``extract_block`` reads the current contents back out, which is how check
mode compares the committed table against a fresh run byte-for-byte.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import WorkloadError
from repro.harness.report import ExperimentResult


def begin_marker(table_id: str) -> str:
    return f"<!-- matrix:begin {table_id} -->"


def end_marker(table_id: str) -> str:
    return f"<!-- matrix:end {table_id} -->"


def render_block(res: ExperimentResult) -> str:
    """One table's markdown block over its rows, markers included (no
    trailing newline)."""

    def line(cells: Iterable[str]) -> str:
        return "| " + " | ".join(cells) + " |"

    return "\n".join([
        begin_marker(res.exp_id),
        f"**{res.title}** (`{res.exp_id}`)",
        "",
        line(res.columns),
        "|" + "---|" * len(res.columns),
        *(line(str(row[c]) for c in res.columns) for row in res.rows),
        end_marker(res.exp_id),
    ])


def _span(text: str, table_id: str) -> Tuple[int, int]:
    """Where ``table_id``'s block sits in ``text``, markers included."""
    begin, end = begin_marker(table_id), end_marker(table_id)
    try:
        start = text.index(begin)
        return start, text.index(end, start) + len(end)
    except ValueError:
        raise WorkloadError(
            f"no matrix markers for {table_id!r} in the document"
        ) from None


def extract_block(text: str, table_id: str) -> str:
    """The current block for ``table_id`` in ``text`` (markers included)."""
    start, stop = _span(text, table_id)
    return text[start:stop]


def inject_block(text: str, table_id: str, block: str) -> str:
    """Replace the block between ``table_id``'s markers with ``block``."""
    start, stop = _span(text, table_id)
    return text[:start] + block + text[stop:]
