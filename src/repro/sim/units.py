"""Time and size units used throughout the simulator.

The simulation clock counts integer **nanoseconds**: integer arithmetic keeps
event ordering exact and runs reproducible across platforms.  Sizes are plain
integer **bytes**.  The helpers below exist so that call sites read like the
paper ("8.5 us per Level-0 file", "64 MB memtable") instead of raw powers of
ten.
"""

from __future__ import annotations

# --- time (nanoseconds) ----------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * SEC)


# --- sizes (bytes) ----------------------------------------------------------

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def kb(value: float) -> int:
    """Convert kibibytes to integer bytes."""
    return round(value * KB)


def mb(value: float) -> int:
    """Convert mebibytes to integer bytes."""
    return round(value * MB)


def gb(value: float) -> int:
    """Convert gibibytes to integer bytes."""
    return round(value * GB)


def fmt_bytes(n: int) -> str:
    """Render a byte count in a human-readable unit (e.g. ``'64.0 MB'``)."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0:
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TB"


def fmt_time(ns: int) -> str:
    """Render a duration in the most natural unit (ns/us/ms/s)."""
    if ns < US:
        return f"{ns} ns"
    if ns < MS:
        return f"{ns / US:.1f} us"
    if ns < SEC:
        return f"{ns / MS:.2f} ms"
    return f"{ns / SEC:.2f} s"
