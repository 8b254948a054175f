"""Device profiles for the three SSD generations studied in the paper.

The paper's testbed (Section III) uses:

* an **Intel 530 SATA flash SSD** — slow random reads, slower random writes,
  shallow internal parallelism, SATA interface cap, GC-induced write stalls;
* an **Intel 750 PCIe flash SSD** — NAND latencies with a fast PCIe
  interface, DRAM write buffering and rich internal parallelism;
* an **Intel Optane 900P 3D XPoint SSD** — near-symmetric ~10 us media with
  no erase/GC and very deep parallelism.

The numeric constants below are calibrated so that the raw-device
microbenchmark of Figure 1 lands near the paper's numbers (26 kop/s on SATA
vs 408 kop/s on Optane for 4 KB random, 8 threads, R/W 1:1) while keeping
every *relative* property (read/write disparity, GC stalls, parallelism)
faithful to the hardware class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.units import GB, MB, gb, us


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance characteristics of a simulated storage device."""

    name: str
    kind: str  # "flash" | "xpoint" | "nvm"
    capacity_bytes: int

    # Media latency: fixed per-request cost, before data transfer (ns).
    read_base_ns: int = us(80)
    write_base_ns: int = us(200)
    # Sequential accesses skip most of the lookup/program overhead.
    seq_read_base_ns: int = us(30)
    seq_write_base_ns: int = us(40)

    # Per-channel media bandwidth (bytes/second) for the transfer component.
    channel_read_bw: int = 140 * MB
    channel_write_bw: int = 120 * MB

    # Internal parallelism: number of independent channels/dies.
    channels: int = 4
    # Stripe unit used to spread large requests across channels (kept small
    # so foreground 4 KB reads do not queue behind a whole compaction write).
    stripe_bytes: int = 64 * 1024

    # Host interface cap shared by all channels (bytes/second).  Full-duplex
    # interfaces (PCIe) give reads and writes independent lanes; half-duplex
    # (SATA) serializes both directions on one link.
    interface_read_bw: int = 550 * MB
    interface_write_bw: int = 500 * MB
    full_duplex: bool = False

    # Multiplicative lognormal jitter sigma on the service time.
    jitter_sigma: float = 0.25

    # --- flash-specific behaviour (ignored for xpoint/nvm) -----------------
    # After this many bytes of *random* writes, one channel takes an
    # erase/GC pause.  Zero disables GC.
    gc_interval_bytes: int = 0
    gc_pause_ns: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_bytes}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1: {self.channels}")
        if self.kind not in ("flash", "xpoint", "nvm", "null"):
            raise ValueError(f"unknown device kind: {self.kind}")

    def with_overrides(self, **kwargs) -> "DeviceProfile":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


def sata_flash_ssd(capacity_bytes: int = 240 * GB) -> DeviceProfile:
    """Intel 530-class SATA flash SSD."""
    return DeviceProfile(
        name="sata-flash",
        kind="flash",
        capacity_bytes=capacity_bytes,
        read_base_ns=us(100),
        write_base_ns=us(150),
        seq_read_base_ns=us(25),
        seq_write_base_ns=us(35),
        channel_read_bw=140 * MB,
        channel_write_bw=115 * MB,
        channels=4,
        interface_read_bw=540 * MB,
        interface_write_bw=490 * MB,
        full_duplex=False,
        jitter_sigma=0.25,
        gc_interval_bytes=48 * MB,
        gc_pause_ns=us(2500),
    )


def pcie_flash_ssd(capacity_bytes: int = 400 * GB) -> DeviceProfile:
    """Intel 750-class PCIe NVMe flash SSD."""
    return DeviceProfile(
        name="pcie-flash",
        kind="flash",
        capacity_bytes=capacity_bytes,
        read_base_ns=us(78),
        write_base_ns=us(22),  # DRAM-buffered program path
        seq_read_base_ns=us(12),
        seq_write_base_ns=us(14),
        channel_read_bw=300 * MB,
        channel_write_bw=250 * MB,
        channels=16,
        interface_read_bw=2200 * MB,
        interface_write_bw=900 * MB,
        full_duplex=True,
        jitter_sigma=0.22,
        gc_interval_bytes=96 * MB,
        gc_pause_ns=us(1500),
    )


def xpoint_ssd(capacity_bytes: int = 280 * GB) -> DeviceProfile:
    """Intel Optane 900P-class 3D XPoint SSD."""
    return DeviceProfile(
        name="xpoint",
        kind="xpoint",
        capacity_bytes=capacity_bytes,
        read_base_ns=us(9),
        write_base_ns=us(10),
        seq_read_base_ns=us(6),
        seq_write_base_ns=us(7),
        channel_read_bw=700 * MB,
        channel_write_bw=650 * MB,
        channels=16,
        interface_read_bw=2500 * MB,
        interface_write_bw=2200 * MB,
        full_duplex=True,
        jitter_sigma=0.08,
        gc_interval_bytes=0,  # no erase, no GC
        gc_pause_ns=0,
    )


def nvm_dimm(capacity_bytes: int = 16 * GB) -> DeviceProfile:
    """Byte-addressable NVM (the paper emulates it with tmpfs in DRAM)."""
    return DeviceProfile(
        name="nvm",
        kind="nvm",
        capacity_bytes=capacity_bytes,
        read_base_ns=us(0.3),
        write_base_ns=us(0.5),
        seq_read_base_ns=us(0.2),
        seq_write_base_ns=us(0.3),
        channel_read_bw=4000 * MB,
        channel_write_bw=2500 * MB,
        channels=32,
        interface_read_bw=12000 * MB,
        interface_write_bw=9000 * MB,
        full_duplex=True,
        jitter_sigma=0.02,
    )


def null_device(capacity_bytes: int = gb(1)) -> DeviceProfile:
    """Zero-latency device for unit tests that only need plumbing."""
    return DeviceProfile(
        name="null",
        kind="null",
        capacity_bytes=capacity_bytes,
        read_base_ns=0,
        write_base_ns=0,
        seq_read_base_ns=0,
        seq_write_base_ns=0,
        channel_read_bw=10**18,  # effectively infinite: zero transfer time
        channel_write_bw=10**18,
        channels=64,
        interface_read_bw=10**18,
        interface_write_bw=10**18,
        full_duplex=True,
        jitter_sigma=0.0,
    )


PROFILES = {
    "sata-flash": sata_flash_ssd,
    "pcie-flash": pcie_flash_ssd,
    "xpoint": xpoint_ssd,
    "nvm": nvm_dimm,
    "null": null_device,
}


def profile_by_name(name: str, capacity_bytes: int | None = None) -> DeviceProfile:
    """Look up a standard profile by name (optionally resized)."""
    try:
        factory = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown device profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None
    if capacity_bytes is None:
        return factory()
    return factory(capacity_bytes)
