"""Machine assembly: engine + device + filesystem + caches (+ optional NVM).

One :class:`Machine` is the simulated analog of the paper's testbed server:
a two-socket Xeon (the CPU cost model), one storage device under test, an
Ext4-like filesystem and a page cache sized to the configured RAM (the paper
boots with 8 GB against a 100 GB dataset).  For case study C a second,
NVM-backed filesystem can be attached to host the WAL.

:meth:`Machine.build` is the one recipe for a simulated host: the figure
harness, the experiment matrix, every DST harness and each replica of a
serving cluster build theirs with it, several to an engine when a cluster
shares one.  Fault injection is data on the host — a schedule gives it one
:class:`~repro.faults.injector.FaultInjector` wired to its device and its
filesystem — not a choice of classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_controller import WriteController
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.storage.device import StorageDevice
from repro.storage.profiles import DeviceProfile, nvm_dimm

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule


@dataclass
class Machine:
    """A fully assembled simulated host."""

    engine: Engine
    device: StorageDevice
    fs: SimFileSystem
    page_cache: PageCache
    rng: RandomStream
    nvm_fs: Optional[SimFileSystem] = None
    injector: Optional["FaultInjector"] = None

    @classmethod
    def build(
        cls,
        engine: Engine,
        rng: RandomStream,
        profile: DeviceProfile,
        page_cache_bytes: int,
        *,
        schedule: Optional["FaultSchedule"] = None,
        device_stream: str = "device",
        with_nvm: bool = False,
    ) -> "Machine":
        """Stand up one host on ``engine`` around one storage device.

        The device draws from ``rng.fork(device_stream)`` (cluster nodes
        sharing one ``rng`` name theirs apart).  A ``schedule`` — even an
        empty one — gets one injector, consulted by the device on every
        request and by the filesystem on every append; with none,
        ``injector`` is None and neither consults anything.
        """
        injector = None
        if schedule is not None:
            # Imported here so a host without faults (every figure run) does
            # not load the fault package into its set-up time.
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(engine, schedule)
        device = StorageDevice(engine, profile, rng.fork(device_stream), injector)
        page_cache = PageCache(page_cache_bytes)
        fs = SimFileSystem(engine, device, page_cache, injector)
        nvm_fs = None
        if with_nvm:
            nvm_device = StorageDevice(engine, nvm_dimm(), rng.fork("nvm"))
            # The NVM region is small and byte-addressable; give it its own
            # tiny page-cache namespace (writes are effectively direct).
            nvm_fs = SimFileSystem(engine, nvm_device, PageCache(page_cache_bytes // 8))
        return cls(
            engine=engine,
            device=device,
            fs=fs,
            page_cache=page_cache,
            rng=rng,
            nvm_fs=nvm_fs,
            injector=injector,
        )

    @classmethod
    def create(
        cls,
        profile: DeviceProfile,
        page_cache_bytes: int,
        seed: int = 1,
        with_nvm: bool = False,
    ) -> "Machine":
        """Stand up a machine, on a fresh engine, around one storage device."""
        rng = RandomStream(seed, f"machine/{profile.name}")
        return cls.build(Engine(), rng, profile, page_cache_bytes, with_nvm=with_nvm)

    def open_db(
        self,
        options: Options,
        wal_on_nvm: bool = False,
        controller: Optional[WriteController] = None,
    ) -> DB:
        """Open a DB on this machine (optionally logging to NVM), drawing
        from the machine's ``db`` RNG substream."""
        wal_fs = self.nvm_fs if wal_on_nvm else None
        if wal_on_nvm and wal_fs is None:
            raise ValueError("machine was created without NVM (with_nvm=True)")
        return DB(
            self.engine,
            self.fs,
            options,
            wal_fs=wal_fs,
            rng=self.rng.fork("db"),
            controller=controller,
        )
