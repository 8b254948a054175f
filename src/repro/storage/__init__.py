"""Simulated storage devices: SATA flash, PCIe flash, 3D XPoint, NVM.

See :mod:`repro.storage.profiles` for the calibrated device profiles and
:mod:`repro.storage.device` for the queueing model.
"""

from repro.storage.device import StorageDevice
from repro.storage.iotoolkit import RawBenchmark, RawResult, RawWorkloadConfig
from repro.storage.profiles import (
    PROFILES,
    DeviceProfile,
    null_device,
    nvm_dimm,
    pcie_flash_ssd,
    profile_by_name,
    sata_flash_ssd,
    xpoint_ssd,
)

__all__ = [
    "PROFILES",
    "DeviceProfile",
    "RawBenchmark",
    "RawResult",
    "RawWorkloadConfig",
    "StorageDevice",
    "null_device",
    "nvm_dimm",
    "pcie_flash_ssd",
    "profile_by_name",
    "sata_flash_ssd",
    "xpoint_ssd",
]
