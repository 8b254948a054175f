"""Two of the paper's findings on their own short runs at seed 13, under the
names they have always had.  Every other shape lives in the registry
(``Entry.shapes``) and is checked by ``test_figure_shapes.py``; fig13's
predicates cover the same two findings on the entry's own runs.
"""

from repro.harness.experiments import WorkloadPoint, run_points
from repro.harness.presets import TINY
from repro.sim.units import seconds
from tests.conftest import JOBS

SEED = 13
DUR = seconds(0.8)


def point(device, **kwargs):
    """One R/W 1:1 run at seed 13."""
    return WorkloadPoint(device, TINY, 0.5, seed=SEED, duration_ns=DUR, **kwargs)


def kops(points):
    """Throughput of each run, through the registry's memo."""
    return [run.result.kops for run in run_points(points, JOBS)]


class TestDeviceEvolution:
    def test_throughput_ordering_mixed(self):
        """Finding #1 backdrop: XPoint > PCIe flash > SATA flash at 1:1."""
        xpoint, pcie, sata = kops([point(d) for d in ("xpoint", "pcie-flash", "sata-flash")])
        assert xpoint > pcie > sata


class TestParallelism:
    def test_throughput_scales_with_processes(self):
        """Figure 13: more client processes, more throughput."""
        one, eight = kops([point("xpoint", processes=1), point("xpoint", processes=8)])
        assert eight > 1.5 * one
