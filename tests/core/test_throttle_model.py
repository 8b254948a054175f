"""Tests for the Analysis #1 analytic throttling model (Eqs. 1-2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.throttle_model import (
    ThrottleScenario,
    application_kops,
    model_table,
    paper_scenarios,
)
from repro.errors import ReproError
from repro.sim.units import us


def test_paper_xpoint_value():
    scenario = ThrottleScenario("xpoint", 190.0, us(15))
    assert application_kops(scenario) == pytest.approx(2.74, abs=0.01)


def test_paper_sata_value():
    scenario = ThrottleScenario("sata", 130.0, us(15))
    assert application_kops(scenario) == pytest.approx(1.88, abs=0.01)


def test_model_table_matches_paper():
    for row in model_table():
        assert row["lambda_a_kops"] == pytest.approx(row["paper_kops"], abs=0.01)


def test_paper_scenarios_listed():
    names = [s.name for s in paper_scenarios()]
    assert names == ["xpoint", "sata-flash"]


def test_validation():
    with pytest.raises(ReproError):
        ThrottleScenario("x", 0.0, us(15))
    with pytest.raises(ReproError):
        ThrottleScenario("x", 100.0, 0)


@given(
    lam=st.floats(min_value=1.0, max_value=1000.0),
    t=st.integers(min_value=1000, max_value=1_000_000),
)
def test_throttled_throughput_below_system(lam, t):
    """Eq. 2 always predicts lambda_a < lambda_s (throttling only hurts)."""
    scenario = ThrottleScenario("any", lam, t)
    out = application_kops(scenario)
    assert 0 < out < lam


@given(t=st.integers(min_value=1000, max_value=500_000))
def test_longer_write_latency_less_relative_damage(t):
    """As t grows relative to the refill interval, lambda_a approaches lambda_s."""
    base = application_kops(ThrottleScenario("a", 100.0, t))
    slower = application_kops(ThrottleScenario("a", 100.0, t * 2))
    assert slower > base
