"""Tests for time/size unit helpers."""

from repro.sim.units import (
    GB,
    KB,
    MB,
    MS,
    SEC,
    US,
    fmt_bytes,
    fmt_time,
    gb,
    kb,
    mb,
    ms,
    seconds,
    us,
)


def test_time_constants_consistent():
    assert US == 1_000
    assert MS == 1_000 * US
    assert SEC == 1_000 * MS


def test_conversions_roundtrip():
    assert us(15) == 15_000
    assert ms(1.5) == 1_500_000
    assert seconds(2) == 2 * SEC
    assert us(8.5) / US == 8.5
    assert ms(3) / MS == 3.0
    assert seconds(0.25) / SEC == 0.25


def test_fractional_us_rounds():
    assert us(0.3) == 300
    assert us(8.5) == 8500


def test_size_constants():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert kb(2) == 2048
    assert mb(0.5) == 512 * KB
    assert gb(1) == GB


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(64 * MB) == "64.0 MB"
    assert fmt_bytes(3 * GB) == "3.0 GB"
    assert fmt_bytes(2048 * GB) == "2.0 TB"
    assert fmt_bytes(2 ** 60) == "1048576.0 TB"


def test_fmt_time():
    assert fmt_time(500) == "500 ns"
    assert fmt_time(us(8.5)) == "8.5 us"
    assert fmt_time(ms(2.5)) == "2.50 ms"
    assert fmt_time(seconds(1.25)) == "1.25 s"
