"""Tests for the background I/O rate limiter."""

import pytest

from repro.errors import DBError
from repro.lsm.rate_limiter import RateLimiter
from repro.lsm.value import ValueRef
from repro.sim.units import MB, SEC, kb, mb, seconds
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_db, run_op, tiny_options


class TestTokenBucket:
    def test_first_request_free(self, engine):
        limiter = RateLimiter(engine, bytes_per_sec=MB)
        assert limiter.request(64 * 1024) == 0

    def test_pacing_converges_to_rate(self, engine):
        limiter = RateLimiter(engine, bytes_per_sec=MB)

        def pacer():
            for _ in range(100):
                delay = limiter.request(64 * 1024)
                yield delay if delay > 0 else 1

        engine.process(pacer())
        engine.run()
        # 100 x 64 KB at 1 MB/s ~ 6.25 s.
        assert engine.now == pytest.approx(100 * 64 * 1024 * SEC / MB, rel=0.05)

    def test_idle_credit_capped(self, engine):
        limiter = RateLimiter(engine, bytes_per_sec=MB)  # one 100 ms burst of credit

        def pacer():
            yield seconds(10)  # long idle: credit must not pile up
            delays = [limiter.request(256 * 1024) for _ in range(8)]
            return delays

        p = engine.process(pacer())
        engine.run()
        assert any(d > 0 for d in p.value)

    def test_invalid_inputs(self, engine):
        with pytest.raises(DBError):
            RateLimiter(engine, 0)
        limiter = RateLimiter(engine, MB)
        with pytest.raises(DBError):
            limiter.request(0)


class TestDbIntegration:
    def fill(self, engine, db, n=1500):
        def writer():
            for i in range(n):
                yield from db.put(b"%08d" % i, ValueRef(i, 100))
            yield from db.flush_all()
            yield from db.wait_idle()

        run_op(engine, writer())

    def test_disabled_by_default(self, engine):
        db = make_db(engine)
        assert db.rate_limiter is None

    def test_limiter_paces_background_bytes(self):
        from repro.sim.engine import Engine

        def run(rate):
            engine = Engine()
            opts = tiny_options(rate_limit_bytes_per_sec=rate)
            db = make_db(engine, profile=xpoint_ssd(), options=opts)
            requests = []
            real = db.rate_limiter.request

            def request(nbytes):
                delay = real(nbytes)
                requests.append((nbytes, delay))
                return delay

            db.rate_limiter.request = request
            self.fill(engine, db)
            return engine.now, requests

        slow_time, slow = run(kb(256))
        fast_time, _fast = run(mb(64))
        assert any(delay for _nbytes, delay in slow)
        assert slow_time > fast_time  # pacing really slowed background work

    def test_limited_db_still_correct(self, engine):
        opts = tiny_options(rate_limit_bytes_per_sec=kb(512))
        db = make_db(engine, profile=xpoint_ssd(), options=opts)
        self.fill(engine, db, n=800)
        for i in (0, 400, 799):
            assert run_op(engine, db.get(b"%08d" % i)) == ValueRef(i, 100)

    def test_invalid_option_rejected(self):
        from repro.lsm.options import Options

        with pytest.raises(Exception):
            Options(rate_limit_bytes_per_sec=-1).validate()
