"""Unit tests for the named RNG streams."""

import numpy as np
import pytest

from repro.sim import RngStreams


class TestStreams:
    def test_same_seed_same_draws(self):
        a, b = RngStreams(7), RngStreams(7)
        assert a.stream("x").random() == b.stream("x").random()

    def test_different_seeds_differ(self):
        a, b = RngStreams(1), RngStreams(2)
        assert a.stream("x").random() != b.stream("x").random()

    def test_streams_are_independent(self):
        # Drawing from one stream must not perturb another.
        a = RngStreams(7)
        b = RngStreams(7)
        a.stream("noise").random(1000)
        assert a.stream("x").random() == b.stream("x").random()

    def test_stream_identity_cached(self):
        rng = RngStreams(0)
        assert rng.stream("x") is rng.stream("x")

    def test_name_mapping_stable(self):
        # crc32-based, not hash()-based: stable across interpreters.
        a = RngStreams(3).stream("flux.startup").random()
        b = RngStreams(3).stream("flux.startup").random()
        assert a == b


class TestDistributions:
    def test_lognormal_mean(self):
        rng = RngStreams(11)
        draws = [rng.lognormal_latency("t", mean=2.0, cv=0.3)
                 for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.02)

    def test_lognormal_cv(self):
        rng = RngStreams(12)
        draws = np.array([rng.lognormal_latency("t", mean=1.0, cv=0.5)
                          for _ in range(20000)])
        assert draws.std() / draws.mean() == pytest.approx(0.5, rel=0.05)

    def test_lognormal_zero_mean_returns_zero(self):
        assert RngStreams(0).lognormal_latency("t", mean=0.0) == 0.0

    def test_lognormal_positive(self):
        rng = RngStreams(13)
        assert all(rng.lognormal_latency("t", 0.01, cv=1.5) > 0
                   for _ in range(100))

    def test_uniform_bounds(self):
        rng = RngStreams(14)
        draws = [rng.uniform("u", 2.0, 5.0) for _ in range(1000)]
        assert all(2.0 <= d < 5.0 for d in draws)

    def test_exponential_mean(self):
        rng = RngStreams(15)
        draws = [rng.exponential("e", 3.0) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(3.0, rel=0.03)

    def test_exponential_zero_mean(self):
        assert RngStreams(0).exponential("e", 0.0) == 0.0


class TestLognormalBatch:
    """`lognormal_latency_batch` must be bitwise identical to the
    equivalent sequence of scalar draws — the vectorized ensemble
    engines rely on it to match the kernel's per-task draws."""

    def test_batch_matches_sequential_bitwise(self):
        a, b = RngStreams(7), RngStreams(7)
        seq = [a.lognormal_latency("agent.dispatch", 0.004, cv=0.3)
               for _ in range(1000)]
        batch = b.lognormal_latency_batch("agent.dispatch", 0.004,
                                          cv=0.3, n=1000)
        assert batch == seq  # float equality: must be the same bits

    def test_batch_spanning_refills_matches(self):
        # 512 is the prefetch size; cross it mid-batch several times.
        a, b = RngStreams(3), RngStreams(3)
        seq = []
        for n in (100, 500, 700):
            seq.append([a.lognormal_latency("x", 1.0, cv=0.5)
                        for _ in range(n)])
        got = [b.lognormal_latency_batch("x", 1.0, cv=0.5, n=n)
               for n in (100, 500, 700)]
        assert got == seq

    def test_batch_interleaves_with_scalar_draws(self):
        a, b = RngStreams(11), RngStreams(11)
        seq = [a.lognormal_latency("y", 0.01) for _ in range(30)]
        got = b.lognormal_latency_batch("y", 0.01, n=10)
        got += [b.lognormal_latency("y", 0.01) for _ in range(10)]
        got += b.lognormal_latency_batch("y", 0.01, n=10)
        assert got == seq

    def test_zero_mean_draws_nothing(self):
        a, b = RngStreams(5), RngStreams(5)
        assert a.lognormal_latency_batch("z", 0.0, n=4) == [0.0] * 4
        # the buffer was untouched: next draws still line up
        assert (a.lognormal_latency("z", 1.0)
                == b.lognormal_latency("z", 1.0))

    def test_empty_batch(self):
        assert RngStreams(0).lognormal_latency_batch("w", 1.0, n=0) == []
