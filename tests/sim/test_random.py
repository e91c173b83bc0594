"""Tests of the seeded random streams and the YCSB key distributions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.random import (
    LatestGenerator,
    SeededStreams,
    ZipfianGenerator,
    weighted_choice,
)


class TestSeededStreams:
    def test_same_seed_same_sequence(self):
        a = SeededStreams(7).stream("net")
        b = SeededStreams(7).stream("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = SeededStreams(7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_stream_identity_is_cached(self):
        streams = SeededStreams(1)
        assert streams.stream("x") is streams.stream("x")


class TestZipfianGenerator:
    def test_values_are_within_bounds(self):
        gen = ZipfianGenerator(1000, random.Random(2))
        values = [gen.next() for _ in range(2000)]
        assert all(0 <= v < 1000 for v in values)

    def test_distribution_is_skewed_towards_low_keys(self):
        gen = ZipfianGenerator(1000, random.Random(3))
        values = [gen.next() for _ in range(5000)]
        hot = sum(1 for v in values if v < 100)
        assert hot > len(values) * 0.4

    def test_empty_keyspace_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, random.Random(1))

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_always_in_range(self, items, seed):
        gen = ZipfianGenerator(items, random.Random(seed))
        assert all(0 <= gen.next() < items for _ in range(50))


class TestZipfianRankFrequency:
    """The generator's rank-frequency curve matches the analytic Zipf mass.

    The swarm's skewed key draws inherit whatever bias this generator has,
    so the draw frequencies are checked against the analytic distribution
    ``p(r) = (1/(r+1)^θ) / H_{n,θ}`` — not just "low keys are hot".
    """

    ITEMS = 50
    DRAWS = 20_000

    @staticmethod
    def _analytic_mass(items, theta):
        harmonic = sum(1.0 / (i ** theta) for i in range(1, items + 1))
        return [1.0 / ((rank + 1) ** theta) / harmonic for rank in range(items)]

    @pytest.mark.parametrize("theta", [0.3, 0.7, 0.99])
    def test_empirical_frequencies_match_analytic_mass(self, theta):
        gen = ZipfianGenerator(self.ITEMS, random.Random(97), theta=theta)
        counts = [0] * self.ITEMS
        for _ in range(self.DRAWS):
            counts[gen.next()] += 1
        expected = self._analytic_mass(self.ITEMS, theta)
        for rank, probability in enumerate(expected):
            if probability < 0.01:
                continue  # too few expected draws for a tight bound
            empirical = counts[rank] / self.DRAWS
            # ~6 sigma of the binomial: deterministic seed, no flakes.
            sigma = (probability * (1 - probability) / self.DRAWS) ** 0.5
            assert abs(empirical - probability) < 6 * sigma + 0.002, (
                f"theta={theta} rank={rank}: {empirical:.4f} vs {probability:.4f}"
            )

    def test_single_item_keyspace_always_draws_zero(self):
        """Regression: item_count=1 degenerates the eta expression."""
        gen = ZipfianGenerator(1, random.Random(5))
        assert all(gen.next() == 0 for _ in range(500))

    def test_two_item_keyspace_matches_analytic_split(self):
        """Regression: at item_count=2, zeta(2) == zeta(n) zeroes eta's
        denominator; the draws must still follow the two-point Zipf mass."""
        theta = 0.99
        gen = ZipfianGenerator(2, random.Random(6), theta=theta)
        draws = [gen.next() for _ in range(20_000)]
        assert set(draws) <= {0, 1}
        p0 = 1.0 / (1.0 + 0.5 ** theta)
        empirical = draws.count(0) / len(draws)
        sigma = (p0 * (1 - p0) / len(draws)) ** 0.5
        assert abs(empirical - p0) < 6 * sigma + 0.002


class TestLatestGenerator:
    def test_prefers_recent_keys(self):
        gen = LatestGenerator(1000, random.Random(4))
        values = [gen.next() for _ in range(3000)]
        recent = sum(1 for v in values if v > 900)
        assert recent > len(values) * 0.4

    def test_record_insert_extends_keyspace(self):
        gen = LatestGenerator(10, random.Random(5))
        for _ in range(50):
            gen.record_insert()
        values = [gen.next() for _ in range(500)]
        assert max(values) > 10
        assert all(v >= 0 for v in values)


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = random.Random(6)
        picks = [weighted_choice(rng, [("a", 0.9), ("b", 0.1)]) for _ in range(1000)]
        assert picks.count("a") > 700

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(1), [("a", 0.0)])
