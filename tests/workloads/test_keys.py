"""Unit and property tests for key distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry
from repro.workloads.keys import NormalKeys, SingleKey, UniformKeys, ZipfKeys

ALL_DISTRIBUTIONS = [
    NormalKeys(64),
    UniformKeys(64),
    SingleKey(num_keys=64, key=7),
    ZipfKeys(64, exponent=1.5),
]


@pytest.fixture
def rng():
    return RngRegistry(seed=42).stream("keys")


def draw(dist, rng, n):
    """``n`` keys drawn from ``dist``'s pmf."""
    return rng.choice(dist.num_keys, size=n, p=dist.pmf())


def normal_draw(dist, rng, n):
    """The law :class:`NormalKeys`' pmf discretises: normal draws
    around the middle key, rounded and clipped to the key space."""
    centre = (dist.num_keys - 1) / 2.0
    sigma = dist.spread_fraction * dist.num_keys
    draws = rng.normal(loc=centre, scale=sigma, size=n)
    return np.clip(np.rint(draws), 0, dist.num_keys - 1).astype(np.int64)


class TestPmfInvariants:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_pmf_sums_to_one(self, dist):
        assert dist.pmf().sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_pmf_nonnegative(self, dist):
        assert (dist.pmf() >= 0).all()

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_pmf_length(self, dist):
        assert len(dist.pmf()) == dist.num_keys

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_hot_fraction_is_max_pmf(self, dist):
        assert dist.hot_fraction() == pytest.approx(float(dist.pmf().max()))


class TestSupport:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_support_is_the_positive_mass_filter_of_the_pmf(self, dist):
        keys, masses = dist.support()
        pmf = dist.pmf()
        assert keys.dtype == np.int64 and masses.dtype == np.float64
        assert keys.tolist() == [k for k, m in enumerate(pmf) if m > 0]
        assert masses.tolist() == [float(m) for m in pmf if m > 0]

    def test_support_is_one_shared_read_only_catalog(self):
        dist = UniformKeys(16)
        keys, masses = dist.support()
        again_keys, again_masses = dist.support()
        assert again_keys is keys and again_masses is masses
        with pytest.raises(ValueError):
            keys[0] = 99
        with pytest.raises(ValueError):
            masses[0] = 0.5


class TestSampling:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_samples_in_range(self, dist, rng):
        keys = draw(dist, rng, 1000)
        assert keys.min() >= 0
        assert keys.max() < dist.num_keys

    def test_normal_concentrates_in_centre(self, rng):
        dist = NormalKeys(100, spread_fraction=0.1)
        keys = normal_draw(dist, rng, 20_000)
        centre_mass = ((keys > 30) & (keys < 70)).mean()
        assert centre_mass > 0.9

    def test_single_key_constant(self, rng):
        dist = SingleKey(num_keys=10, key=3)
        assert (draw(dist, rng, 100) == 3).all()
        assert dist.hot_fraction() == 1.0

    def test_uniform_hot_fraction(self):
        assert UniformKeys(50).hot_fraction() == pytest.approx(0.02)

    def test_zipf_rank1_hottest(self):
        pmf = ZipfKeys(20, exponent=2.0).pmf()
        assert pmf[0] == pmf.max()
        assert (np.diff(pmf) <= 1e-12).all()

    def test_sample_matches_pmf_roughly(self, rng):
        dist = NormalKeys(32, spread_fraction=0.2)
        keys = normal_draw(dist, rng, 100_000)
        empirical = np.bincount(keys, minlength=32) / 100_000
        assert np.abs(empirical - dist.pmf()).max() < 0.02


class TestValidation:
    def test_zero_keys_rejected(self):
        with pytest.raises(ValueError):
            UniformKeys(0)

    def test_bad_spread_rejected(self):
        with pytest.raises(ValueError):
            NormalKeys(10, spread_fraction=0.0)

    def test_single_key_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SingleKey(num_keys=4, key=4)

    def test_zipf_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            ZipfKeys(10, exponent=1.0)


class TestPropertyBased:
    @given(num_keys=st.integers(1, 200), spread=st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_normal_pmf_always_valid(self, num_keys, spread):
        dist = NormalKeys(num_keys, spread_fraction=spread)
        pmf = dist.pmf()
        assert pmf.sum() == pytest.approx(1.0)
        assert (pmf >= 0).all()

    @given(num_keys=st.integers(2, 100), exponent=st.floats(1.01, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_zipf_pmf_always_valid(self, num_keys, exponent):
        dist = ZipfKeys(num_keys, exponent=exponent)
        pmf = dist.pmf()
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[0] >= pmf[-1]
