"""Two independently built specs of one experiment are one spec.

A spec names an experiment: the search journal fingerprints it by
``repr`` and ``repro paper`` runs each distinct spec once, keyed by the
spec itself.  So every component a spec can hold -- each
:class:`RateProfile` and :class:`KeyDistribution` -- must compare, hash
and print by value; an object address in a ``repr`` would make every
resume refuse, and identity equality would run one trial twice.
"""

import pytest

from repro.core.experiment import ExperimentSpec
from repro.workloads import keys, profiles
from repro.workloads.queries import WindowedAggregationQuery

#: One builder per concrete subclass; a new subclass without an entry
#: fails :func:`test_every_subclass_has_a_builder`.
PROFILES = {
    profiles.ConstantRate: lambda: profiles.ConstantRate(0.3e6),
    profiles.ScaledRate: lambda: profiles.ConstantRate(0.3e6).scaled(0.9),
    profiles.StepRate: lambda: profiles.StepRate([(0.0, 1e5), (20.0, 3e5)]),
    profiles.FluctuatingRate: lambda: profiles.fig6_profile(),
    profiles.DiurnalRate: lambda: profiles.DiurnalRate(1e5, 4e5, 60.0),
    profiles.FlashCrowdRate: lambda: profiles.FlashCrowdRate(
        1e5, 4e5, horizon_s=120.0, spikes=3, seed=5
    ),
}
KEYS = {
    keys.NormalKeys: lambda: keys.NormalKeys(64, spread_fraction=0.2),
    keys.UniformKeys: lambda: keys.UniformKeys(64),
    keys.SingleKey: lambda: keys.SingleKey(4, key=2),
    keys.ZipfKeys: lambda: keys.ZipfKeys(64, exponent=1.2),
}


def concrete_subclasses(base):
    found = set()
    for sub in base.__subclasses__():
        if not getattr(sub, "__abstractmethods__", None):
            found.add(sub)
        found |= concrete_subclasses(sub)
    return found


def test_every_subclass_has_a_builder():
    assert concrete_subclasses(profiles.RateProfile) == set(PROFILES)
    assert concrete_subclasses(keys.KeyDistribution) == set(KEYS)


def spec(profile_build, keys_build):
    return ExperimentSpec(
        profile=profile_build(),
        query=WindowedAggregationQuery(keys=keys_build()),
    )


def assert_one_value(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert " at 0x" not in repr(a)


@pytest.mark.parametrize("cls", list(PROFILES), ids=lambda c: c.__name__)
def test_rate_profiles_compare_by_value(cls):
    build = PROFILES[cls]
    assert_one_value(build(), build())
    assert_one_value(
        spec(build, KEYS[keys.UniformKeys]), spec(build, KEYS[keys.UniformKeys])
    )


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
def test_key_distributions_compare_by_value(cls):
    build = KEYS[cls]
    assert_one_value(build(), build())
    constant = PROFILES[profiles.ConstantRate]
    assert_one_value(spec(constant, build), spec(constant, build))


def test_different_parameters_differ():
    assert keys.UniformKeys(64) != keys.UniformKeys(65)
    assert keys.UniformKeys(64) != keys.NormalKeys(64)
    assert profiles.FlashCrowdRate(1e5, 4e5, 120.0, seed=1) != (
        profiles.FlashCrowdRate(1e5, 4e5, 120.0, seed=2)
    )
    assert ExperimentSpec(profile=profiles.StepRate([(0.0, 1.0)])) != (
        ExperimentSpec(profile=profiles.StepRate([(0.0, 2.0)]))
    )
