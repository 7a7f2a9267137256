"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.thresholds import NormalThresholds, all_sizes
from repro.testkit.oracles import brute_force_bursts

# Deep property runs for the nightly CI job
# (``pytest --hypothesis-profile=nightly``); tier-1 keeps the default.
settings.register_profile("nightly", max_examples=2000, deadline=None)


@pytest.fixture
def rng():
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_poisson(rng):
    """A small Poisson stream for quick detector checks."""
    return rng.poisson(5.0, 2000).astype(np.float64)


@pytest.fixture
def small_thresholds(small_poisson):
    """Thresholds over sizes 1..32 fitted to the small stream."""
    return NormalThresholds.from_data(
        small_poisson[:800], 1e-3, all_sizes(32)
    )


@pytest.fixture
def oracle():
    """The brute-force burst oracle as a fixture."""
    return brute_force_bursts
