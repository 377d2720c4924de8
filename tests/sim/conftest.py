"""Fixtures for the kernel tests."""

import pytest

from repro.observability.metrics import KernelInstrument, MetricsRegistry
from repro.sim import Environment


@pytest.fixture
def metered_env() -> Environment:
    """An environment whose runs take the metered dispatch loop."""
    env = Environment()
    env._instrument = KernelInstrument(MetricsRegistry())
    return env
