import numpy as np
import pytest

from fedabr.env import EnvConfig
from fedabr.traces import NetworkType, SynthFamily, Trace, TransportMode, synthesize_trace


def constant_trace(bandwidth=1000.0, duration=400, trace_id="const",
                   nt=NetworkType.FOUR_G, tm=TransportMode.CAR):
    times = np.arange(duration + 1, dtype=float)
    return Trace(trace_id, times, np.full_like(times, bandwidth), nt, tm)


@pytest.fixture
def small_env_config():
    return EnvConfig(episode_len=20)


@pytest.fixture
def noisy_trace():
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=300, period_s=40,
                      noise_std_kbps=150, duration_s=400)
    return synthesize_trace(fam, "noisy", NetworkType.FOUR_G, TransportMode.CAR, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
