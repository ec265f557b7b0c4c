import numpy as np
import pytest

from fedabr.env import EnvConfig, episode_qoe
from fedabr.traces import NetworkType, SynthFamily, Trace, TransportMode, synthesize_trace


def params_close(a, b, tol=0.0):
    """Same layout and elementwise max |a-b| <= tol (tol 0 means equal values)."""
    return a.layout == b.layout and np.max(np.abs(a.flat - b.flat), initial=0.0) <= tol


def sample_action(probs, rng):
    """Reference sampler: one inverse-CDF sample from a categorical distribution."""
    r = rng.random()
    return int(min(np.searchsorted(np.cumsum(probs), r), len(probs) - 1))


def qoe_of(outcomes, step_s=1.0):
    """`episode_qoe` of a list of `StepOutcome`s."""
    return episode_qoe([o.achieved_kbps for o in outcomes], [o.delay_ms for o in outcomes],
                       [o.stall_s for o in outcomes], step_s)


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
