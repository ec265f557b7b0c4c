import builtins
import functools
import math
import operator
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from fedabr.env import EnvConfig
from fedabr.metrics import QoESummary
from fedabr.net import Gradients, ModelParams, Rollout, a3c_gradients, zero_gradients
from fedabr import traces
from fedabr.traces import NetworkType, SynthFamily, Trace, TransportMode, synthesize_trace


def params_close(a, b, tol=0.0):
    """Same layout and elementwise max |a-b| <= tol (tol 0 means equal values)."""
    return a.layout == b.layout and np.max(np.abs(a.flat - b.flat), initial=0.0) <= tol


def sample_action(probs, rng):
    """Reference sampler: one inverse-CDF sample from a categorical distribution."""
    r = rng.random()
    return int(min(np.searchsorted(np.cumsum(probs), r), len(probs) - 1))


class Episode(NamedTuple):
    """One client's rollout, in the per-client form that the scalar oracles read."""
    states: list  # T states of shape (d,)
    actions: list[int]
    rewards: list[float]
    bootstrap_value: float


def as_rollout(episodes) -> Rollout:
    """The `Rollout` of K episodes of one length, client k from episode k."""
    return Rollout(np.array([np.asarray(e.states, dtype=float) for e in episodes]),
                   np.array([e.actions for e in episodes]),
                   np.array([e.rewards for e in episodes], dtype=float),
                   np.array([e.bootstrap_value for e in episodes], dtype=float))


def episode_of(rollout, k=0) -> Episode:
    """Client k's part of a `Rollout`."""
    return Episode(list(rollout.states[k]), rollout.actions[k].tolist(),
                   rollout.rewards[k].tolist(), float(rollout.bootstrap_values[k]))


def as_stack(params) -> ModelParams:
    """One model as a (1, n) stack that shares its memory."""
    return ModelParams(params.flat[None], params.layout)


def gradients_of(models, rollout, hyper):
    """`a3c_gradients` of the (K, n) stack `models` into a new gradient stack:
    (gradients, losses)."""
    grads = zero_gradients(models)
    return grads, a3c_gradients(models, rollout, hyper, grads)


def one_model_gradients(params, episode, hyper):
    """`a3c_gradients` of one model on one episode: the K = 1 stack, row 0 back."""
    grads, losses = gradients_of(as_stack(params), as_rollout([episode]), hyper)
    return Gradients(grads.flat[0], params.layout), float(losses[0])


def add_in_order(values) -> float:
    """Reference float total: `values` added in index order from 0.0, which is what the
    builtin `sum` gives before Python 3.12 (3.12 compensates its float sums)."""
    return functools.reduce(operator.add, values, 0.0)


def neumaier_sum(iterable, /, start=0):
    """The builtin `sum` as of Python 3.12: floats (and ints among them) are added with
    Neumaier's compensated summation, anything else with `+` as before."""
    total, c = start, 0.0
    for x in iterable:
        kinds = (type(total), type(x))
        if float in kinds and set(kinds) <= {int, float}:
            total = float(total)
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            if c and math.isfinite(c):
                total += c
            total, c = total + x, 0.0
    return total + c if c and math.isfinite(c) else total


@contextmanager
def compensated_sum():
    """Within the block, the builtin `sum` is `neumaier_sum`, as on Python 3.12 and later."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(builtins, "sum", neumaier_sum)
        yield


def episode_qoe(achieved_kbps, delay_ms, stall_s, step_s=1.0) -> QoESummary:
    """Reference per-session QoE of an episode's per-step achieved bitrates, delays
    and stall times: mean achieved bitrate, stall-time fraction, mean delay."""
    return QoESummary(mean_bitrate_kbps=float(np.mean(achieved_kbps)),
                      stall_rate=float(add_in_order(stall_s) / (len(stall_s) * step_s)),
                      mean_delay_ms=float(np.mean(delay_ms)))


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


@pytest.fixture
def parsed_ids(monkeypatch):
    """The trace id of every `parse_trace` call made while the test runs, in order."""
    calls = []
    parse = traces.parse_trace

    def counting(text, trace_id, *labels):
        calls.append(trace_id)
        return parse(text, trace_id, *labels)
    monkeypatch.setattr(traces, "parse_trace", counting)
    return calls
