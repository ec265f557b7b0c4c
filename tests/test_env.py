import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedabr.env import (DEFAULT_LADDER, EnvConfig, EnvError, StreamEnv, episode_qoe,
                        outcome_csv_row, OUTCOME_CSV_HEADER)
from fedabr.traces import NetworkType, Trace, TransportMode, bandwidth_at
from tests.conftest import constant_trace


class TestReset:
    def test_constant_trace_history(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        state = env.reset()
        k = small_env_config.history_len
        thr = state[:k]
        assert np.all(thr == thr[0])
        assert thr[0] == pytest.approx(1000 / small_env_config.max_rate)

    def test_start_beyond_end(self, small_env_config):
        env = StreamEnv(constant_trace(1000, duration=30), small_env_config)
        with pytest.raises(EnvError):
            env.reset(start=20.0)

    def test_reset_deterministic(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        assert np.array_equal(env.reset(), env.reset())

    def test_last_action_is_lowest_rung(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        state = env.reset()
        k = small_env_config.history_len
        assert state[2 * k] == pytest.approx(DEFAULT_LADDER[0] / DEFAULT_LADDER[-1])


class TestStep:
    def test_under_capacity(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        env.reset()
        _, _, out = env.step(0)  # 300 kbps vs 1000 kbps capacity
        assert out.stall_s == 0
        assert out.delay_ms == small_env_config.base_rtt_ms
        assert out.achieved_kbps == 300

    def test_backlog_recurrence(self):
        cfg = EnvConfig(episode_len=30)
        env = StreamEnv(constant_trace(1000), cfg)
        env.reset()
        backlog = 0.0
        stalled = False
        for _ in range(30):
            _, _, out = env.step(4)  # 2850 kbps vs 1000 kbps: queue grows
            backlog = max(0.0, backlog + (2850 - 1000) * cfg.step_s)
            expected_delay = cfg.base_rtt_ms + 1000 * backlog / 1000
            assert out.delay_ms == pytest.approx(expected_delay)
            if out.delay_ms > cfg.deadline_ms:
                assert out.stall_s == cfg.step_s
                stalled = True
        assert stalled

    def test_full_episode_reward_closed_form(self):
        cfg = EnvConfig(episode_len=50)
        env = StreamEnv(constant_trace(2000), cfg)
        env.reset()
        total = 0.0
        for _ in range(50):
            _, r, _ = env.step(1)  # 750 kbps, always under capacity
            total += r
        per_step = (cfg.w_bitrate * 750 / cfg.max_rate
                    - cfg.w_delay * cfg.base_rtt_ms / cfg.deadline_ms)
        switch = cfg.w_switch * abs(750 - cfg.ladder[0]) / cfg.max_rate
        assert total == pytest.approx(50 * per_step - switch)

    def test_bad_action_index(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        env.reset()
        with pytest.raises(EnvError):
            env.step(99)

    def test_episode_exhausted(self):
        env = StreamEnv(constant_trace(1000), EnvConfig(episode_len=2))
        env.reset()
        env.step(0)
        env.step(0)
        with pytest.raises(EnvError):
            env.step(0)


class TestEpisodeQoe:
    def _run(self, actions, cfg=None):
        cfg = cfg or EnvConfig(episode_len=len(actions))
        env = StreamEnv(constant_trace(1000), cfg)
        env.reset()
        return [env.step(a)[2] for a in actions]

    def test_no_stalls(self):
        outcomes = self._run([0] * 10)
        assert episode_qoe(outcomes).stall_rate == 0

    def test_stall_fraction(self):
        cfg = EnvConfig(episode_len=300)
        env = StreamEnv(constant_trace(1000), cfg)
        env.reset()
        outcomes = [env.step(5)[2] for _ in range(270)]  # overload: stalls quickly
        stalled = sum(1 for o in outcomes if o.stall_s > 0)
        qoe = episode_qoe(outcomes, cfg.step_s)
        assert qoe.stall_rate == pytest.approx(stalled / len(outcomes))

    def test_resummation_oracle(self, noisy_trace, rng):
        cfg = EnvConfig(episode_len=100)
        env = StreamEnv(noisy_trace, cfg)
        env.reset()
        outcomes = [env.step(int(rng.integers(len(cfg.ladder))))[2] for _ in range(100)]
        qoe = episode_qoe(outcomes, cfg.step_s)
        assert qoe.mean_bitrate_kbps == pytest.approx(
            sum(o.achieved_kbps for o in outcomes) / len(outcomes))
        assert qoe.mean_delay_ms == pytest.approx(
            sum(o.delay_ms for o in outcomes) / len(outcomes))
        assert qoe.stall_rate == pytest.approx(
            sum(o.stall_s for o in outcomes) / (len(outcomes) * cfg.step_s))

    def test_empty(self):
        with pytest.raises(EnvError):
            episode_qoe([])


class TestInvariants:
    def test_randomized_episode_invariants(self, noisy_trace, rng):
        cfg = EnvConfig(episode_len=200)
        env = StreamEnv(noisy_trace, cfg)
        state = env.reset()
        cap_sum = 0.0
        achieved_sum = 0.0
        while not env.done:
            assert np.all(state >= 0) and np.all(state <= 1)
            state, _, out = env.step(int(rng.integers(len(cfg.ladder))))
            assert env._backlog_kbit >= 0
            assert 0 <= out.achieved_kbps <= out.action_kbps
            assert out.delay_ms >= cfg.base_rtt_ms
            assert 0 <= out.stall_s <= cfg.step_s
            cap_sum += out.capacity_kbps * cfg.step_s
            achieved_sum += out.achieved_kbps * cfg.step_s
        assert achieved_sum <= cap_sum + 1e-9

    def test_single_step_monotonicity(self, noisy_trace):
        cfg = EnvConfig(episode_len=10)
        achieved = []
        for action in range(len(cfg.ladder)):
            env = StreamEnv(noisy_trace, cfg)
            env.reset()
            achieved.append(env.step(action)[2].achieved_kbps)
        assert achieved == sorted(achieved)

    def test_determinism(self, noisy_trace, small_env_config):
        actions = [0, 3, 5, 1, 2, 4] * 3
        runs = []
        for _ in range(2):
            env = StreamEnv(noisy_trace, small_env_config)
            env.reset()
            runs.append([env.step(a) for a in actions[:small_env_config.episode_len]])
        for (s1, r1, o1), (s2, r2, o2) in zip(*runs):
            assert np.array_equal(s1, s2) and r1 == r2 and o1 == o2


def scan_sample(trace, t):
    """Linear-scan oracle: the last sample with timestamp <= t."""
    found = None
    for s in trace.samples:
        if s.t <= t:
            found = s
    return found


@st.composite
def lookup_cases(draw):
    """A trace with random length, sample times, bandwidth and loss; a step
    size, a start time and an episode length that fits in the trace."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # whole seconds, so that step starts hit sample times
        times = draw(st.integers(0, 50)) + np.arange(n, dtype=float)
    else:
        times = draw(st.floats(0.0, 50.0)) + np.cumsum(rng.uniform(0.01, 3.0, size=n))
    loss = None
    if draw(st.booleans()):  # a loss column with about 30% of its fields empty
        loss = np.where(rng.random(n) < 0.7, rng.uniform(size=n), np.nan)
    trace = Trace("rand", times, rng.uniform(0.0, 5000.0, size=n),
                  NetworkType.WIFI, TransportMode.FOOT, loss=loss)
    step_s = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.05, 5.0))
    start = draw(st.sampled_from([float(t) for t in times[:-1]])
                 | st.floats(float(times[0]), float(times[-1])))
    episode_len = int((times[-1] - start) // step_s)
    assume(episode_len >= 1 and start + episode_len * step_s <= times[-1])
    return trace, step_s, start, episode_len, int(rng.integers(2**32))


class TestLookupOracle:
    """Capacity and loss lookups against a linear scan over the samples."""

    @settings(max_examples=150, deadline=None)
    @given(lookup_cases())
    def test_env_lookups_match_linear_scan(self, case):
        trace, step_s, start, episode_len, seed = case
        cfg = EnvConfig(step_s=step_s, episode_len=episode_len, history_len=2)
        rng = np.random.default_rng(seed)
        env = StreamEnv(trace, cfg)
        state = env.reset(start)
        t = start
        while True:
            loss = scan_sample(trace, min(t, trace.samples[-1].t)).loss
            assert state[-1] == (0.0 if loss is None else loss)
            if env.done:
                break
            state, _, out = env.step(int(rng.integers(len(cfg.ladder))))
            assert out.t == t
            assert out.capacity_kbps == scan_sample(trace, t).bandwidth
            assert out.capacity_kbps == bandwidth_at(trace, t)
            # Python floats, so that outcome CSV rows written with repr() keep their bytes.
            assert type(out.capacity_kbps) is float and type(bandwidth_at(trace, t)) is float
            t += step_s


def test_outcome_csv(noisy_trace, small_env_config):
    env = StreamEnv(noisy_trace, small_env_config)
    env.reset()
    _, _, out = env.step(2)
    row = outcome_csv_row(out)
    assert len(row.split(",")) == len(OUTCOME_CSV_HEADER.split(","))
    assert float(row.split(",")[1]) == out.action_kbps
