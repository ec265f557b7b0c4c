import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedabr.env import _EPS_KBPS, DEFAULT_LADDER, EnvConfig, EnvError, StepOutcome, StreamEnv
from fedabr.net import forward, init_params
from fedabr.schemes import evaluate_greedy
from fedabr.traces import NetworkType, Trace, TransportMode, bandwidth_at
from tests.conftest import constant_trace


def _clamp01(x):
    return min(1.0, max(0.0, x))


class TestConfigChecks:
    """Each bad value is rejected at construction with an error that names its field;
    NaN fails every check."""

    @pytest.mark.parametrize("field, value, rule", [
        ("ladder", (300.0, np.nan), "2 or more finite positive rates, strictly ascending"),
        ("ladder", (np.nan, 300.0), "2 or more finite positive rates, strictly ascending"),
        ("ladder", (300.0, np.nan, 900.0), "2 or more finite positive rates"),
        ("ladder", (300.0, np.inf), "2 or more finite positive rates"),
        ("ladder", (0.0, 300.0), "2 or more finite positive rates"),
        ("ladder", (750.0, 300.0), "2 or more finite positive rates"),
        ("ladder", (300.0, 300.0), "2 or more finite positive rates"),
        ("ladder", (300.0,), "2 or more finite positive rates"),
        ("step_s", np.nan, "finite and positive"),
        ("step_s", np.inf, "finite and positive"),
        ("step_s", 0.0, "finite and positive"),
        ("base_rtt_ms", np.nan, "finite and positive"),
        ("base_rtt_ms", np.inf, "finite and positive"),
        ("base_rtt_ms", -1.0, "finite and positive"),
        ("deadline_ms", np.nan, r"finite and above base_rtt_ms \(50\.0\)"),
        ("deadline_ms", np.inf, r"finite and above base_rtt_ms \(50\.0\)"),
        ("deadline_ms", 50.0, r"finite and above base_rtt_ms \(50\.0\)"),
        ("history_len", 0, ">= 1"),
        ("episode_len", 0, ">= 1"),
        *((w, v, "finite") for w in ("w_bitrate", "w_stall", "w_delay", "w_switch")
          for v in (np.nan, np.inf, -np.inf)),
    ])
    def test_bad_value_names_its_field(self, field, value, rule):
        with pytest.raises(EnvError, match=rf"^{field} must be {rule}"):
            EnvConfig(**{field: value})

    def test_deadline_above_a_nan_rtt_is_rejected(self):
        with pytest.raises(EnvError, match=r"^base_rtt_ms must be finite and positive, got nan$"):
            EnvConfig(base_rtt_ms=np.nan, deadline_ms=np.inf)

    @pytest.mark.parametrize("values", [
        dict(ladder=(1e-300, 1e300), step_s=1e-9, base_rtt_ms=1e-9, deadline_ms=2e-9),
        dict(w_bitrate=-2.0, w_stall=0.0, w_delay=-0.0, w_switch=1e300),
        dict(ladder=(300, 750)),
    ])
    def test_finite_values_are_kept(self, values):
        config = EnvConfig(**values)
        assert all(getattr(config, k) == v for k, v in values.items())


class TestReset:
    def test_constant_trace_history(self, small_env_config):
        env = StreamEnv(constant_trace(1000), small_env_config)
        state = env.reset()
        k = small_env_config.history_len
        thr = np.asarray(state[:k])
        assert np.all(thr == thr[0])
        assert thr[0] == pytest.approx(1000 / small_env_config.max_rate)

    def test_start_beyond_end(self, small_env_config):
        env = StreamEnv(constant_trace(1000, duration=30), small_env_config)
        with pytest.raises(EnvError):
            env.reset(start=20.0)

    def test_start_before_first_sample(self, small_env_config, monkeypatch):
        late = Trace("late", np.arange(5.0, 70.0), np.full(65, 1000.0), NetworkType.WIFI,
                     TransportMode.FOOT)
        looked_up = []
        monkeypatch.setattr("fedabr.env.bandwidth_at", lambda *args: looked_up.append(args))
        with pytest.raises(EnvError, match=r"^trace 'late' starts at 5\.0s, after the "
                                           r"episode start 2\.0s$"):
            StreamEnv(late, small_env_config).reset(start=2.0)
        assert looked_up == []

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


def greedy_model(cfg, action=None, seed=0):
    """A small model; with `action`, one whose greedy choice is always that rung."""
    params = init_params((cfg.state_dim, 8), len(cfg.ladder), seed)
    if action is not None:
        params.weights[-2][:] = 0.0  # policy logits = policy bias
        params.biases[-2][action] = 1.0
    return params


class TestEpisodeQoe:
    """The per-session QoE that `evaluate_greedy` reduces from an episode's steps:
    rows (bitrate, stall rate, delay, reward) of a (4, traces, models) array."""

    def test_no_stalls(self):
        cfg = EnvConfig(episode_len=10)
        qoe = evaluate_greedy([greedy_model(cfg, 0)], [constant_trace(1000)], cfg)
        assert qoe[:3, 0, 0].tolist() == [DEFAULT_LADDER[0], 0.0, cfg.base_rtt_ms]

    def test_stall_fraction(self):
        cfg = EnvConfig(episode_len=270, step_s=0.5)
        env = StreamEnv(constant_trace(4000), cfg)
        env.reset()
        outcomes = [env.step(5)[2] for _ in range(270)]  # overload: the backlog grows
        stalled = sum(1 for o in outcomes if o.stall_s > 0)
        assert 0 < stalled < len(outcomes)
        qoe = evaluate_greedy([greedy_model(cfg, 5)], [constant_trace(4000)], cfg)
        assert qoe[1, 0, 0] == pytest.approx(stalled / len(outcomes))

    def test_resummation_oracle(self, noisy_trace):
        cfg = EnvConfig(episode_len=100)
        models, rng = [greedy_model(cfg, seed=s) for s in range(3)], np.random.default_rng(1)
        for params in models:
            params.flat[:] += rng.normal(scale=0.5, size=params.flat.size)
        got = evaluate_greedy(models, [noisy_trace], cfg)
        for params, qoe in zip(models, got[:, 0].T):
            env = StreamEnv(noisy_trace, cfg)
            state, outcomes = env.reset(), []
            while not env.done:
                state, _, out = env.step(int(np.argmax(forward(params, state)[0])))
                outcomes.append(out)
            n = len(outcomes)
            assert qoe.tolist() == pytest.approx([
                sum(o.achieved_kbps for o in outcomes) / n,
                sum(o.stall_s for o in outcomes) / (n * cfg.step_s),
                sum(o.delay_ms for o in outcomes) / n, sum(o.reward for o in outcomes) / n])

    def test_empty(self):
        cfg = EnvConfig(episode_len=10)
        models = [greedy_model(cfg, 0), greedy_model(cfg, 1)]
        assert evaluate_greedy(models, [], cfg).shape == (4, 0, 2)


class TestInvariants:
    def test_randomized_episode_invariants(self, noisy_trace, rng):
        cfg = EnvConfig(episode_len=200)
        env = StreamEnv(noisy_trace, cfg)
        state = env.reset()
        cap_sum = 0.0
        achieved_sum = 0.0
        while not env.done:
            assert np.all(np.asarray(state) >= 0) and np.all(np.asarray(state) <= 1)
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


class SeekEnv:
    """Reference simulator that searches the trace at every step: after each
    step it adds `step_s` to the clock and reads the last sample at or before
    the new time (clamped to the trace end)."""

    def __init__(self, trace, config):
        self.trace, self.config = trace, config

    def reset(self, start):
        cfg = self.config
        self._end = self.trace.times.item(-1)
        self._t = start
        self._steps_left = cfg.episode_len
        self._backlog_kbit = 0.0
        self._queue_delay_ms = 0.0
        self._prev_bitrate = cfg.ladder[0]
        bw0 = bandwidth_at(self.trace, start)
        self._thr_hist = [_clamp01(bw0 / cfg.max_rate)] * cfg.history_len
        self._delay_hist = [_clamp01(cfg.base_rtt_ms / cfg.delay_norm_ms)] * cfg.history_len
        self._seek(start)
        return self._state()

    def _seek(self, t):
        trace = self.trace
        i = int(trace.times.searchsorted(t, side="right")) - 1
        self._capacity = trace.bandwidth.item(i)
        loss = trace.loss
        self._loss = 0.0 if loss is None or np.isnan(loss[i]) else loss.item(i)

    def _state(self):
        cfg = self.config
        return np.array(self._thr_hist + self._delay_hist + [
            _clamp01(self._prev_bitrate / cfg.max_rate),
            _clamp01(self._queue_delay_ms / cfg.delay_norm_ms), self._loss], dtype=float)

    def step(self, action):
        cfg = self.config
        bitrate, capacity, old_backlog = cfg.ladder[action], self._capacity, self._backlog_kbit
        new_backlog = max(0.0, old_backlog + (bitrate - capacity) * cfg.step_s)
        drained = max(0.0, old_backlog - new_backlog)
        achieved = min(bitrate, capacity + drained / cfg.step_s)
        queue_delay_ms = 1000.0 * new_backlog / max(capacity, _EPS_KBPS)
        delay = cfg.base_rtt_ms + queue_delay_ms
        stall = cfg.step_s if delay > cfg.deadline_ms else 0.0
        reward = (cfg.w_bitrate * (bitrate / cfg.max_rate)
                  - cfg.w_stall * (stall / cfg.step_s)
                  - cfg.w_delay * (delay / cfg.deadline_ms)
                  - cfg.w_switch * abs(bitrate - self._prev_bitrate) / cfg.max_rate)
        outcome = StepOutcome(self._t, bitrate, capacity, achieved, delay, stall, reward)
        self._backlog_kbit = new_backlog
        self._queue_delay_ms = queue_delay_ms
        self._thr_hist = self._thr_hist[1:] + [_clamp01(achieved / cfg.max_rate)]
        self._delay_hist = self._delay_hist[1:] + [_clamp01(delay / cfg.delay_norm_ms)]
        self._prev_bitrate = bitrate
        self._t += cfg.step_s
        self._seek(min(self._t, self._end))
        self._steps_left -= 1
        return self._state(), reward, outcome


class TestEpisodeLookup:
    """`reset`'s one lookup for the whole episode against a search at every step."""

    @settings(max_examples=200, deadline=None)
    @given(lookup_cases())
    def test_matches_per_step_search(self, case):
        trace, step_s, start, episode_len, seed = case
        cfg = EnvConfig(step_s=step_s, episode_len=episode_len, history_len=3)
        rng = np.random.default_rng(seed)
        env, ref = StreamEnv(trace, cfg), SeekEnv(trace, cfg)
        state, ref_state = env.reset(start), ref.reset(start)
        assert np.array_equal(state, ref_state)
        for _ in range(episode_len):
            action = int(rng.integers(len(cfg.ladder)))
            (state, reward, out), (ref_state, ref_reward, ref_out) = (env.step(action),
                                                                      ref.step(action))
            assert np.array_equal(state, ref_state)
            assert reward == ref_reward and out == ref_out
            assert type(out.t) is float and type(out.capacity_kbps) is float
        assert env.done and env.steps_left == 0


class TwoListEnv(StreamEnv):
    """Reference: `reset`, `_state` and `step` as they were before the step kept one
    history list and its config ratios, with separate throughput and delay
    histories and `_clamp01` calls."""

    def reset(self, start=0.0):
        cfg = self.config
        needed = start + cfg.episode_len * cfg.step_s
        end = self.trace.times.item(-1)
        if needed > end:
            raise EnvError(f"trace {self.trace.id!r} too short: episode needs "
                           f"{needed}s, trace ends at {end}s")
        bw0 = bandwidth_at(self.trace, start)
        times = np.cumsum(np.r_[start, np.full(cfg.episode_len, cfg.step_s)])
        idx = self.trace.times.searchsorted(times, side="right") - 1
        loss = self.trace.loss
        self._times = times.tolist()
        self._capacity = self.trace.bandwidth[idx].tolist()
        self._loss = ([0.0] * len(idx) if loss is None
                      else np.where(np.isnan(loss[idx]), 0.0, loss[idx]).tolist())
        self._j = 0
        self._backlog_kbit = 0.0
        self._queue_delay_ms = 0.0
        self._prev_bitrate = cfg.ladder[0]
        self._thr_hist = [_clamp01(bw0 / cfg.max_rate)] * cfg.history_len
        self._delay_hist = [_clamp01(cfg.base_rtt_ms / cfg.delay_norm_ms)] * cfg.history_len
        self._started = True
        return self._state()

    def _state(self):
        cfg = self.config
        return np.array(
            self._thr_hist + self._delay_hist + [
                _clamp01(self._prev_bitrate / cfg.max_rate),
                _clamp01(self._queue_delay_ms / cfg.delay_norm_ms),
                self._loss[self._j],
            ],
            dtype=float,
        )

    def step(self, action):
        if not self._started:
            raise EnvError("call reset() before step()")
        cfg = self.config
        if not 0 <= action < len(cfg.ladder):
            raise EnvError(f"action index {action} out of range")
        j = self._j
        if j >= cfg.episode_len:
            raise EnvError("episode exhausted")

        bitrate = cfg.ladder[action]
        capacity = self._capacity[j]
        old_backlog = self._backlog_kbit
        new_backlog = max(0.0, old_backlog + (bitrate - capacity) * cfg.step_s)
        drained = max(0.0, old_backlog - new_backlog)
        achieved = min(bitrate, capacity + drained / cfg.step_s)
        queue_delay_ms = 1000.0 * new_backlog / max(capacity, _EPS_KBPS)
        delay = cfg.base_rtt_ms + queue_delay_ms
        stall = cfg.step_s if delay > cfg.deadline_ms else 0.0
        reward = (cfg.w_bitrate * (bitrate / cfg.max_rate)
                  - cfg.w_stall * (stall / cfg.step_s)
                  - cfg.w_delay * (delay / cfg.deadline_ms)
                  - cfg.w_switch * abs(bitrate - self._prev_bitrate) / cfg.max_rate)

        outcome = StepOutcome(self._times[j], bitrate, capacity, achieved, delay, stall, reward)

        self._backlog_kbit = new_backlog
        self._queue_delay_ms = queue_delay_ms
        self._thr_hist = self._thr_hist[1:] + [_clamp01(achieved / cfg.max_rate)]
        self._delay_hist = self._delay_hist[1:] + [_clamp01(delay / cfg.delay_norm_ms)]
        self._prev_bitrate = bitrate
        self._j = j + 1
        return self._state(), reward, outcome


@st.composite
def step_configs(draw):
    """A random ladder, link and reward setting; deadlines near the base rtt and
    bitrates far above capacity make stalls, clamped delays and switches common."""
    rungs = draw(st.lists(st.floats(1.0, 9000.0), min_size=2, max_size=7, unique=True))
    base_rtt = draw(st.floats(1.0, 300.0))
    weight = st.floats(0.0, 3.0)
    return dict(ladder=tuple(sorted(rungs)), base_rtt_ms=base_rtt,
                deadline_ms=base_rtt + draw(st.floats(0.5, 600.0)),
                history_len=draw(st.integers(1, 10)), w_bitrate=draw(weight),
                w_stall=draw(weight), w_delay=draw(weight), w_switch=draw(weight))


def with_edge_capacities(draw, trace, ladder):
    """`trace` with some samples' bandwidth set to 0.0, to a value below `_EPS_KBPS`
    or to a ladder rung (where sending that rung ties `achieved`), which the
    uniform(0, 5000) draws of `lookup_cases` almost never hit."""
    edges = st.sampled_from([0.0, 5e-324, 0.5 * _EPS_KBPS, _EPS_KBPS, *ladder])
    picks = draw(st.lists(st.none() | edges, min_size=len(trace.times),
                          max_size=len(trace.times)))
    bandwidth = [b if p is None else p for b, p in zip(trace.bandwidth.tolist(), picks)]
    return Trace(trace.id, trace.times, np.array(bandwidth), trace.network_type,
                 trace.transport_mode, loss=trace.loss)


def state_bytes(state, dim):
    """The bytes of a state handed over as a list of `dim` Python floats, as an array."""
    assert type(state) is list and len(state) == dim and all(type(v) is float for v in state)
    return np.array(state, dtype=float).tobytes()


def check_against_two_list_step(trace, cfg, start, seed):
    rng = np.random.default_rng(seed)
    env, ref = StreamEnv(trace, cfg), TwoListEnv(trace, cfg)
    assert state_bytes(env.reset(start), cfg.state_dim) == ref.reset(start).tobytes()
    for _ in range(cfg.episode_len):
        action = int(rng.integers(len(cfg.ladder)))
        (state, reward, out), (ref_state, ref_reward, ref_out) = (env.step(action),
                                                                  ref.step(action))
        assert state_bytes(state, cfg.state_dim) == ref_state.tobytes()
        assert np.array([reward, *out]).tobytes() == np.array([ref_reward, *ref_out]).tobytes()
    with pytest.raises(EnvError, match="exhausted"):
        env.step(0)


class TestStepReference:
    """The step with one history list, handing its state over as a list of floats,
    against the step with two that builds an array, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(lookup_cases(), step_configs(), st.data())
    def test_matches_two_list_step(self, case, settings_, data):
        trace, step_s, start, episode_len, seed = case
        cfg = EnvConfig(step_s=step_s, episode_len=episode_len, **settings_)
        check_against_two_list_step(with_edge_capacities(data.draw, trace, cfg.ladder), cfg,
                                    start, seed)

    def test_empty_loss_fields(self):
        """A loss column with empty (NaN) fields, the first and the last included."""
        rng = np.random.default_rng(3)
        loss = np.where(rng.random(40) < 0.5, rng.uniform(size=40), np.nan)
        loss[[0, -1]] = np.nan
        trace = Trace("lossy", np.arange(40.0), rng.uniform(0.0, 5000.0, size=40),
                      NetworkType.WIFI, TransportMode.FOOT, loss=loss)
        check_against_two_list_step(trace, EnvConfig(episode_len=39, history_len=3), 0.0, 5)
