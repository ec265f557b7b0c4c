import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedabr.env import EnvConfig, EnvError, StreamEnv
from fedabr.net import (DivergenceError, ModelParams, NetError, TrainHyper, a3c_gradients,
                        apply_update, forward, init_params)
from fedabr.pretrain import DEFAULT_ARCH_HIDDEN, PretrainConfig, collect_rollout, offline_train
from fedabr.traces import NetworkType, SynthFamily, Trace, TransportMode, synthesize_trace
from tests.conftest import (Episode, as_stack, compensated_sum, constant_trace, params_close,
                            sample_action)
from tests.test_net import per_client_gradients

LADDER4 = (300.0, 750.0, 1200.0, 1850.0)


def plain_episode(env, params, hyper, rng, frozen_layers=0):
    """Reference: one episode of rollout -> gradient -> SGD step cycles of one
    model, built from the scalar oracles (`reference_rollout`, the per-client
    gradient), which update `params` in place."""
    state = env.reset()
    while not env.done:
        episode, state = reference_rollout(env, params, state, hyper.rollout_len, rng)
        grads, _ = per_client_gradients(params, episode, hyper)
        apply_update(params, grads, hyper.lr, frozen_layers)
    return params


class TestOfflineTrain:
    def test_zero_epochs_is_init(self, small_env_config):
        cfg = PretrainConfig(epochs=0, seed=4)
        params, rewards = offline_train([constant_trace()], cfg, small_env_config)
        expected = init_params((small_env_config.state_dim, *DEFAULT_ARCH_HIDDEN),
                               len(small_env_config.ladder), seed=4)
        assert params_close(params, expected)
        assert rewards == []

    def test_deterministic(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=20)
        cfg = PretrainConfig(epochs=3, episodes_per_epoch=2, seed=8)
        _, r1 = offline_train([constant_trace()], cfg, ec)
        _, r2 = offline_train([constant_trace()], cfg, ec)
        assert r1 == r2

    def test_one_episode_equals_plain_loop(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=40)
        hyper = TrainHyper(rollout_len=8)
        cfg = PretrainConfig(epochs=1, episodes_per_epoch=1, hyper=hyper, seed=3)
        trained, _ = offline_train([constant_trace(1000.0)], cfg, ec)
        params = init_params((ec.state_dim, *cfg.hidden), len(ec.ladder), seed=3)
        expected = plain_episode(StreamEnv(constant_trace(1000.0), ec), params, hyper,
                                 np.random.default_rng(3))
        assert params_close(trained, expected)

    @pytest.mark.parametrize("lr, message", [
        (1e307, "epoch 1, trace 'const': non-finite update"),
        (10.0, "epoch 1, trace 'const': non-finite loss or gradient")])
    def test_divergence_names_epoch_and_trace(self, lr, message):
        ec = EnvConfig(ladder=LADDER4, episode_len=40)
        # At lr 10 the value head's SGD grows geometrically (value_coef 10) until the loss
        # overflows; at 1e307 the first step overflows.
        hyper = TrainHyper(lr=lr, rollout_len=8, clip_norm=0.0, value_coef=10.0)
        cfg = PretrainConfig(epochs=2, hyper=hyper)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            offline_train([constant_trace()], cfg, ec)
        assert str(info.value) == message

    @pytest.mark.parametrize("times, message", [
        (np.arange(5.0, 70.0), "trace 'bad' starts at 5.0s, after the episode start 0.0s"),
        (np.arange(0.0, 20.0), "trace 'bad' too short: episode needs 32.0s, trace ends at 19.0s")])
    def test_bad_trace_fails_before_training(self, times, message, monkeypatch):
        """A bad trace placed last fails before the good ones ahead of it train."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return a3c_gradients(*args, **kwargs)

        monkeypatch.setattr("fedabr.pretrain.a3c_gradients", counted)
        bad = Trace("bad", times, np.full(len(times), 1000.0), NetworkType.WIFI,
                    TransportMode.FOOT)
        with pytest.raises(EnvError) as info:
            offline_train([constant_trace(), bad], PretrainConfig(epochs=2, episodes_per_epoch=1),
                          EnvConfig(episode_len=32))
        assert str(info.value) == message and calls == []

    def test_rewards_do_not_depend_on_the_builtin_sum(self):
        """Python 3.12's `sum` compensates float sums; the reward log must not see it."""
        fam = SynthFamily(mean_kbps=1100, amplitude_kbps=500, period_s=15,
                          noise_std_kbps=250, duration_s=60)
        traces = [synthesize_trace(fam, f"s{i}", NetworkType.FOUR_G, TransportMode.CAR, i)
                  for i in range(3)]
        cfg = PretrainConfig(epochs=6, episodes_per_epoch=2, seed=3)
        ec = EnvConfig(episode_len=50)
        _, plain = offline_train(traces, cfg, ec)
        with compensated_sum():
            _, compensated = offline_train(traces, cfg, ec)
        assert [r.hex() for r in compensated] == [r.hex() for r in plain]

    def test_empty_trace_set(self):
        with pytest.raises(ValueError):
            offline_train([], PretrainConfig(epochs=1))

    @pytest.mark.parametrize("kwargs, message", [
        ({"episodes_per_epoch": 0}, "episodes_per_epoch must be >= 1, got 0"),
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ({"hidden": ()}, "hidden must be one or more widths >= 1, got ()")])
    def test_bad_setting_names_its_field(self, kwargs, message):
        with pytest.raises(ValueError) as e:
            PretrainConfig(**kwargs)
        assert str(e.value) == message

    @pytest.mark.slow
    def test_learns_best_sustainable_rate(self):
        # Bitrate-favoring weights on a constant 1000 kbps link: the greedy
        # policy should settle on 750 kbps, the highest rung under capacity.
        ec = EnvConfig(ladder=LADDER4, episode_len=50)
        hyper = TrainHyper(lr=1e-3, entropy_coef=0.05, value_coef=0.1, clip_norm=10.0)
        cfg = PretrainConfig(epochs=150, episodes_per_epoch=2, hyper=hyper, seed=1)
        trace = constant_trace(1000.0)
        params, rewards = offline_train([trace], cfg, ec)

        env = StreamEnv(trace, ec)
        state = env.reset()
        best = []
        while not env.done:
            probs, _ = forward(params, state)
            action = int(np.argmax(probs))
            best.append(ec.ladder[action] == 750.0)
            state, _, _ = env.step(action)
        assert np.mean(best) >= 0.9
        # Reward non-degradation: last tenth of training beats the first tenth.
        tenth = max(1, len(rewards) // 10)
        assert np.mean(rewards[-tenth:]) >= np.mean(rewards[:tenth])


class TestFineTune:
    def test_freeze_invariance_through_long_tuning(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=40)
        params = init_params((ec.state_dim, *DEFAULT_ARCH_HIDDEN), len(ec.ladder), seed=2)
        env = StreamEnv(constant_trace(1000.0), ec)
        rng = np.random.default_rng(0)
        tuned = params.copy()
        for _ in range(20):  # 20 episodes of 5 rollouts = 100 updates
            tuned = plain_episode(env, tuned, TrainHyper(rollout_len=8), rng, frozen_layers=1)
        assert np.array_equal(tuned.weights[0], params.weights[0])
        assert np.array_equal(tuned.biases[0], params.biases[0])
        assert not params_close(tuned, params)  # upper layers did move


def reference_rollout(env, params, state, n_steps, rng):
    """One client's rollout, step by step: scalar `forward`, the scalar
    sampler and `env.step`; bootstraps with V of the successor state."""
    states, actions, rewards = [], [], []
    for _ in range(n_steps):
        if env.done:
            break
        probs, _ = forward(params, state)
        a = sample_action(probs, rng)
        next_state, reward, _ = env.step(a)
        states.append(state)
        actions.append(a)
        rewards.append(reward)
        state = next_state
    _, bootstrap = forward(params, state)
    return Episode(states, actions, rewards, bootstrap), state


@st.composite
def lockstep_cases(draw):
    """K clients with their own model, trace and seed; one architecture, an
    episode length and a rollout length that need not divide it."""
    k = draw(st.integers(1, 6))
    hidden = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    ladder = tuple(300.0 * (i + 1) for i in range(draw(st.integers(2, 7))))
    env_config = EnvConfig(ladder=ladder, episode_len=draw(st.integers(1, 30)),
                           history_len=draw(st.integers(1, 4)))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k))
    return env_config, hidden, seeds, draw(st.integers(1, 20))


def client_inputs(env_config, hidden, seed):
    """A perturbed random model (so probabilities are far from uniform), a
    noisy trace and a generator, all from `seed`."""
    params = init_params((env_config.state_dim, *hidden), len(env_config.ladder), seed)
    params.flat[:] += np.random.default_rng(seed).normal(scale=0.5, size=params.flat.size)
    fam = SynthFamily(mean_kbps=1200, amplitude_kbps=400, period_s=20, noise_std_kbps=300,
                      duration_s=40)
    trace = synthesize_trace(fam, f"t{seed}", NetworkType.FOUR_G, TransportMode.CAR, seed)
    return params, trace


class TestLockstepRollouts:
    """`collect_rollout` against each client's own step-by-step rollout."""

    @settings(max_examples=120, deadline=None)
    @given(lockstep_cases())
    def test_matches_per_client_loop(self, case):
        env_config, hidden, seeds, n_steps = case
        inputs = [client_inputs(env_config, hidden, s) for s in seeds]
        models = [params for params, _ in inputs]
        envs = [StreamEnv(trace, env_config) for _, trace in inputs]
        ref_envs = [StreamEnv(trace, env_config) for _, trace in inputs]
        rngs = [np.random.default_rng(s) for s in seeds]
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        states = [env.reset() for env in envs]
        ref_states = [env.reset() for env in ref_envs]
        while not envs[0].done:  # rollouts that cross the episode end included
            rollout, states = collect_rollout(envs, ModelParams.stack(models), states,
                                              n_steps, rngs)
            for i in range(len(envs)):
                ref, ref_states[i] = reference_rollout(ref_envs[i], models[i], ref_states[i],
                                                       n_steps, ref_rngs[i])
                assert np.array_equal(rollout.states[i], np.asarray(ref.states))
                assert rollout.actions[i].tolist() == ref.actions
                assert rollout.rewards[i].tolist() == ref.rewards
                assert rollout.bootstrap_values[i] == ref.bootstrap_value
                assert np.array_equal(states[i], ref_states[i])
        assert all(env.done for env in ref_envs)
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_envs_out_of_lockstep_rejected(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=10)
        params = init_params((ec.state_dim, 4), len(ec.ladder), seed=0)
        envs = [StreamEnv(constant_trace(), ec) for _ in range(2)]
        states = [env.reset() for env in envs]
        envs[1].step(0)
        with pytest.raises(EnvError, match=r"not in lockstep: steps left \[9, 10\]"):
            collect_rollout(envs, ModelParams.stack([params, params]), states, 4,
                            [np.random.default_rng(0), np.random.default_rng(1)])

    def test_non_finite_state_rejected(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=10)
        params = init_params((ec.state_dim, 4), len(ec.ladder), seed=0)
        env = StreamEnv(constant_trace(), ec)
        state = env.reset()
        state[0] = np.nan
        with pytest.raises(NetError, match="non-finite state input"):
            collect_rollout([env], as_stack(params), [state], 4, [np.random.default_rng(0)])
