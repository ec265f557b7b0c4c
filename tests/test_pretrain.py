import numpy as np
import pytest

from fedabr.env import EnvConfig, StreamEnv
from fedabr.net import TrainHyper, a3c_gradients, apply_update, forward, init_params
from fedabr.pretrain import DEFAULT_ARCH_HIDDEN, PretrainConfig, collect_rollout, offline_train
from tests.conftest import constant_trace, params_close

LADDER4 = (300.0, 750.0, 1200.0, 1850.0)


def plain_episode(env, params, hyper, rng, frozen_layers=0):
    """Reference: one episode of rollout -> gradient -> SGD step cycles."""
    state = env.reset()
    while not env.done:
        traj, state = collect_rollout(env, params, state, hyper.rollout_len, rng)
        grads, _ = a3c_gradients(params, traj, hyper)
        params = apply_update(params, grads, hyper.lr, frozen_layers)
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

    def test_empty_trace_set(self):
        with pytest.raises(ValueError):
            offline_train([], PretrainConfig(epochs=1))

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
        tuned = params
        for _ in range(20):  # 20 episodes of 5 rollouts = 100 updates
            tuned = plain_episode(env, tuned, TrainHyper(rollout_len=8), rng, frozen_layers=1)
        assert np.array_equal(tuned.weights[0], params.weights[0])
        assert np.array_equal(tuned.biases[0], params.biases[0])
        assert not params_close(tuned, params)  # upper layers did move
