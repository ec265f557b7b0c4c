import numpy as np
import pytest

from fedabr.env import EnvConfig, StreamEnv
from fedabr.net import (FreezeMask, TrainHyper, a3c_gradients, all_trainable, apply_update,
                        forward, init_params)
from fedabr.pretrain import (PretrainConfig, collect_rollout, default_arch, make_freeze_mask,
                             offline_train, run_training_episode)
from tests.conftest import constant_trace, params_close

LADDER4 = (300.0, 750.0, 1200.0, 1850.0)


class TestFreezeMask:
    def test_none_frozen(self):
        assert make_freeze_mask(2, 0) == FreezeMask(0)

    def test_default_arch_one_frozen(self):
        assert make_freeze_mask(2, 1) == FreezeMask(1)

    def test_cannot_freeze_everything(self):
        with pytest.raises(ValueError):
            make_freeze_mask(2, 4)
        with pytest.raises(ValueError):
            make_freeze_mask(2, 3)  # would freeze a head


class TestOfflineTrain:
    def test_zero_epochs_is_init(self, small_env_config):
        cfg = PretrainConfig(epochs=0, seed=4)
        params, rewards = offline_train([constant_trace()], cfg, small_env_config)
        expected = init_params(default_arch(small_env_config.state_dim),
                               len(small_env_config.ladder), seed=4)
        assert params_close(params, expected)
        assert rewards == []

    def test_deterministic(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=20)
        cfg = PretrainConfig(epochs=3, episodes_per_epoch=2, seed=8)
        _, r1 = offline_train([constant_trace()], cfg, ec)
        _, r2 = offline_train([constant_trace()], cfg, ec)
        assert r1 == r2

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
    def _setup(self):
        ec = EnvConfig(ladder=LADDER4, episode_len=40)
        params = init_params(default_arch(ec.state_dim), len(ec.ladder), seed=2)
        env = StreamEnv(constant_trace(1000.0), ec)
        return params, env

    def test_freeze_invariance_through_long_tuning(self):
        params, env = self._setup()
        mask = make_freeze_mask(params.n_hidden, 1)
        hyper = TrainHyper(rollout_len=8)
        rng = np.random.default_rng(0)
        frozen_w = params.weights[0].copy()
        frozen_b = params.biases[0].copy()
        tuned = params
        for _ in range(20):  # 20 episodes of 5 rollouts = 100 updates
            tuned, _ = run_training_episode(env, tuned, hyper, mask, rng)
        assert np.array_equal(tuned.weights[0], frozen_w)
        assert np.array_equal(tuned.biases[0], frozen_b)
        assert not params_close(tuned, params)  # upper layers did move

    def test_deterministic(self):
        params, env = self._setup()
        mask = make_freeze_mask(params.n_hidden, 1)
        hyper = TrainHyper(rollout_len=8)
        runs = [run_training_episode(env, params, hyper, mask, np.random.default_rng(3))
                for _ in range(2)]
        assert params_close(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_all_trainable_equals_plain_step(self):
        params, env = self._setup()
        hyper = TrainHyper(rollout_len=8)
        mask = all_trainable(params)
        out1, _ = run_training_episode(env, params, hyper, mask, np.random.default_rng(3))

        rng = np.random.default_rng(3)
        out2 = params
        state = env.reset()
        while not env.done:
            traj, state = collect_rollout(env, out2, state, hyper.rollout_len, rng)
            grads, _ = a3c_gradients(out2, traj, hyper)
            out2 = apply_update(out2, grads, hyper.lr, mask)
        assert params_close(out1, out2)
