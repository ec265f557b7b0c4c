"""Offline pretraining and rollout collection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, StreamEnv
from .net import (DivergenceError, ModelParams, TrainHyper, Trajectory, a3c_gradients,
                  apply_update, forward, init_params, sample_action)
from .traces import Trace

DEFAULT_ARCH_HIDDEN = (64, 32)


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 200
    episodes_per_epoch: int = 4
    hyper: TrainHyper = TrainHyper()
    hidden: tuple[int, ...] = DEFAULT_ARCH_HIDDEN
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.episodes_per_epoch < 1:
            raise ValueError("epochs must be >= 0 and episodes_per_epoch >= 1")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must list one or more widths >= 1, got {self.hidden!r}")


def collect_rollout(env: StreamEnv, params: ModelParams, state: np.ndarray,
                    n_steps: int, rng: np.random.Generator):
    """Sample up to n_steps actions; bootstrap with V of the successor state."""
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
    return Trajectory(states, actions, rewards, bootstrap), state


def offline_train(traces: list[Trace], config: PretrainConfig,
                  env_config: EnvConfig = EnvConfig()) -> tuple[ModelParams, list[float]]:
    """Single-agent pretraining over episodes sampled round-robin from `traces`.

    Returns the final parameters and the per-epoch mean-reward log.
    """
    if not traces:
        raise ValueError("empty pretraining trace set")
    hyper = config.hyper
    params = init_params((env_config.state_dim, *config.hidden), len(env_config.ladder),
                         config.seed)
    rng = np.random.default_rng(config.seed)
    envs = [StreamEnv(tr, env_config) for tr in traces]
    rewards = []
    for epoch in range(config.epochs):
        epoch_rewards = []
        for k in range(config.episodes_per_epoch):
            env = envs[(epoch * config.episodes_per_epoch + k) % len(envs)]
            state = env.reset()
            total_reward, steps = 0.0, 0
            while not env.done:
                traj, state = collect_rollout(env, params, state, hyper.rollout_len, rng)
                try:
                    grads, _ = a3c_gradients(params, traj, hyper)
                    params = apply_update(params, grads, hyper.lr)
                except DivergenceError as e:
                    raise DivergenceError(f"epoch {epoch + 1}, trace {env.trace.id!r}: "
                                          f"{e}") from None
                total_reward += sum(traj.rewards)
                steps += len(traj.rewards)
            epoch_rewards.append(total_reward / steps)
        rewards.append(float(np.mean(epoch_rewards)))
    return params, rewards
