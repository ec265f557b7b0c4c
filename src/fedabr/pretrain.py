"""Offline pretraining, rollout collection, and the freeze mask for transfer fine-tuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, StreamEnv
from .net import (DivergenceError, FreezeMask, LayerSpec, ModelParams, TrainHyper,
                  Trajectory, a3c_gradients, all_trainable, apply_update, forward,
                  init_params, sample_action)
from .traces import Trace

DEFAULT_ARCH_HIDDEN = (64, 32)


def default_arch(input_dim: int, hidden: tuple[int, ...] = DEFAULT_ARCH_HIDDEN) -> list[LayerSpec]:
    dims = (input_dim,) + tuple(hidden)
    return [LayerSpec(a, b, "relu") for a, b in zip(dims, dims[1:])]


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


def make_freeze_mask(n_hidden: int, frozen_layers: int) -> FreezeMask:
    """Freeze the lowest `frozen_layers` hidden layers; heads stay trainable."""
    if not 0 <= frozen_layers <= n_hidden:
        raise ValueError(f"frozen_layers must be in [0, {n_hidden}]: the heads stay trainable")
    return FreezeMask(frozen_layers)


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


def run_training_episode(env: StreamEnv, params: ModelParams, hyper: TrainHyper,
                         mask: FreezeMask, rng: np.random.Generator,
                         start: float = 0.0) -> tuple[ModelParams, float]:
    """One episode of rollout/update cycles; returns (params, mean step reward)."""
    state = env.reset(start)
    total_reward = 0.0
    steps = 0
    while not env.done:
        traj, state = collect_rollout(env, params, state, hyper.rollout_len, rng)
        grads, _ = a3c_gradients(params, traj, hyper)
        params = apply_update(params, grads, hyper.lr, mask)
        total_reward += sum(traj.rewards)
        steps += len(traj.rewards)
    return params, total_reward / steps


def offline_train(traces: list[Trace], config: PretrainConfig,
                  env_config: EnvConfig = EnvConfig()) -> tuple[ModelParams, list[float]]:
    """Single-agent pretraining over episodes sampled round-robin from `traces`.

    Returns the final parameters and the per-epoch mean-reward log.
    """
    if not traces:
        raise ValueError("empty pretraining trace set")
    params = init_params(default_arch(env_config.state_dim, config.hidden),
                         len(env_config.ladder), config.seed)
    mask = all_trainable(params)
    rng = np.random.default_rng(config.seed)
    envs = [StreamEnv(tr, env_config) for tr in traces]
    rewards = []
    episode = 0
    for epoch in range(config.epochs):
        epoch_rewards = []
        for _ in range(config.episodes_per_epoch):
            env = envs[episode % len(envs)]
            episode += 1
            try:
                params, mean_r = run_training_episode(env, params, config.hyper, mask, rng)
            except DivergenceError as e:
                raise DivergenceError(f"epoch {epoch + 1}, trace {env.trace.id!r}: "
                                      f"{e}") from None
            epoch_rewards.append(mean_r)
        rewards.append(float(np.mean(epoch_rewards)))
    return params, rewards
