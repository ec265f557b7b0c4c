"""Offline pretraining and rollout collection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, EnvError, StreamEnv
from .net import (DivergenceError, ModelParams, NetError, Rollout, TrainHyper, _forward_full,
                  a3c_gradients, forward, init_params, sample_actions, sgd_step,
                  zero_gradients)
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


def collect_rollouts(envs: list[StreamEnv], models: ModelParams, states,
                     n_steps: int, rngs: list[np.random.Generator]):
    """Roll K clients with the same steps left forward in lockstep, client k with row k
    of the (K, n) stack `models`; returns their `Rollout`, bootstrapped with V of each
    successor state, and the (K, d) successor states. A step is one stacked
    policy pass (no value head: no step reads it), one draw from each generator's
    block of draws for the call and one `env.step` per client. The bits are those of
    K separate loops over `forward` and `env.step`."""
    left = sorted({env.steps_left for env in envs})
    if len(left) != 1:
        raise EnvError(f"envs are not in lockstep: steps left {left}")
    n, k, d = min(n_steps, left[0]), len(envs), models.input_dim
    buf = np.empty((k, n + 1, d))  # each client's states, then its successor state
    x = np.asarray(states, dtype=float)
    if x.shape != (k, d):
        raise NetError(f"states have shape {x.shape}, need ({k}, {d})")
    buf[:, 0] = x
    draws = np.array([rng.random(n) for rng in rngs]).T
    actions, rewards = [[] for _ in envs], [[] for _ in envs]
    for t in range(n):
        _, probs = _forward_full(models, buf[:, t, None])
        for i, (env, a) in enumerate(zip(envs, sample_actions(probs[:, 0], draws[t]).tolist())):
            buf[i, t + 1], reward, _ = env.step(a)
            actions[i].append(a)
            rewards[i].append(reward)
    if not np.isfinite(buf).all():
        raise NetError("non-finite state input")
    _, values = forward(models, buf[:, n])
    return Rollout(buf[:, :n], np.array(actions), np.array(rewards), values), buf[:, n]


def collect_rollout(env: StreamEnv, models: ModelParams, state: np.ndarray,
                    n_steps: int, rng: np.random.Generator) -> tuple[Rollout, np.ndarray]:
    """One client's rollout: `collect_rollouts` with K = 1 and the (1, n) stack `models`."""
    rollout, states = collect_rollouts([env], models, [state], n_steps, [rng])
    return rollout, states[0]


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
    models = ModelParams(params.flat[None], params.layout)  # `params` as a (1, n) stack
    grads = zero_gradients(models)
    rng = np.random.default_rng(config.seed)
    envs = [StreamEnv(tr, env_config) for tr in traces]
    for env in envs:  # before any episode trains on an earlier trace
        env.check_span()
    rewards = []
    for epoch in range(config.epochs):
        epoch_rewards = []
        for k in range(config.episodes_per_epoch):
            env = envs[(epoch * config.episodes_per_epoch + k) % len(envs)]
            state = env.reset()
            total_reward = 0.0
            while not env.done:
                rollout, state = collect_rollout(env, models, state, hyper.rollout_len, rng)
                losses = a3c_gradients(models, rollout, hyper, grads)
                try:
                    sgd_step(models, grads, losses, hyper.lr)
                except DivergenceError as e:
                    raise DivergenceError(f"epoch {epoch + 1}, trace {env.trace.id!r}: "
                                          f"{e}") from None
                total_reward += rollout.totals.item()
            epoch_rewards.append(total_reward / env_config.episode_len)
        rewards.append(float(np.mean(epoch_rewards)))
    return params, rewards
