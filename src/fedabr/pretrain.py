"""The learner: lockstep rollouts, the training rounds of every scheme, pretraining."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, EnvError, StreamEnv
from .net import (DivergenceError, ModelParams, NetError, Rollout, TrainHyper, _forward_full,
                  a3c_gradients, init_params, sample_actions, sgd_step, state_values,
                  zero_gradients)
from .traces import Trace, check_fields

DEFAULT_ARCH_HIDDEN = (64, 32)


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 200
    episodes_per_epoch: int = 4
    hyper: TrainHyper = TrainHyper()
    hidden: tuple[int, ...] = DEFAULT_ARCH_HIDDEN
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ValueError, (
                ("epochs", self.epochs >= 0, ">= 0"),
                ("episodes_per_epoch", self.episodes_per_epoch >= 1, ">= 1"),
                ("hidden", bool(self.hidden) and min(self.hidden) >= 1, "one or more widths >= 1")))


def collect_rollout(envs: list[StreamEnv], models: ModelParams, states,
                    n_steps: int, rngs: list[np.random.Generator]):
    """Roll K clients with the same steps left forward in lockstep, client k with row k
    of the (K, n) stack `models`; returns their `Rollout`, bootstrapped with V of each
    successor state (`state_values`: no policy head), and the (K, d) successor states.
    A step is one stacked policy pass (no value head: no step reads it), one draw from
    each generator's block of draws for the call and one `env.step` per client. The
    bits are those of K separate loops over `forward` and `env.step`."""
    left = sorted({env.steps_left for env in envs})
    if len(left) != 1:
        raise EnvError(f"envs are not in lockstep: steps left {left}")
    n, k, d = min(n_steps, left[0]), len(envs), models.input_dim
    buf = np.empty((k, n + 1, d))  # each client's states, then its successor state
    x = np.asarray(states, dtype=float)
    if x.shape != (k, d):
        raise NetError(f"states have shape {x.shape}, need ({k}, {d})")
    buf[:, 0] = x
    steps = buf[:, :, None]  # step t's (K, 1, d) states are steps[:, t]
    draws = np.array([rng.random(n) for rng in rngs]).T.tolist()
    actions, rewards = [[] for _ in envs], [[] for _ in envs]
    for t in range(n):
        _, probs = _forward_full(models, steps[:, t])
        nexts = []
        for env, a, acts, rews in zip(envs, sample_actions(probs[:, 0], draws[t]), actions,
                                      rewards):
            state, reward, _ = env.step(a)
            nexts.append(state)
            acts.append(a)
            rews.append(reward)
        buf[:, t + 1] = nexts
    if not np.logical_and.reduce(np.isfinite(buf), axis=None):
        raise NetError("non-finite state input")
    values = state_values(models, buf[:, n])
    return Rollout(buf[:, :n], np.array(actions), np.array(rewards), values), buf[:, n]


def rollout_rounds(models: ModelParams, trace_lists: list[list[Trace]], env_config: EnvConfig,
                   rngs: list[np.random.Generator], epochs: int, n_steps: int):
    """The episodes of every scheme. In epoch e, client k plays one episode on trace e % len
    of `trace_lists[k]` with row k of the (K, n) stack `models` and `rngs[k]`, all in
    lockstep, `collect_rollout` rolling `n_steps` steps a round. Yields (epoch, envs, rollout,
    reward) per round; `reward` is None but on the round that ends the episodes, where it is
    their mean step reward: the round totals added in order from 0.0, over K * episode_len."""
    for epoch in range(epochs):
        envs = [StreamEnv(ts[epoch % len(ts)], env_config) for ts in trace_lists]
        states, total = [env.reset(0.0) for env in envs], 0.0
        while not envs[0].done:
            rollout, states = collect_rollout(envs, models, states, n_steps, rngs)
            for t in rollout.totals.tolist():
                total += t
            reward = total / (len(envs) * env_config.episode_len) if envs[0].done else None
            yield epoch, envs, rollout, reward


def offline_train(traces: list[Trace], config: PretrainConfig,
                  env_config: EnvConfig = EnvConfig()) -> tuple[ModelParams, list[float]]:
    """Single-agent pretraining: `rollout_rounds` with one client over `traces`, an epoch
    being `episodes_per_epoch` loop epochs. Returns the final parameters and the per-epoch
    mean-reward log."""
    if not traces:
        raise ValueError("empty pretraining trace set")
    for tr in traces:  # before any episode trains on an earlier trace
        StreamEnv(tr, env_config).check_span()
    params = init_params((env_config.state_dim, *config.hidden), len(env_config.ladder),
                         config.seed)
    models = ModelParams(params.flat[None], params.layout)  # `params` as a (1, n) stack
    per_epoch, hyper = config.episodes_per_epoch, config.hyper
    grads, episodes = zero_gradients(models), []  # the one gradient buffer; episode rewards
    for i, envs, rollout, reward in rollout_rounds(
            models, [traces], env_config, [np.random.default_rng(config.seed)],
            config.epochs * per_epoch, hyper.rollout_len):
        try:
            sgd_step(models, grads, a3c_gradients(models, rollout, hyper, grads), hyper.lr)
        except DivergenceError as e:
            raise DivergenceError(f"epoch {i // per_epoch + 1}, trace {envs[0].trace.id!r}: "
                                  f"{e}") from None
        if reward is not None:
            episodes.append(reward)
    return params, [float(np.mean(episodes[i:i + per_epoch]))
                    for i in range(0, len(episodes), per_epoch)]
