"""End-to-end training schemes: offline-only anchor, online-from-scratch,
transfer-only, and grouped federated transfer.

All online schemes share one code path: every client trains against its own
simulated session and exchanges gradients with a synchronous coordinator; the
non-federated schemes simply run each client in a group of one, which steps
at the client learning rate and hands the client model back unmixed.
"""

from __future__ import annotations

import enum
import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discriminator import ClientCondition, poll
from .env import EnvConfig, QoESummary, StreamEnv, episode_qoe
from .federation import Coordinator, UpdateMessage, personalize
from .metrics import QOE_METRICS
from .net import (DivergenceError, ModelParams, TrainHyper, apply_update, a3c_gradients,
                  forward, init_params, save_checkpoint, zero_frozen)
from .pretrain import DEFAULT_ARCH_HIDDEN, collect_rollout
from .traces import Trace


class Scheme(enum.Enum):
    OFFLINE_ONLY = "offline_only"
    ONLINE_SCRATCH = "online_scratch"
    TRANSFER_ONLY = "transfer_only"
    FULL_FEDERATED = "full_federated"


class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class ClientSpec:
    id: str
    trace_ids: tuple[str, ...]
    seed: int | None = None
    condition_schedule: tuple[tuple[float, ClientCondition], ...] | None = None


@dataclass(frozen=True)
class SchemeConfig:
    """One scheme run; `mix`, `server_lr` and `poll_period_s` apply only to `full_federated`."""
    scheme: Scheme
    clients: tuple[ClientSpec, ...]
    epochs: int = 50
    test_trace_ids: tuple[str, ...] = ()
    seed: int = 0
    env: EnvConfig = EnvConfig()
    hyper: TrainHyper = TrainHyper()
    frozen_layers: int = 1
    mix: float = 0.5
    server_lr: float | None = None  # None: hyper.lr
    poll_period_s: float = 30.0
    hidden: tuple[int, ...] = DEFAULT_ARCH_HIDDEN

    def __post_init__(self):
        if not self.clients:
            raise SchemeError("at least one client required")
        if len({c.id for c in self.clients}) != len(self.clients):
            raise SchemeError("duplicate client ids")
        n = len(self.hidden)
        # Each check is written so that it holds, which NaN never does.
        for name, ok, rule in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("frozen_layers", 0 <= self.frozen_layers <= n, f"in [0, {n}] (hidden layers)"),
                ("mix", 0.0 <= self.mix <= 1.0, "in [0, 1]"),
                ("server_lr", self.server_lr is None or self.server_lr > 0, "positive"),
                ("poll_period_s", self.poll_period_s > 0, "positive")):
            if not ok:
                raise SchemeError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @property
    def sim_time_s(self) -> float:  # one episode per epoch
        return self.epochs * self.env.episode_len * self.env.step_s


@dataclass
class RunMetrics:
    scheme: Scheme
    rewards: list[float]
    wall_time_s: float
    qoe_per_trace: dict[str, QoESummary]
    qoe: QoESummary
    mean_test_reward: float
    final_client_params: dict[str, ModelParams]
    final_group_params: dict[int, ModelParams]
    transcript: list[dict]  # the coordinator's events in order; [] for offline_only


def _client_rng(config: SchemeConfig, spec: ClientSpec, index: int) -> np.random.Generator:
    if spec.seed is not None:
        return np.random.default_rng(spec.seed)
    return np.random.default_rng([config.seed, index])


def _initial_params(config: SchemeConfig, pretrained: ModelParams | None) -> ModelParams:
    if config.scheme is Scheme.ONLINE_SCRATCH:
        return init_params((config.env.state_dim, *config.hidden), len(config.env.ladder),
                           config.seed)
    if pretrained is None:
        raise SchemeError(f"scheme {config.scheme.value} requires a pretrained checkpoint")
    have = (pretrained.input_dim, pretrained.hidden, pretrained.ladder_size)
    need = (config.env.state_dim, tuple(config.hidden), len(config.env.ladder))
    if have != need:
        raise SchemeError(f"pretrained checkpoint has (inputs, hidden widths, rates) {have}, "
                          f"the config needs {need}")
    return pretrained.copy()


def evaluate_greedy(params: ModelParams, trace: Trace, env_config: EnvConfig
                    ) -> tuple[QoESummary, float]:
    """Run one greedy (argmax) episode; returns (QoE summary, mean step reward)."""
    env = StreamEnv(trace, env_config)
    state = env.reset(0.0)
    outcomes = []
    while not env.done:
        probs, _ = forward(params, state)
        state, _, outcome = env.step(int(np.argmax(probs)))
        outcomes.append(outcome)
    qoe = episode_qoe(outcomes, env_config.step_s)
    return qoe, float(np.mean([o.reward for o in outcomes]))


def _mean_qoe(summaries: list[QoESummary]) -> QoESummary:
    return QoESummary(**{m: float(np.mean([getattr(s, m) for s in summaries]))
                         for m in QOE_METRICS})


@dataclass
class _Client:
    spec: ClientSpec
    model: ModelParams
    group: int
    rng: np.random.Generator
    pending_changes: list[tuple[float, int]]  # (t, group) migrations still to come
    env: StreamEnv | None = None
    state: np.ndarray | None = None


def run_scheme(config: SchemeConfig, traces: dict[str, Trace],
               pretrained: ModelParams | None = None,
               out_dir: str | Path | None = None) -> RunMetrics:
    """Execute a scheme end-to-end. Deterministic under (config, traces, seeds)."""
    t0 = time.perf_counter()
    for spec in config.clients:
        for tid in spec.trace_ids:
            if tid not in traces:
                raise SchemeError(f"unknown trace id {tid!r} for client {spec.id!r}")
    for tid in config.test_trace_ids:
        if tid not in traces:
            raise SchemeError(f"unknown test trace id {tid!r}")

    params0 = _initial_params(config, pretrained)
    with _staged_dir(Path(out_dir) if out_dir is not None else None) as work_dir:
        if config.scheme is Scheme.OFFLINE_ONLY:
            rewards = _run_offline_only(config, traces, params0)
            clients = {spec.id: params0.copy() for spec in config.clients}
            groups: dict[int, ModelParams] = {}
            transcript: list[dict] = []
        else:
            rewards, clients, groups, transcript = _train_rounds(config, traces, params0)

        # Test-set evaluation: greedy episodes of every client's final model.
        per_trace: dict[str, QoESummary] = {}
        per_trace_rewards: dict[str, float] = {}
        for tid in config.test_trace_ids:
            qoes, rs = [], []
            for cid in sorted(clients):
                q, r = evaluate_greedy(clients[cid], traces[tid], config.env)
                qoes.append(q)
                rs.append(r)
            per_trace[tid] = _mean_qoe(qoes)
            per_trace_rewards[tid] = float(np.mean(rs))
        overall_qoe = (_mean_qoe(list(per_trace.values())) if per_trace
                       else QoESummary(0.0, 0.0, 0.0))
        mean_test_reward = (float(np.mean(list(per_trace_rewards.values())))
                            if per_trace_rewards else 0.0)

        metrics = RunMetrics(
            scheme=config.scheme,
            rewards=rewards,
            wall_time_s=time.perf_counter() - t0,
            qoe_per_trace=per_trace,
            qoe=overall_qoe,
            mean_test_reward=mean_test_reward,
            final_client_params=clients,
            final_group_params=groups,
            transcript=transcript,
        )
        if work_dir is not None:
            _write_outputs(metrics, per_trace_rewards, config, work_dir)
    return metrics


@contextmanager
def _staged_dir(out_dir: Path | None):
    """Yield a new hidden sibling of `out_dir` to write a run into.

    Only when the block succeeds does the sibling become `out_dir` (or, if
    `out_dir` exists, its files replace those of the same name there), so a
    failed run leaves no partial run directory.
    """
    if out_dir is None:
        yield None
        return
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = out_dir.with_name(f".{out_dir.name}.{uuid.uuid4().hex[:12]}.tmp")
    work.mkdir()
    try:
        yield work
        if out_dir.exists():
            for f in work.iterdir():
                os.replace(f, out_dir / f.name)
        else:
            work.rename(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_offline_only(config: SchemeConfig, traces: dict[str, Trace],
                      params: ModelParams) -> list[float]:
    """Evaluation-only reward series: the model never updates."""
    rewards = []
    rngs = [_client_rng(config, spec, i) for i, spec in enumerate(config.clients)]
    for epoch in range(config.epochs):
        epoch_rewards = []
        for spec, rng in zip(config.clients, rngs):
            trace = traces[spec.trace_ids[epoch % len(spec.trace_ids)]]
            env = StreamEnv(trace, config.env)
            traj, _ = collect_rollout(env, params, env.reset(0.0), config.env.episode_len, rng)
            epoch_rewards.append(sum(traj.rewards) / config.env.episode_len)
        rewards.append(float(np.mean(epoch_rewards)))
    return rewards


def _train_rounds(config: SchemeConfig, traces: dict[str, Trace], params0: ModelParams):
    """Train every client online; returns (epoch rewards, client and group models, events)."""
    federated = config.scheme is Scheme.FULL_FEDERATED
    frozen = 0 if config.scheme is Scheme.ONLINE_SCRATCH else config.frozen_layers
    server_lr, mix = config.hyper.lr, 1.0
    if federated:
        server_lr, mix = config.server_lr or config.hyper.lr, config.mix
    coord = Coordinator(params0, server_lr, frozen)
    clients: list[_Client] = []
    for i, spec in enumerate(config.clients):
        changes = []
        if not federated:
            gid = 100 + i  # isolated per-client groups for the non-federated schemes
        elif spec.condition_schedule:
            (_, gid), *changes = poll(list(spec.condition_schedule), config.poll_period_s,
                                      config.sim_time_s)
        else:
            gid = traces[spec.trace_ids[0]].group
        clients.append(_Client(spec, coord.register(spec.id, gid), gid,
                               _client_rng(config, spec, i), changes))

    episode_steps = config.env.episode_len
    rewards = []
    for epoch in range(config.epochs):
        for c in clients:
            trace = traces[c.spec.trace_ids[epoch % len(c.spec.trace_ids)]]
            c.env = StreamEnv(trace, config.env)
            c.state = c.env.reset(0.0)
        steps_done = 0
        epoch_reward = 0.0
        while not clients[0].env.done:
            # Rollout phase: every client computes one local gradient and steps on it.
            round_steps = 0
            for c in clients:
                traj, c.state = collect_rollout(c.env, c.model, c.state,
                                                config.hyper.rollout_len, c.rng)
                try:
                    grads, _ = a3c_gradients(c.model, traj, config.hyper)
                    c.model = apply_update(c.model, grads, config.hyper.lr, frozen)
                except DivergenceError as e:
                    raise DivergenceError(
                        f"client {c.spec.id!r} in group {c.group}, epoch {epoch + 1}, "
                        f"round {coord.current_round(c.group)}: {e}") from None
                coord.submit(UpdateMessage(c.spec.id, c.group,
                                           coord.current_round(c.group),
                                           zero_frozen(grads, frozen)))
                epoch_reward += sum(traj.rewards)
                round_steps = len(traj.rewards)
            # Barrier: aggregate every group that received submissions this round.
            for gid in sorted({c.group for c in clients}):
                try:
                    coord.aggregate_round(gid)
                except DivergenceError as e:
                    raise DivergenceError(f"group {gid} model, epoch {epoch + 1}, round "
                                          f"{coord.current_round(gid)}: {e}") from None
            for c in clients:
                c.model = personalize(c.model, coord.fetch(c.group), mix)
            steps_done += round_steps
            # Round boundary: apply any due group changes.
            sim_t = (epoch * episode_steps + steps_done) * config.env.step_s
            for c in clients:
                while c.pending_changes and c.pending_changes[0][0] <= sim_t:
                    _, to_group = c.pending_changes.pop(0)
                    target = coord.migrate(c.spec.id, c.group, to_group)
                    c.group = to_group
                    c.model = personalize(c.model, target, mix)
        rewards.append(epoch_reward / (len(clients) * episode_steps))
    groups = {gid: coord.fetch(gid) for gid in coord.group_ids()}
    return rewards, {c.spec.id: c.model for c in clients}, groups, coord.events


def write_rewards_csv(rewards: list[float], path: str | Path) -> None:
    """Write the per-epoch mean rewards as `epoch,mean_reward` rows, epochs from 1."""
    with open(path, "w") as f:
        f.write("epoch,mean_reward\n")
        for i, r in enumerate(rewards, start=1):
            f.write(f"{i},{r!r}\n")


def _write_outputs(metrics: RunMetrics, per_trace_rewards: dict[str, float],
                   config: SchemeConfig, out_dir: Path) -> None:
    write_rewards_csv(metrics.rewards, out_dir / "rewards.csv")
    with open(out_dir / "qoe.csv", "w") as f:
        f.write(f"trace_id,{','.join(QOE_METRICS)},mean_reward\n")
        for tid in sorted(metrics.qoe_per_trace):
            values = ",".join(repr(getattr(metrics.qoe_per_trace[tid], m)) for m in QOE_METRICS)
            f.write(f"{tid},{values},{per_trace_rewards[tid]!r}\n")
    meta = {
        "scheme": metrics.scheme.value,
        "epochs": len(metrics.rewards),
        "sim_time_s": config.sim_time_s,
        "clients": [c.id for c in config.clients],
    }
    with open(out_dir / "run_meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    if metrics.scheme is Scheme.FULL_FEDERATED:
        with open(out_dir / "transcript.jsonl", "w") as f:
            f.writelines(json.dumps(e) + "\n" for e in metrics.transcript)
    first = min(metrics.final_client_params)
    save_checkpoint(metrics.final_client_params[first], out_dir / "checkpoint.npz")
