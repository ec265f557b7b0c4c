"""End-to-end training schemes: offline-only anchor, online-from-scratch,
transfer-only, and grouped federated transfer.

All online schemes share one code path: every client trains against its own
simulated session and exchanges gradients with a synchronous coordinator; the
non-federated schemes simply run each client in a group of one.
"""

from __future__ import annotations

import enum
import json
import os
import shutil
import time
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .discriminator import ClientCondition, GroupChange, classify, condition_at, poll
from .env import EnvConfig, QoESummary, StreamEnv, episode_qoe
from .federation import Coordinator, UpdateMessage, personalize
from .net import (DivergenceError, FreezeMask, ModelParams, TrainHyper, all_trainable,
                  apply_update, a3c_gradients, forward, init_params, save_checkpoint,
                  zero_frozen)
from .pretrain import DEFAULT_ARCH_HIDDEN, collect_rollout, default_arch, make_freeze_mask
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
    scheme: Scheme
    clients: tuple[ClientSpec, ...]
    epochs: int
    test_trace_ids: tuple[str, ...]
    seed: int = 0
    env: EnvConfig = EnvConfig()
    hyper: TrainHyper = TrainHyper()
    frozen_layers: int = 1
    mix: float = 0.5
    server_lr: float | None = None
    poll_period_s: float = 30.0
    hidden: tuple[int, ...] = DEFAULT_ARCH_HIDDEN

    def __post_init__(self):
        if not self.clients:
            raise SchemeError("at least one client required")
        if self.epochs < 1:
            raise SchemeError("epochs must be >= 1")
        if len({c.id for c in self.clients}) != len(self.clients):
            raise SchemeError("duplicate client ids")


@dataclass
class RunMetrics:
    scheme: Scheme
    rewards: list[float]
    sim_time_s: float
    wall_time_s: float
    qoe_per_trace: dict[str, QoESummary]
    qoe: QoESummary
    mean_test_reward: float
    final_client_params: dict[str, ModelParams]
    final_group_params: dict[int, ModelParams]


def _client_rng(config: SchemeConfig, spec: ClientSpec, index: int) -> np.random.Generator:
    if spec.seed is not None:
        return np.random.default_rng(spec.seed)
    return np.random.default_rng([config.seed, index])


def _initial_params(config: SchemeConfig, pretrained: ModelParams | None) -> ModelParams:
    if config.scheme is Scheme.ONLINE_SCRATCH:
        return init_params(default_arch(config.env.state_dim, config.hidden),
                           len(config.env.ladder), config.seed)
    if pretrained is None:
        raise SchemeError(f"scheme {config.scheme.value} requires a pretrained checkpoint")
    if pretrained.input_dim != config.env.state_dim:
        raise SchemeError("pretrained checkpoint does not match the environment state size")
    return pretrained.copy()


def _mask_for(config: SchemeConfig, params: ModelParams) -> FreezeMask:
    if config.scheme in (Scheme.TRANSFER_ONLY, Scheme.FULL_FEDERATED):
        return make_freeze_mask(params.n_hidden, config.frozen_layers)
    return all_trainable(params)


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
    return QoESummary(
        mean_bitrate_kbps=float(np.mean([s.mean_bitrate_kbps for s in summaries])),
        stall_rate=float(np.mean([s.stall_rate for s in summaries])),
        mean_delay_ms=float(np.mean([s.mean_delay_ms for s in summaries])),
    )


class _Client:
    def __init__(self, spec: ClientSpec, model: ModelParams, group: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.model = model
        self.group = group
        self.rng = rng
        self.env: StreamEnv | None = None
        self.state: np.ndarray | None = None
        self.pending_changes: list[GroupChange] = []


def run_scheme(config: SchemeConfig, traces: dict[str, Trace],
               pretrained: ModelParams | None = None,
               out_dir: str | Path | None = None) -> RunMetrics:
    """Execute a scheme end-to-end. Deterministic under (config, traces, seeds)."""
    t0 = time.perf_counter()
    if config.scheme is Scheme.FULL_FEDERATED and len(config.clients) == 1:
        warnings.warn("full_federated with a single client demoted to transfer_only")
        config = replace(config, scheme=Scheme.TRANSFER_ONLY)
    for spec in config.clients:
        for tid in spec.trace_ids:
            if tid not in traces:
                raise SchemeError(f"unknown trace id {tid!r} for client {spec.id!r}")
    for tid in config.test_trace_ids:
        if tid not in traces:
            raise SchemeError(f"unknown test trace id {tid!r}")

    params0 = _initial_params(config, pretrained)
    mask = _mask_for(config, params0)
    with _staged_dir(Path(out_dir) if out_dir is not None else None) as work_dir:
        if config.scheme is Scheme.OFFLINE_ONLY:
            rewards = _run_offline_only(config, traces, params0)
            clients = {spec.id: params0.copy() for spec in config.clients}
            groups: dict[int, ModelParams] = {}
        else:
            rewards, clients, groups = _run_online(config, traces, params0, mask, work_dir)

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

        sim_time = config.epochs * config.env.episode_len * config.env.step_s
        metrics = RunMetrics(
            scheme=config.scheme,
            rewards=rewards,
            sim_time_s=sim_time,
            wall_time_s=time.perf_counter() - t0,
            qoe_per_trace=per_trace,
            qoe=overall_qoe,
            mean_test_reward=mean_test_reward,
            final_client_params=clients,
            final_group_params=groups,
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


def _group_for(spec: ClientSpec, trace: Trace, sim_t: float) -> int:
    if spec.condition_schedule:
        return classify(condition_at(list(spec.condition_schedule), sim_t))
    return trace.group


def _run_online(config: SchemeConfig, traces: dict[str, Trace], params0: ModelParams,
                mask: FreezeMask, out_dir: Path | None):
    federated = config.scheme is Scheme.FULL_FEDERATED
    server_lr = config.server_lr if config.server_lr is not None else config.hyper.lr
    transcript = (out_dir / "transcript.jsonl") if (out_dir and federated) else None
    coord = Coordinator(server_lr, server_mask=mask, transcript_path=transcript)
    try:
        rewards, final_clients = _train_rounds(config, traces, params0, mask, coord)
    finally:
        coord.close()
    final_groups = {gid: coord.fetch(gid)[0] for gid in coord.group_ids()}
    return rewards, final_clients, final_groups


def _train_rounds(config: SchemeConfig, traces: dict[str, Trace], params0: ModelParams,
                  mask: FreezeMask, coord: Coordinator):
    federated = config.scheme is Scheme.FULL_FEDERATED
    clients: list[_Client] = []
    synthetic_gid = 100  # isolated per-client groups for the non-federated schemes
    for i, spec in enumerate(config.clients):
        first_trace = traces[spec.trace_ids[0]]
        if federated:
            gid = _group_for(spec, first_trace, 0.0)
        else:
            gid = synthetic_gid + i
        if not coord.has_group(gid):
            coord.seed_group(gid, params0)
        model = coord.register(spec.id, gid)
        c = _Client(spec, model, gid, _client_rng(config, spec, i))
        if federated and spec.condition_schedule:
            total_sim = config.epochs * config.env.episode_len * config.env.step_s
            c.pending_changes = poll(list(spec.condition_schedule), config.poll_period_s,
                                     until=total_sim)
        clients.append(c)

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
                    c.model = apply_update(c.model, grads, config.hyper.lr, mask)
                except DivergenceError as e:
                    raise DivergenceError(f"client {c.spec.id!r} in group {c.group}, epoch "
                                          f"{epoch + 1}, round {coord.current_round(c.group)}: "
                                          f"{e}") from None
                coord.submit(UpdateMessage(c.spec.id, c.group,
                                           coord.current_round(c.group),
                                           zero_frozen(grads, mask)))
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
                global_params, _ = coord.fetch(c.group)
                c.model = personalize(c.model, global_params, config.mix)
            steps_done += round_steps
            # Round boundary: apply any due group changes.
            sim_t = (epoch * episode_steps + steps_done) * config.env.step_s
            for c in clients:
                while c.pending_changes and c.pending_changes[0].at <= sim_t:
                    change = c.pending_changes.pop(0)
                    if not coord.has_group(change.to_group):
                        # A freshly entered group starts from the pretrained model.
                        coord.seed_group(change.to_group, params0)
                    target = coord.migrate(c.spec.id, c.group, change.to_group)
                    c.group = change.to_group
                    c.model = personalize(c.model, target, config.mix)
        rewards.append(epoch_reward / (len(clients) * episode_steps))
    return rewards, {c.spec.id: c.model for c in clients}


def _write_outputs(metrics: RunMetrics, per_trace_rewards: dict[str, float],
                   config: SchemeConfig, out_dir: Path) -> None:
    with open(out_dir / "rewards.csv", "w") as f:
        f.write("epoch,mean_reward\n")
        for i, r in enumerate(metrics.rewards, start=1):
            f.write(f"{i},{r!r}\n")
    with open(out_dir / "qoe.csv", "w") as f:
        f.write("trace_id,mean_bitrate_kbps,stall_rate,mean_delay_ms,mean_reward\n")
        for tid in sorted(metrics.qoe_per_trace):
            q = metrics.qoe_per_trace[tid]
            f.write(f"{tid},{q.mean_bitrate_kbps!r},{q.stall_rate!r},"
                    f"{q.mean_delay_ms!r},{per_trace_rewards[tid]!r}\n")
    meta = {
        "scheme": metrics.scheme.value,
        "epochs": len(metrics.rewards),
        "sim_time_s": metrics.sim_time_s,
        "clients": [c.id for c in config.clients],
    }
    with open(out_dir / "run_meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    first = min(metrics.final_client_params)
    save_checkpoint(metrics.final_client_params[first], out_dir / "checkpoint.npz")
