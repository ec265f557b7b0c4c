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
import shutil
import time
import uuid
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discriminator import ClientCondition, poll
from .env import EnvConfig, EnvError, StreamEnv
from .federation import Coordinator, UpdateMessage, personalize
from .metrics import QOE_METRICS, QoESummary
from .net import (DivergenceError, ModelParams, TrainHyper, a3c_gradients, forward, init_params,
                  save_checkpoint, sgd_step, sum_in_order, zero_gradients)
from .pretrain import DEFAULT_ARCH_HIDDEN, rollout_rounds
from .traces import Trace, check_fields

RUN_OUTPUTS = frozenset({"rewards.csv", "qoe.csv", "run_meta.json", "transcript.jsonl",
                         "checkpoint.npz"})  # every file `_write_outputs` can write


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

    def __post_init__(self):
        check_fields(self, SchemeError, (("trace_ids", len(self.trace_ids) > 0, "non-empty"),))
        times = [t for t, _ in self.condition_schedule or ()]
        if not all(a <= b for a, b in zip(times, times[1:])):  # NaN is never in order
            raise SchemeError(f"condition_schedule times must not decrease, got {times}")


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
        check_fields(self, SchemeError, (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("frozen_layers", 0 <= self.frozen_layers <= n, f"in [0, {n}] (hidden layers)"),
                ("mix", 0.0 <= self.mix <= 1.0, "in [0, 1]"),
                ("server_lr", self.server_lr is None or 0.0 < self.server_lr < np.inf,
                 "finite and positive"),
                ("poll_period_s", 0.0 < self.poll_period_s < np.inf, "finite and positive")))

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


def evaluate_greedy(models: list[ModelParams], traces: list[Trace], env_config: EnvConfig
                    ) -> np.ndarray:
    """Greedy (argmax) episodes of every model on every trace, all in lockstep: a
    step is one `forward` of the stacked models on the (traces, models, d) states,
    an argmax per session and one `env.step` per session. Returns the (4, traces,
    models) array of per-session means: achieved bitrate, stall rate (stall time
    over episode time), delay and step reward."""
    n = env_config.episode_len
    envs = [StreamEnv(trace, env_config) for trace in traces for _ in models]
    stack = ModelParams.stack(models)
    states = np.array([env.reset(0.0) for env in envs])
    # Per session and step: achieved bitrate, delay, stall time, reward (`o[3:]`).
    qoe = np.empty((len(envs), n, 4))
    for t in range(n):
        probs, _ = forward(stack, states.reshape(len(traces), len(models), -1))
        steps = [env.step(a) for env, a in zip(envs, probs.argmax(axis=-1).ravel().tolist())]
        states[:] = [s for s, _, _ in steps]
        qoe[:, t] = [o[3:] for _, _, o in steps]
    achieved, delay, stall, reward = qoe.transpose(2, 0, 1).copy()
    stall_rate = sum_in_order(stall, axis=1) / (n * env_config.step_s)
    means = (achieved.mean(axis=1), stall_rate, delay.mean(axis=1), reward.mean(axis=1))
    return np.stack(means).reshape(4, len(traces), len(models))


def run_scheme(config: SchemeConfig, traces: Mapping[str, Trace],
               pretrained: ModelParams | None = None,
               out_dir: str | Path | None = None) -> RunMetrics:
    """Execute a scheme end-to-end. Deterministic under (config, traces, seeds)."""
    t0 = time.perf_counter()
    uses = [(tid, f"trace id {tid!r} for client {spec.id!r}")
            for spec in config.clients for tid in spec.trace_ids]
    test = config.test_trace_ids  # non-empty, each trace once, none that a client trains on
    trainer = {tid: spec.id for spec in reversed(config.clients) for tid in spec.trace_ids}
    check_fields(config, SchemeError, (("test_trace_ids", len(test) > 0, "non-empty"),))
    for i, tid in enumerate(test):
        if tid in test[:i] or tid in trainer:
            why = "listed twice" if tid in test[:i] else f"trained on by client {trainer[tid]!r}"
            raise SchemeError(f"test_trace_ids: trace {tid!r} is {why}")
    for tid, what in uses + [(tid, f"test trace id {tid!r}") for tid in test]:
        if tid not in traces:
            raise SchemeError(f"unknown {what}")
        try:
            StreamEnv(traces[tid], config.env).check_span()
        except EnvError as e:
            raise SchemeError(f"{what}: {e}") from None

    params0 = _initial_params(config, pretrained)
    train = _run_offline_only if config.scheme is Scheme.OFFLINE_ONLY else _train_rounds
    with _staged_dir(Path(out_dir) if out_dir is not None else None) as work_dir:
        rewards, clients, groups, transcript = train(config, traces, params0)
        # Test-set evaluation: greedy episodes of every client's final model on each
        # test trace, averaged over the models, then over the traces.
        per_trace = evaluate_greedy([clients[cid] for cid in sorted(clients)],
                                    [traces[tid] for tid in test], config.env).mean(axis=2)
        overall = per_trace.mean(axis=1).tolist()
        rows = dict(zip(test, per_trace.T.tolist()))
        metrics = RunMetrics(
            scheme=config.scheme,
            rewards=rewards,
            wall_time_s=time.perf_counter() - t0,
            qoe_per_trace={tid: QoESummary(*row[:3]) for tid, row in rows.items()},
            qoe=QoESummary(*overall[:3]),
            mean_test_reward=overall[3],
            final_client_params=clients,
            final_group_params=groups,
            transcript=transcript,
        )
        if work_dir is not None:
            _write_outputs(metrics, rows, config, work_dir)
    return metrics


@contextmanager
def _staged_dir(out_dir: Path | None):
    """Yield a new hidden sibling of `out_dir` to write a run into.

    Only when the block succeeds does the sibling become `out_dir`. An existing `out_dir` is
    swapped out whole, and then gives the new one its files that are not run outputs, so a
    failed or killed run or merge never leaves a partial run directory, nor one mixing two runs.
    """
    if out_dir is None:
        yield None
        return
    if out_dir.is_file():
        raise NotADirectoryError(f"cannot write a run into {out_dir}: it is a file")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = out_dir.with_name(f".{out_dir.name}.{uuid.uuid4().hex[:12]}.tmp")
    work.mkdir()
    try:
        yield work
        if out_dir.exists():
            old = out_dir.rename(work.with_suffix(".old"))
            try:
                work.rename(out_dir)
            except BaseException:
                old.rename(out_dir)  # the old run, whole, back in place
                raise
            try:
                for name in {f.name for f in old.iterdir()} - RUN_OUTPUTS:
                    (old / name).rename(out_dir / name)
            except OSError as e:
                raise OSError(f"{e}; the old run's other files are left in {old}") from e
            shutil.rmtree(old)
        else:
            work.rename(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_offline_only(config: SchemeConfig, traces: Mapping[str, Trace], params: ModelParams):
    """`_train_rounds`'s tuple for a run in which no model ever updates: rewards only."""
    models = ModelParams.stack([params] * len(config.clients))
    rewards = [float(np.mean(rollout.totals / config.env.episode_len))
               for _, _, rollout, _ in rollout_rounds(
                   models, [[traces[tid] for tid in s.trace_ids] for s in config.clients],
                   config.env, [_client_rng(config, s, i) for i, s in enumerate(config.clients)],
                   config.epochs, config.env.episode_len)]
    return rewards, {spec.id: params.copy() for spec in config.clients}, {}, []


def _train_rounds(config: SchemeConfig, traces: Mapping[str, Trace], params0: ModelParams):
    """Train every client online; returns (epoch rewards, client and group models, events)."""
    federated = config.scheme is Scheme.FULL_FEDERATED
    frozen = 0 if config.scheme is Scheme.ONLINE_SCRATCH else config.frozen_layers
    server_lr, mix = config.hyper.lr, 1.0
    if federated:
        server_lr, mix = config.server_lr or config.hyper.lr, config.mix
    coord = Coordinator(params0, server_lr)
    ids = tuple(spec.id for spec in config.clients)
    pending, start = [], []  # per client: its (t, group) migrations still to come, its model
    for i, spec in enumerate(config.clients):  # registers in its timeline's first group
        if not federated:
            timeline = [(0.0, 100 + i)]  # a group of its own
        elif spec.condition_schedule:
            timeline = poll(list(spec.condition_schedule), config.poll_period_s, config.sim_time_s)
        else:
            timeline = [(0.0, traces[spec.trace_ids[0]].group)]
        pending.append(timeline[1:])
        start.append(coord.register(spec.id, timeline[0][1]))
    # Client i's model is row i of this stack, updated in place every round; the group
    # models to mix in keep one array too.
    models = ModelParams.stack(start)
    layout, mixin = models.layout, np.empty_like(models.flat)

    episode_steps, hyper = config.env.episode_len, config.hyper
    rewards, grads = [], zero_gradients(models)
    # The clients' sessions step together, one batched pass gives every gradient and
    # one SGD step moves every model; a divergence names the first client, in client
    # order, whose gradient or update is not finite.
    for epoch, envs, rollout, reward in rollout_rounds(
            models, [[traces[tid] for tid in s.trace_ids] for s in config.clients], config.env,
            [_client_rng(config, s, i) for i, s in enumerate(config.clients)], config.epochs,
            hyper.rollout_len):
        try:
            sgd_step(models, grads, a3c_gradients(models, rollout, hyper, grads), hyper.lr, frozen)
        except DivergenceError as e:
            gid = coord.group_of(ids[e.row])
            raise DivergenceError(f"client {ids[e.row]!r} in group {gid}, epoch {epoch + 1}, "
                                  f"round {coord.current_round(gid)}: {e}") from None
        try:  # steps every group of the round; each client then mixes in its group's model
            coord.submit(UpdateMessage(ids, grads))
        except DivergenceError as e:
            raise DivergenceError(f"epoch {epoch + 1}, {e}") from None
        groups = [coord.group_of(cid) for cid in ids]
        group_models = {gid: coord.fetch(gid).flat for gid in set(groups)}
        np.stack([group_models[gid] for gid in groups], out=mixin)
        personalize(models, ModelParams(mixin, layout), mix, frozen)
        # Round boundary: apply any due group changes.
        sim_t = ((epoch + 1) * episode_steps - envs[0].steps_left) * config.env.step_s
        for cid, changes, row in zip(ids, pending, models.flat):
            while changes and changes[0][0] <= sim_t:
                target = coord.migrate(cid, changes.pop(0)[1])
                personalize(ModelParams(row, layout), target, mix, frozen)
        if reward is not None:
            rewards.append(reward)
    final = {cid: ModelParams(row, layout) for cid, row in zip(ids, models.flat)}
    return rewards, final, {gid: coord.fetch(gid) for gid in coord.group_ids()}, coord.events


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then `rows`: a `str` cell as it is, None as an empty field, any other
    cell (an int or a float) as its `repr`. Only a field holding `,`, `"`, CR or LF is quoted."""
    def field(cell) -> str:
        text = cell if isinstance(cell, str) else "" if cell is None else repr(cell)
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text
    with open(path, "w", newline="") as f:
        f.writelines(",".join(map(field, row)) + "\n" for row in (header, *rows))


def write_rewards_csv(rewards: list[float], path: str | Path) -> None:
    """Write the per-epoch mean rewards as `epoch,mean_reward` rows, epochs from 1."""
    write_csv(path, ("epoch", "mean_reward"), enumerate(rewards, start=1))


def _write_outputs(metrics: RunMetrics, qoe_rows: dict[str, list[float]],
                   config: SchemeConfig, out_dir: Path) -> None:
    """`qoe_rows` maps each test trace to its `evaluate_greedy` row: QoE, then reward."""
    write_rewards_csv(metrics.rewards, out_dir / "rewards.csv")
    write_csv(out_dir / "qoe.csv", ("trace_id", *QOE_METRICS, "mean_reward"),
              [(tid, *row) for tid, row in sorted(qoe_rows.items())])
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
