"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one timed
operation in ``operation`` and checks that operation's outputs in ``check``.
Calls that the traced run must see go through module attributes
(``schemes.run_scheme``), never through names bound at import, so the
tracer's patches reach them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml
from click.testing import CliRunner

from fedabr import cli, env, metrics, net, pretrain, schemes, traces
from fedabr.discriminator import ClientCondition
from fedabr.env import EnvConfig
from fedabr.metrics import ConvergenceRule
from fedabr.traces import NetworkType, SynthFamily, TransportMode

# Training settings of the acceptance gate (criteria 6 and 7).
HYPER = net.TrainHyper(lr=1e-3, entropy_coef=0.05, value_coef=0.1, clip_norm=10.0)
SERVER_LR = 4e-3
RULE = ConvergenceRule(window=10, epsilon=0.1, sustain=5)
EPOCHS = 15  # the shortest series RULE can judge (window + sustain)

NETWORKS = (("3g", NetworkType.THREE_G, 900.0),
            ("4g", NetworkType.FOUR_G, 2200.0),
            ("wifi", NetworkType.WIFI, 4000.0))
TRANSPORTS = (TransportMode.FOOT, TransportMode.CAR, TransportMode.FERRY, TransportMode.TRAIN)

# Spans that every workload must record (set-up included).
COMMON_SPANS = (
    "traces.bandwidth_at", "traces.synthesize_trace", "env.step", "env.reset",
    "net.forward", "net.a3c_gradients", "net.apply_update", "net.zero_frozen",
    "net.save_checkpoint", "net.load_checkpoint", "pretrain.collect_rollout",
    "pretrain.offline_train", "federation.submit", "federation.aggregate_round",
    "federation.personalize", "federation.fetch", "schemes.run_scheme",
    "schemes.evaluate_greedy",
)


class Checks:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.error(problems)

    def error(self, problems: list[str]) -> None:
        if len(self.messages) < 20:
            self.messages.extend(problems)


def _synth(rng, tid: str, nt: NetworkType, tm: TransportMode, mean: float, duration: float):
    fam = SynthFamily(mean_kbps=mean * float(rng.uniform(0.8, 1.25)),
                      amplitude_kbps=0.15 * mean, period_s=float(rng.uniform(20.0, 90.0)),
                      noise_std_kbps=0.1 * mean, duration_s=duration)
    return traces.synthesize_trace(fam, tid, nt, tm, int(rng.integers(2**31)))


def _finite(params: net.ModelParams) -> bool:
    return all(np.all(np.isfinite(a)) for a in params.weights + params.biases)


def _same_first_layer(a: net.ModelParams, b: net.ModelParams) -> bool:
    return (a.weights[0].tobytes() == b.weights[0].tobytes()
            and a.biases[0].tobytes() == b.biases[0].tobytes())


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _transcript_problems(path: Path, expected: dict[str, int]) -> list[str]:
    counts = Counter(json.loads(line)["event"] for line in path.read_text().splitlines())
    problems = []
    for event, span in (("migrate", "federation.migrate"),
                        ("aggregate", "federation.aggregate_round")):
        if counts[event] != expected[span]:
            problems.append(f"transcript: {counts[event]} {event} events, "
                            f"expected {expected[span]}")
    return problems


def _switches(schedule) -> int:
    labels = [(c.network_type, c.transport_mode) for _, c in schedule]
    return sum(a != b for a, b in zip(labels, labels[1:]))


def time_decisions(inputs, starts: tuple[float, ...], spans: list[tuple[float, float]],
                   checks: Checks, between=None) -> None:
    """Greedy episodes from each start time; each decision is one timed
    ``forward`` + ``step`` pair, recorded as its (start, end) clock readings.
    ``between``, if given, is called after each decision, outside its timing."""
    clock = time.perf_counter
    for (params, trace, env_config), start in itertools.product(inputs, starts):
        sim = env.StreamEnv(trace, env_config)
        state = sim.reset(start)
        while not sim.done:
            t0 = clock()
            probs, _ = net.forward(params, state)
            state, reward, _ = sim.step(int(np.argmax(probs)))
            spans.append((t0, clock()))
            ok = math.isfinite(reward) and bool(np.all(np.isfinite(probs)))
            checks.op([] if ok else [f"decision on {trace.id}: non-finite output"])
            if between is not None:
                between()


@dataclass
class Quality:
    test_reward: float
    converge_epoch: int


def quality(rewards: list[float], test_reward: float) -> Quality:
    """Training quality as criterion 6 scores it: epochs + 1 when never converged."""
    epoch = metrics.convergence_epoch(rewards, RULE)
    return Quality(test_reward, len(rewards) + 1 if epoch is None else epoch)


@dataclass
class SchemeState:
    config: schemes.SchemeConfig
    traces: dict
    checkpoint: Path
    pretrained: net.ModelParams
    rounds: int  # barrier rounds per operation
    expected: dict[str, int]  # span name -> calls per operation


class SchemeWorkload:
    """A ``run_scheme`` call on a pretrained checkpoint made in set-up."""

    name = ""
    expected_spans = COMMON_SPANS
    episode_len = 50
    # Episode start times of the timed test episodes.
    decision_starts = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    pretrain_config: pretrain.PretrainConfig

    def inputs(self, seed: int) -> tuple[dict, list[str], dict]:
        """Return (traces by id, pretraining ids, SchemeConfig keyword arguments)."""
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> SchemeState:
        workdir.mkdir(parents=True, exist_ok=True)
        corpus, pre_ids, kwargs = self.inputs(seed)
        env_config = EnvConfig(episode_len=self.episode_len)
        params, _ = pretrain.offline_train([corpus[i] for i in pre_ids],
                                           replace(self.pretrain_config, seed=seed), env_config)
        ckpt = workdir / "pretrained.npz"
        net.save_checkpoint(params, ckpt)
        config = schemes.SchemeConfig(epochs=EPOCHS, seed=seed, env=env_config,
                                      hyper=HYPER, **kwargs)
        groups = 1 if config.scheme is schemes.Scheme.TRANSFER_ONLY else len(NETWORKS)
        rounds = EPOCHS * math.ceil(self.episode_len / HYPER.rollout_len)
        expected = {
            "federation.migrate": sum(_switches(c.condition_schedule or ())
                                      for c in config.clients),
            "federation.aggregate_round": rounds * groups,
        }
        return SchemeState(config, corpus, ckpt, params, rounds, expected)

    def input_key(self, state: SchemeState) -> str:
        return _digest(state.checkpoint.read_bytes(),
                       *(repr(t.samples).encode() for t in state.traces.values()))

    def operation(self, state: SchemeState, out_dir: Path) -> schemes.RunMetrics:
        pretrained = net.load_checkpoint(state.checkpoint)
        return schemes.run_scheme(state.config, state.traces, pretrained, out_dir)

    def check(self, state: SchemeState, result: schemes.RunMetrics, out_dir: Path,
              reference) -> list[list[str]]:
        """Problems of the one operation, as a one-element list."""
        problems = []
        if not (all(math.isfinite(r) for r in result.rewards)
                and math.isfinite(result.mean_test_reward)):
            problems.append("non-finite reward")
        models = [(f"client {k}", p) for k, p in sorted(result.final_client_params.items())]
        models += [(f"group {k}", p) for k, p in sorted(result.final_group_params.items())]
        for label, params in models:
            if not _finite(params):
                problems.append(f"{label}: non-finite parameter")
            if not _same_first_layer(params, state.pretrained):
                problems.append(f"{label}: frozen first layer differs from the checkpoint")
        if state.config.scheme is schemes.Scheme.FULL_FEDERATED:
            problems += _transcript_problems(out_dir / "transcript.jsonl", state.expected)
        if reference is not None and self.result_key(result) != reference:
            problems.append("result differs from the first operation on the same inputs")
        return [problems]

    def result_key(self, result: schemes.RunMetrics):
        return result.rewards, result.mean_test_reward

    def decision_inputs(self, state: SchemeState, result: schemes.RunMetrics):
        return [(params, state.traces[tid], state.config.env)
                for _, params in sorted(result.final_client_params.items())
                for tid in state.config.test_trace_ids]

    def quality(self, result: schemes.RunMetrics) -> Quality:
        return quality(result.rewards, result.mean_test_reward)


class FedMultigroup(SchemeWorkload):
    name = "fed_multigroup"
    expected_spans = COMMON_SPANS + ("federation.migrate", "discriminator.poll")
    pretrain_config = pretrain.PretrainConfig(epochs=20, episodes_per_epoch=2, hyper=HYPER)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        corpus, pre_ids, clients, test_ids = {}, [], [], []
        sim_total = EPOCHS * self.episode_len
        for g, (label, nt, mean) in enumerate(NETWORKS):
            for k in range(2):
                tr = _synth(rng, f"pre-{label}-{k}", nt, TransportMode.CAR, mean, 100)
                corpus[tr.id] = tr
                pre_ids.append(tr.id)
            tr = _synth(rng, f"test-{label}", nt, TransportMode.CAR, mean, 100)
            corpus[tr.id] = tr
            test_ids.append(tr.id)
            for k in range(4):
                tr = _synth(rng, f"fine-{label}-{k}", nt, TransportMode.CAR, mean, 100)
                corpus[tr.id] = tr
                cid = f"{label}-{k}"
                schedule = None
                if k == 0:
                    # One client per group rotates to the next network type
                    # mid-run, so every group keeps members and stays active.
                    at = float(rng.uniform(0.3, 0.7)) * sim_total
                    to = NETWORKS[(g + 1) % len(NETWORKS)][1]
                    schedule = ((0.0, ClientCondition(cid, nt, TransportMode.CAR)),
                                (at, ClientCondition(cid, to, TransportMode.CAR)))
                clients.append(schemes.ClientSpec(cid, (tr.id,), None, schedule))
        kwargs = dict(scheme=schemes.Scheme.FULL_FEDERATED, clients=tuple(clients),
                      test_trace_ids=tuple(test_ids), server_lr=SERVER_LR)
        return corpus, pre_ids, kwargs


class XferLongtrace(SchemeWorkload):
    name = "xfer_longtrace"
    episode_len = 300
    decision_starts = (0.0, 900.0, 1800.0, 2700.0)
    pretrain_config = pretrain.PretrainConfig(epochs=1, episodes_per_epoch=2, hyper=HYPER)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        _, nt, mean = NETWORKS[1]
        corpus = {}
        for tid in ("pre-0", "pre-1", "fine-0", "fine-1", "test-0", "test-1"):
            corpus[tid] = _synth(rng, tid, nt, TransportMode.CAR, mean, 3600)
        kwargs = dict(scheme=schemes.Scheme.TRANSFER_ONLY,
                      clients=(schemes.ClientSpec("client-0", ("fine-0", "fine-1")),),
                      test_trace_ids=("test-0", "test-1"))
        return corpus, ["pre-0", "pre-1"], kwargs


CLI_TRACES = 40
CLI_DURATION_S = 1800
CLI_EPISODE_LEN = 40
RUN_FILES = ("rewards.csv", "qoe.csv", "run_meta.json", "checkpoint.npz")
REPORT_FILES = ("convergence.csv", "efficiency.csv", "qoe.csv")


@dataclass
class CliState:
    config_path: Path
    traces: dict
    env: EnvConfig
    rounds: int
    expected: dict[str, int]


@dataclass
class CliResult:
    steps: list  # (command, exit code, expected files, output)
    out: Path


class CliPipeline:
    """split, pretrain, run offline_only, run full_federated and report, in-process."""

    name = "cli_pipeline"
    decision_starts = tuple(225.0 * k for k in range(8))
    expected_spans = COMMON_SPANS + (
        "traces.parse_trace", "traces.load_manifest", "metrics.convergence_epoch",
        "metrics.qoe_report", "config.load_config",
        "cli.split", "cli.pretrain", "cli.run", "cli.report")

    def setup(self, seed: int, workdir: Path) -> CliState:
        rng = np.random.default_rng([seed, 3])
        corpus = {}
        for i in range(CLI_TRACES):
            label, nt, mean = NETWORKS[(i % 12) // 4]
            tr = _synth(rng, f"{label}-{i:02d}", nt, TRANSPORTS[i % 4], mean, CLI_DURATION_S)
            corpus[tr.id] = tr
        traces.write_manifest(list(corpus.values()), workdir / "corpus")
        config = {
            "corpus": {"manifest": "corpus/manifest.yaml"},
            "split": {"seed": seed},
            "env": {"episode_len": CLI_EPISODE_LEN},
            "hyper": {"lr": HYPER.lr, "entropy_coef": HYPER.entropy_coef,
                      "value_coef": HYPER.value_coef, "clip_norm": HYPER.clip_norm},
            "pretrain": {"epochs": 8, "episodes_per_epoch": 2, "seed": seed},
            "federation": {"server_lr": SERVER_LR},
            "run": {"epochs": EPOCHS, "seed": seed},
        }
        config_path = workdir / "config.yaml"
        config_path.write_text(yaml.safe_dump(config))
        split = traces.split_corpus(list(corpus.values()), seed)
        rounds = EPOCHS * math.ceil(CLI_EPISODE_LEN / HYPER.rollout_len)
        groups = len({corpus[tid].group for tid in split.finetune})
        expected = {"federation.migrate": 0, "federation.aggregate_round": rounds * groups}
        return CliState(config_path, corpus, EnvConfig(episode_len=CLI_EPISODE_LEN),
                        rounds, expected)

    def input_key(self, state: CliState) -> str:
        root = state.config_path.parent
        return _digest(*(f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()))

    def operation(self, state: CliState, out: Path) -> CliResult:
        cfg, split, ckpt = state.config_path, out / "split.json", out / "ckpt.npz"
        runs = out / "runs"
        common = ["--config", cfg, "--split", split]
        plan = [
            (["split", "--config", cfg, "--out", split], [split]),
            (["pretrain", *common, "--out", ckpt], [ckpt, ckpt.with_suffix(".rewards.csv")]),
        ]
        for scheme in ("offline_only", "full_federated"):
            files = [runs / scheme / f for f in RUN_FILES]
            if scheme == "full_federated":
                files.append(runs / scheme / "transcript.jsonl")
            plan.append((["run", "--scheme", scheme, *common, "--checkpoint", ckpt,
                          "--out", runs / scheme], files))
        plan.append((["report", "--out", out / "report", "--anchor", "offline_only",
                      "--window", RULE.window, "--epsilon", RULE.epsilon,
                      "--sustain", RULE.sustain,
                      runs / "offline_only", runs / "full_federated"],
                     [out / "report" / f for f in REPORT_FILES]))
        out.mkdir(parents=True)
        runner = CliRunner()
        steps = []
        for args, files in plan:
            res = runner.invoke(cli.main, [str(a) for a in args])
            steps.append((args[0], res.exit_code, files, f"{res.output}{res.exception!r}"))
            if res.exit_code != 0:
                break
        return CliResult(steps, out)

    def check(self, state: CliState, result: CliResult, out_dir: Path,
              reference) -> list[list[str]]:
        """Problems per command run; whole-pipeline problems go to the last command."""
        per_command = []
        for command, code, files, output in result.steps:
            problems = []
            if code != 0:
                problems.append(f"{command} exited {code}: {output.strip()[-300:]}")
            missing = [str(f.relative_to(out_dir)) for f in files if not f.is_file()]
            if missing:
                problems.append(f"{command}: missing {missing}")
            per_command.append(problems)
        if any(per_command):  # a failed command also stopped the pipeline
            return per_command
        problems = per_command[-1]
        fed = out_dir / "runs" / "full_federated"
        for csv in (out_dir / "ckpt.rewards.csv", out_dir / "runs" / "offline_only" / "rewards.csv",
                    fed / "rewards.csv"):
            if not all(math.isfinite(r) for r in _csv_column(csv, "mean_reward")):
                problems.append(f"{csv.relative_to(out_dir)}: non-finite reward")
        pretrained = net.load_checkpoint(out_dir / "ckpt.npz")
        final = net.load_checkpoint(fed / "checkpoint.npz")
        if not (_finite(pretrained) and _finite(final)):
            problems.append("non-finite parameter in a checkpoint")
        if not _same_first_layer(final, pretrained):
            problems.append("full_federated: frozen first layer differs from the checkpoint")
        problems += _transcript_problems(fed / "transcript.jsonl", state.expected)
        if reference is not None and self.result_key(result) != reference:
            problems.append("outputs differ from the first pipeline on the same inputs")
        return per_command

    def result_key(self, result: CliResult) -> str:
        out = result.out
        files = [out / "split.json", out / "ckpt.rewards.csv"]
        files += [out / "runs" / s / f for s in ("offline_only", "full_federated")
                  for f in ("rewards.csv", "qoe.csv")]
        files += [out / "report" / f for f in REPORT_FILES]
        return _digest(*(f.read_bytes() for f in files))

    def decision_inputs(self, state: CliState, result: CliResult):
        model = net.load_checkpoint(result.out / "runs" / "full_federated" / "checkpoint.npz")
        test_ids = json.loads((result.out / "split.json").read_text())["test"]
        return [(model, state.traces[tid], state.env) for tid in test_ids]

    def quality(self, result: CliResult) -> Quality:
        fed = result.out / "runs" / "full_federated"
        test_rewards = _csv_column(fed / "qoe.csv", "mean_reward")
        return quality(_csv_column(fed / "rewards.csv", "mean_reward"),
                       float(np.mean(test_rewards)))


def _csv_column(path: Path, column: str) -> list[float]:
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


WORKLOADS = {w.name: w for w in (FedMultigroup(), XferLongtrace(), CliPipeline())}
