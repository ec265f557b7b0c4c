"""Command-line harness: split, pretrain, run, report."""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, build_scheme_config, load_config
from .env import EnvError
from .metrics import (QOE_METRICS, ConvergenceRule, MetricError, QoESummary, convergence_epoch,
                      efficiency_gain, qoe_report, speedup_percent)
from .net import DivergenceError, NetError, load_checkpoint, save_checkpoint, sum_in_order
from .pretrain import offline_train
from .schemes import Scheme, SchemeError, run_scheme, write_csv, write_rewards_csv
from .traces import Corpus, TraceError, load_manifest, split_corpus


class RunDirError(ValueError):
    """A directory given to `report` is not a finished run."""


@click.group()
def main():
    """Trace-driven training lab for real-time streaming bitrate adaptation."""


def _command_body(fn):
    """Run a command with numpy's floating-point warnings off, since a
    diverging run ends in one DivergenceError, and report bad input, or an
    output path that cannot be written, as a one-line error with exit status 1."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                return fn(*args, **kwargs)
            except (ConfigError, TraceError, EnvError, SchemeError, NetError, MetricError,
                    RunDirError, OSError) as e:
                raise click.ClickException(str(e)) from None
    return wrapper


def _load_split(path: Path, corpus: Corpus) -> dict[str, list[str]]:
    """Read a split file: each of its three sets is a list of ids from `corpus`."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise TraceError(f"cannot read split file {path}: {e}") from None
    for key in ("pretrain", "finetune", "test"):
        ids = data.get(key) if isinstance(data, dict) else None
        if not isinstance(ids, list):
            raise TraceError(f"split file {path}: {key!r} must be a list of trace ids")
        for tid in ids:
            if not (isinstance(tid, str) and tid in corpus):
                raise TraceError(f"split file {path}: {key} trace {tid!r} "
                                 "is not in the manifest")
        if len(set(ids)) < len(ids):  # the first id listed a second time
            twice = next(tid for i, tid in enumerate(ids) if tid in ids[:i])
            raise TraceError(f"split file {path}: trace {twice!r} is listed twice in {key}")
    for a, b in (("pretrain", "finetune"), ("pretrain", "test"), ("finetune", "test")):
        if both := sorted(set(data[a]).intersection(data[b])):
            raise TraceError(f"split file {path}: trace {both[0]!r} is in both {a} and {b}")
    return data


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_command_body
def split(config_path, out_path):
    """Split the corpus into pretrain / finetune / test trace sets."""
    cfg = load_config(config_path)
    result = split_corpus(list(load_manifest(cfg.manifest).values()), cfg.split_seed)
    data = {"pretrain": sorted(result.pretrain),
            "finetune": sorted(result.finetune),
            "test": sorted(result.test)}
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    click.echo(f"split: {len(data['pretrain'])} pretrain, "
               f"{len(data['finetune'])} finetune, {len(data['test'])} test")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_command_body
def pretrain(config_path, split_path, out_path):
    """Pretrain the shared model offline on the pretrain trace set."""
    cfg = load_config(config_path)
    corpus = load_manifest(cfg.manifest)
    ids = _load_split(Path(split_path), corpus)["pretrain"]
    if not ids:
        raise click.ClickException(f"split file {split_path} has no pretrain traces")
    traces = [corpus[i] for i in sorted(ids)]
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    if Path(out_path).is_dir():  # found now, not when the checkpoint is written
        raise IsADirectoryError(f"cannot write the checkpoint {out_path}: it is a directory")
    try:
        params, rewards = offline_train(traces, cfg.pretrain, cfg.env)
    except DivergenceError as e:
        raise click.ClickException(f"pretraining diverged: {e}") from None
    save_checkpoint(params, out_path)
    write_rewards_csv(rewards, Path(out_path).with_suffix(".rewards.csv"))
    click.echo(f"pretrained {cfg.pretrain.epochs} epochs -> {out_path}")


@main.command()
@click.option("--scheme", "scheme_name", required=True,
              type=click.Choice([s.value for s in Scheme]))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@_command_body
def run(scheme_name, config_path, split_path, ckpt_path, out_dir):
    """Run one training scheme end-to-end and write its CSV outputs."""
    cfg = load_config(config_path)
    corpus = load_manifest(cfg.manifest)
    split_data = _load_split(Path(split_path), corpus)
    scheme = Scheme(scheme_name)
    pretrained = load_checkpoint(ckpt_path) if ckpt_path else None
    sc = build_scheme_config(cfg, scheme, split_data["finetune"], split_data["test"])
    try:
        metrics = run_scheme(sc, corpus, pretrained, out_dir)
    except DivergenceError as e:
        raise click.ClickException(f"{scheme.value} diverged: {e}") from None
    click.echo(f"{scheme.value}: {len(metrics.rewards)} epochs, "
               f"mean test reward {metrics.mean_test_reward:.4f} "
               f"({metrics.wall_time_s:.1f}s wall)", err=True)


def _read_run_dir(run_dir: Path):
    """A run's meta record, epoch rewards and QoE averaged over its test traces."""
    def read(name, parse):
        try:
            with open(run_dir / name) as f:
                return parse(f)
        except (OSError, ValueError, KeyError) as e:
            raise RunDirError(f"run directory {run_dir}: cannot read {name}: {e}") from None

    def finite_rows(f, columns):
        """Each row's `columns` as floats; a short row's missing fields read as empty,
        which `float` refuses, and a value that is not finite is refused too."""
        rows, reader = [], csv.DictReader(f, restval="")
        for row in reader:
            rows.append([float(row[c]) for c in columns])
            if bad := [c for c, v in zip(columns, rows[-1]) if not math.isfinite(v)]:
                raise ValueError(f"line {reader.line_num}: {bad[0]} {row[bad[0]]!r} is not finite")
        return rows

    meta = read("run_meta.json", json.load)
    rewards = [row[0] for row in read("rewards.csv", lambda f: finite_rows(f, ("mean_reward",)))]
    qoe_rows = read("qoe.csv", lambda f: finite_rows(f, QOE_METRICS))
    if not isinstance(meta, dict):
        raise RunDirError(f"run directory {run_dir}: run_meta.json is not a mapping")
    epochs, sim_time = meta.get("epochs"), meta.get("sim_time_s")
    for key, ok, rule in (
            ("scheme", isinstance(meta.get("scheme"), str) and meta["scheme"] != "",
             "a non-empty string"),
            ("epochs", type(epochs) is int and epochs == len(rewards) >= 1,
             f"an integer >= 1 equal to the {len(rewards)} rows of rewards.csv"),
            ("sim_time_s", type(sim_time) in (int, float) and 0 < sim_time < float("inf"),
             "a finite number > 0")):
        if not ok:
            raise RunDirError(f"run directory {run_dir}: run_meta.json: {key!r} must be "
                              f"{rule}, got {meta.get(key)!r}")
    if not qoe_rows:
        raise RunDirError(f"run directory {run_dir}: qoe.csv has no test trace rows")
    qoe = QoESummary(*(sum_in_order(np.array(qoe_rows), axis=0) / len(qoe_rows)).tolist())
    return meta, rewards, qoe


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--anchor", default=Scheme.OFFLINE_ONLY.value,
              help="Scheme whose QoE metrics normalize the others.")
@click.option("--window", default=ConvergenceRule.window, type=int)
@click.option("--epsilon", default=ConvergenceRule.epsilon, type=float)
@click.option("--sustain", default=ConvergenceRule.sustain, type=int)
@click.argument("run_dirs", nargs=-1, required=True,
                type=click.Path(exists=True, file_okay=False))
@_command_body
def report(out_dir, anchor, window, epsilon, sustain, run_dirs):
    """Summarize finished runs: convergence, efficiency, normalized QoE."""
    rule = ConvergenceRule(window, epsilon, sustain)
    runs, sources = {}, {}
    for d in run_dirs:
        d = Path(d)
        meta, rewards, qoe = _read_run_dir(d)
        label = meta["scheme"]
        if label in runs:
            label = f"{label}:{d.name}"
        if label in runs:
            raise RunDirError(f"run directories {sources[label]} and {d} both get the label "
                              f"{label!r}: give runs of one scheme different directory names")
        runs[label], sources[label] = (meta, rewards, qoe), d
    anchor_label = next((lbl for lbl in sorted(runs) if lbl.split(":")[0] == anchor), None)
    if anchor_label is None:
        raise click.ClickException(f"anchor scheme {anchor!r} not among runs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for label in sorted(runs):
        meta, rewards, _ = runs[label]
        try:
            epoch = convergence_epoch(rewards, rule)
        except ValueError:
            epoch = None
        sim_per_epoch = meta["sim_time_s"] / meta["epochs"]
        rows.append((label, epoch, None if epoch is None else epoch * sim_per_epoch))
    write_csv(out_dir / "convergence.csv", ("scheme", "convergence_epoch", "sim_time_s"), rows)

    conv = {label: epoch for label, epoch, _ in rows if epoch is not None}  # in label order
    write_csv(out_dir / "efficiency.csv", ("base", "new", "gain", "speedup_percent"),
              [(base, new, efficiency_gain(conv[base], conv[new]),
                speedup_percent(conv[base], conv[new]))
               for base in conv for new in conv if base != new])

    summaries = {label: qoe for label, (_, _, qoe) in runs.items()}
    header = ("scheme", *QOE_METRICS, "flags")
    write_csv(out_dir / "qoe.csv", header,
              [[row[h] for h in header] for row in qoe_report(summaries, anchor_label)])
    click.echo(f"report written to {out_dir}")


if __name__ == "__main__":
    sys.exit(main())
