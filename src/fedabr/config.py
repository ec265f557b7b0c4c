"""Experiment configuration file: one YAML document covering every sub-config."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .discriminator import ClientCondition
from .env import EnvConfig
from .net import TrainHyper
from .pretrain import PretrainConfig
from .schemes import ClientSpec, Scheme, SchemeConfig
from .traces import parse_network_type, parse_transport_mode


class ConfigError(ValueError):
    pass


def _build(cls, data: dict, **overrides):
    data = dict(data)
    data.update(overrides)
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for key, val in data.items():
        if isinstance(val, list):
            data[key] = tuple(val)
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {cls.__name__}: {e}") from None


# Settings that feed a SchemeConfig take their defaults from it.
@dataclass(frozen=True)
class FederationSettings:
    mix: float = SchemeConfig.mix
    server_lr: float | None = SchemeConfig.server_lr
    poll_period_s: float = SchemeConfig.poll_period_s


@dataclass(frozen=True)
class RunSettings:
    epochs: int = 50
    seed: int = 0
    clients: tuple[dict, ...] | str = "auto"
    frozen_layers: int = SchemeConfig.frozen_layers
    hidden: tuple[int, ...] = SchemeConfig.hidden


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: Path
    split_seed: int
    env: EnvConfig
    hyper: TrainHyper
    pretrain: PretrainConfig
    federation: FederationSettings
    run: RunSettings


def _section(raw: dict, name: str) -> dict:
    data = raw.get(name)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {data!r}")
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    corpus = _section(raw, "corpus")
    if not isinstance(corpus.get("manifest"), str):
        raise ConfigError("config must set corpus.manifest to a path")
    seed = _section(raw, "split").get("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"split.seed must be an integer, got {seed!r}") from None
    hyper = _build(TrainHyper, _section(raw, "hyper"))
    return ExperimentConfig(
        manifest=(path.parent / corpus["manifest"]).resolve(),
        split_seed=seed,
        env=_build(EnvConfig, _section(raw, "env")),
        hyper=hyper,
        pretrain=_build(PretrainConfig, _section(raw, "pretrain"), hyper=hyper),
        federation=_build(FederationSettings, _section(raw, "federation")),
        run=_build(RunSettings, _section(raw, "run")),
    )


def _parse_schedule(entries, client_id: str):
    schedule = []
    for when, nt, tm in entries:
        schedule.append((float(when), ClientCondition(
            client_id, parse_network_type(nt), parse_transport_mode(tm))))
    return tuple(schedule)


def _client_spec(rec) -> ClientSpec:
    """One `run.clients` record: `{id, traces[, seed][, condition_schedule]}`."""
    if not (isinstance(rec, dict) and "id" in rec and "traces" in rec):
        raise ConfigError(f"run.clients record must be a mapping with keys id and traces: "
                          f"{rec!r}")
    try:
        return ClientSpec(
            str(rec["id"]),
            tuple(rec["traces"]),
            rec.get("seed"),
            _parse_schedule(rec["condition_schedule"], str(rec["id"]))
            if rec.get("condition_schedule") else None,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"run.clients record {rec['id']!r}: {e}") from None


def build_scheme_config(cfg: ExperimentConfig, scheme: Scheme,
                        finetune_ids: list[str], test_ids: list[str]) -> SchemeConfig:
    """Assemble a SchemeConfig from the experiment file and a corpus split.

    With `run.clients: auto`, one client is created per finetune trace for the
    federated scheme, and a single client over all finetune traces otherwise.
    """
    if cfg.run.clients == "auto":
        if not finetune_ids:
            raise ConfigError("split has no finetune traces to assign to clients")
        ids = sorted(finetune_ids)
        if scheme is Scheme.FULL_FEDERATED and len(ids) > 1:
            clients = tuple(ClientSpec(f"client-{i}", (tid,)) for i, tid in enumerate(ids))
        else:
            clients = (ClientSpec("client-0", tuple(ids)),)
    elif isinstance(cfg.run.clients, tuple):
        clients = tuple(_client_spec(rec) for rec in cfg.run.clients)
    else:
        raise ConfigError(f"run.clients must be 'auto' or a list of records, "
                          f"got {cfg.run.clients!r}")
    return SchemeConfig(
        scheme=scheme,
        clients=clients,
        epochs=cfg.run.epochs,
        test_trace_ids=tuple(sorted(test_ids)),
        seed=cfg.run.seed,
        env=cfg.env,
        hyper=cfg.hyper,
        frozen_layers=cfg.run.frozen_layers,
        mix=cfg.federation.mix,
        server_lr=cfg.federation.server_lr,
        poll_period_s=cfg.federation.poll_period_s,
        hidden=cfg.run.hidden,
    )
