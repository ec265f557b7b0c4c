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


def _build(cls, data: dict | None, **overrides):
    data = dict(data or {})
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


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with open(path) as f:
        raw = yaml.safe_load(f) or {}
    corpus = raw.get("corpus", {})
    if "manifest" not in corpus:
        raise ConfigError("config must set corpus.manifest")
    hyper = _build(TrainHyper, raw.get("hyper"))
    return ExperimentConfig(
        manifest=(path.parent / corpus["manifest"]).resolve(),
        split_seed=int(raw.get("split", {}).get("seed", 0)),
        env=_build(EnvConfig, raw.get("env")),
        hyper=hyper,
        pretrain=_build(PretrainConfig, raw.get("pretrain"), hyper=hyper),
        federation=_build(FederationSettings, raw.get("federation")),
        run=_build(RunSettings, raw.get("run")),
    )


def _parse_schedule(entries, client_id: str):
    schedule = []
    for when, nt, tm in entries:
        schedule.append((float(when), ClientCondition(
            client_id, parse_network_type(nt), parse_transport_mode(tm))))
    return tuple(schedule)


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
    else:
        clients = tuple(
            ClientSpec(
                str(rec["id"]),
                tuple(rec["traces"]),
                rec.get("seed"),
                _parse_schedule(rec["condition_schedule"], str(rec["id"]))
                if rec.get("condition_schedule") else None,
            )
            for rec in cfg.run.clients
        )
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
