"""Experiment configuration file: one YAML document covering every sub-config."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .discriminator import ClientCondition
from .env import EnvConfig
from .net import TrainHyper
from .pretrain import PretrainConfig
from .schemes import ClientSpec, Scheme, SchemeConfig
from .traces import NetworkType, TransportMode, load_yaml, parse_label


class ConfigError(ValueError):
    pass


# The keys each section accepts. `hyper` serves pretraining and runs alike, and
# `pretrain.hidden` sets the one architecture. The `run` keys other than
# `clients`, and the `federation` keys, are SchemeConfig keywords, defaulted there.
SECTIONS = {
    "corpus": ("manifest",),
    "split": ("seed",),
    "env": tuple(f.name for f in fields(EnvConfig)),
    "hyper": tuple(f.name for f in fields(TrainHyper)),
    "pretrain": tuple(f.name for f in fields(PretrainConfig) if f.name != "hyper"),
    "federation": ("mix", "server_lr", "poll_period_s"),
    "run": ("epochs", "seed", "frozen_layers", "clients"),
}


def _is_a(kind: type, value) -> bool:
    """Whether `value` fits a key of type `kind`: an int but not a bool, or a float for a
    float; for a float key, an int must convert to a float, which one over 1e308 does not."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    try:
        kind(value)
    except OverflowError:
        return False
    return True


def _check_numbers(where: str, data: dict, hints: dict) -> None:
    """Reject a value that does not fit (`_is_a`) a key whose type in `hints` is an int or a
    float, optional or not, or a tuple of either; and a negative `seed`, which numpy refuses."""
    for key, value in data.items():
        hint = hints.get(key)
        for kind, one, many in ((int, "an integer", "integers"), (float, "a number", "numbers")):
            if hint == tuple[kind, ...]:
                if not (isinstance(value, list) and all(_is_a(kind, v) for v in value)):
                    raise ConfigError(f"{where}.{key} must be a list of {many}, got {value!r}")
            elif hint in (kind, kind | None) and not (
                    _is_a(kind, value) or (value is None and hint != kind)):
                raise ConfigError(f"{where}.{key} must be {one}, got {value!r}")
        if key == "seed" and value is not None and value < 0:
            raise ConfigError(f"{where}.{key} must be an integer >= 0, got {value!r}")


def _build(cls, data: dict, **extra):
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()},
                   **extra)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {cls.__name__}: {e}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: Path
    split_seed: int
    env: EnvConfig
    hyper: TrainHyper
    pretrain: PretrainConfig
    clients: tuple[ClientSpec, ...] | str  # run.clients: "auto" or the client records
    scheme_args: dict    # the other run and federation keys, as SchemeConfig keywords


def _section(raw: dict, name: str) -> dict:
    data = raw.get(name)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {data!r}")
    if unknown := [str(k) for k in data if k not in SECTIONS[name]]:
        raise ConfigError(f"unknown keys in config section {name!r}: {unknown}")
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    raw = load_yaml(path, "config", ConfigError) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    if unknown := [str(k) for k in raw if k not in SECTIONS]:
        raise ConfigError(f"unknown config sections: {unknown}")
    sec = {name: _section(raw, name) for name in SECTIONS}
    if not isinstance(sec["corpus"].get("manifest"), str):
        raise ConfigError("config must set corpus.manifest to a path")
    _check_numbers("split", sec["split"], {"seed": int})
    for name, cls in (("env", EnvConfig), ("hyper", TrainHyper), ("pretrain", PretrainConfig),
                      ("run", SchemeConfig), ("federation", SchemeConfig)):
        _check_numbers(name, sec[name], get_type_hints(cls))
    hyper = _build(TrainHyper, sec["hyper"])
    scheme_args = {**sec["run"], **sec["federation"]}
    clients = scheme_args.pop("clients", "auto")
    if isinstance(clients, list):
        clients = tuple(_client_spec(i, rec) for i, rec in enumerate(clients))
    elif clients != "auto":
        raise ConfigError(f"run.clients must be 'auto' or a list of records, got {clients!r}")
    env = _build(EnvConfig, sec["env"])
    pretrain = _build(PretrainConfig, sec["pretrain"], hyper=hyper)
    # SchemeConfig's own checks, with a stand-in client for `auto`, so they stop every command.
    _build(SchemeConfig, scheme_args, scheme=Scheme.FULL_FEDERATED, hidden=pretrain.hidden,
           clients=(ClientSpec("", ("",)),) if clients == "auto" else clients)
    return ExperimentConfig(
        manifest=(path.parent / sec["corpus"]["manifest"]).resolve(),
        split_seed=sec["split"].get("seed", 0),
        env=env,
        hyper=hyper,
        pretrain=pretrain,
        clients=clients,
        scheme_args=scheme_args,
    )


def _parse_schedule(entries, client_id: str):
    """A `condition_schedule`: `[t, network_type, transport_mode]` entries, in the order given."""
    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 3 and _is_a(float, e[0]) for e in entries)):
        raise ValueError("condition_schedule must be a list of [t, network_type, "
                         f"transport_mode] entries, got {entries!r}")
    return tuple((float(t), ClientCondition(client_id, parse_label(NetworkType, nt),
                                            parse_label(TransportMode, tm)))
                 for t, nt, tm in entries)


def _client_spec(index: int, rec) -> ClientSpec:
    """One `run.clients` record: `{id, traces[, seed][, condition_schedule]}`."""
    if not (isinstance(rec, dict) and "id" in rec and "traces" in rec):
        raise ConfigError(f"run.clients record must be a mapping with keys id and traces: "
                          f"{rec!r}")
    _check_numbers(f"run.clients[{index}]", rec, {"seed": int | None})
    traces = rec["traces"]
    try:
        if not (isinstance(traces, list) and traces and all(isinstance(t, str) for t in traces)):
            raise ValueError(f"traces must be a non-empty list of trace ids, got {traces!r}")
        return ClientSpec(
            str(rec["id"]),
            tuple(traces),
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
    clients = cfg.clients
    if clients == "auto":
        if not finetune_ids:
            raise ConfigError("split has no finetune traces to assign to clients")
        ids = sorted(finetune_ids)
        if scheme is Scheme.FULL_FEDERATED:
            clients = tuple(ClientSpec(f"client-{i}", (tid,)) for i, tid in enumerate(ids))
        else:
            clients = (ClientSpec("client-0", tuple(ids)),)
    return SchemeConfig(scheme=scheme, clients=clients, test_trace_ids=tuple(sorted(test_ids)),
                        env=cfg.env, hyper=cfg.hyper, hidden=cfg.pretrain.hidden,
                        **cfg.scheme_args)
