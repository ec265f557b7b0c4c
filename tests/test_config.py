import re
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from fedabr.cli import main
from fedabr.config import SECTIONS, ConfigError, build_scheme_config, load_config
from fedabr.schemes import Scheme

README = Path(__file__).resolve().parent.parent / "README.md"

# Every key load_config accepts, with a value other than its default.
KEYS = [
    ("corpus", "manifest", "other/manifest.yaml"),
    ("split", "seed", 7),
    ("env", "ladder", [300.0, 750.0]),
    ("env", "step_s", 2.0),
    ("env", "base_rtt_ms", 60.0),
    ("env", "deadline_ms", 500.0),
    ("env", "history_len", 4),
    ("env", "w_bitrate", 2.0),
    ("env", "w_stall", 1.0),
    ("env", "w_delay", 1.0),
    ("env", "w_switch", 1.0),
    ("env", "episode_len", 100),
    ("hyper", "gamma", 0.9),
    ("hyper", "entropy_coef", 0.05),
    ("hyper", "value_coef", 0.1),
    ("hyper", "lr", 0.002),
    ("hyper", "rollout_len", 8),
    ("hyper", "clip_norm", 10.0),
    ("pretrain", "epochs", 3),
    ("pretrain", "episodes_per_epoch", 2),
    ("pretrain", "hidden", [16]),
    ("pretrain", "seed", 4),
    ("federation", "mix", 0.25),
    ("federation", "server_lr", 0.004),
    ("federation", "poll_period_s", 10.0),
    ("run", "epochs", 7),
    ("run", "seed", 3),
    ("run", "frozen_layers", 0),
    ("run", "clients", [{"id": "a", "traces": ["t0"]}]),
]


def write_config(path, config):
    config = {"corpus": {"manifest": "corpus/manifest.yaml"}, **config}
    path.write_text(yaml.safe_dump(config))
    return load_config(path)


def resolved(cfg, scheme=Scheme.FULL_FEDERATED):
    """What a config sets: the manifest, the split seed, and what the library
    takes for pretraining and for a run of `scheme`."""
    return (cfg.manifest, cfg.split_seed, cfg.env, cfg.hyper, cfg.pretrain,
            build_scheme_config(cfg, scheme, ["t0", "t1"], ["t2"]))


def test_table_lists_exactly_the_accepted_keys():
    assert sorted((s, k) for s, k, _ in KEYS) == sorted(
        (s, k) for s, keys in SECTIONS.items() for k in keys)


@pytest.mark.parametrize("section, key, value", KEYS)
def test_every_key_changes_what_is_resolved(tmp_path, section, key, value):
    default = resolved(write_config(tmp_path / "default.yaml", {}))
    cfg = write_config(tmp_path / "config.yaml", {section: {key: value}})
    assert resolved(cfg) != default


@pytest.mark.parametrize("config, message", [
    ({"envv": {"episode_len": 3}}, "envv"),
    ({"corpus": {"manifest": "corpus/manifest.yaml", "pack": "c.npz"}}, "pack"),
    ({"split": {"sead": 3}}, "sead"),
    ({"pretrain": {"hyper": {"lr": 0.5}}}, "hyper"),
    ({"run": {"hidden": [16]}}, "hidden"),
    ({"federation": {"mode": "params"}}, "mode"),
])
def test_unknown_keys_rejected(tmp_path, config, message):
    with pytest.raises(ConfigError, match=message):
        write_config(tmp_path / "config.yaml", config)


@pytest.mark.parametrize("key, value, rule", [
    ("rollout_len", 0, ">= 1"),
    ("clip_norm", -1.0, ">= 0 (0 turns clipping off)"),
    ("entropy_coef", -0.5, "finite and >= 0"),
    ("value_coef", float("nan"), "finite and >= 0"),
    ("lr", float("nan"), "finite and positive"),
    ("lr", float("inf"), "finite and positive"),
    ("lr", 0.0, "finite and positive"),
])
def test_bad_hyper_values_give_one_error_line(tmp_path, key, value, rule):
    """Each bad `hyper` value stops every command where the YAML is read, with
    one line that names the key, before any trace is read or trained on."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"corpus": {"manifest": "none.yaml"}, "hyper": {key: value}}))
    result = CliRunner().invoke(main, ["split", "--config", str(path),
                                       "--out", str(tmp_path / "split.json")])
    assert result.exit_code == 1
    assert result.output == f"Error: invalid TrainHyper: {key} must be {rule}, got {value!r}\n"


INTEGER_KEYS = [("split", "seed"), ("env", "history_len"), ("env", "episode_len"),
                ("hyper", "rollout_len"), ("pretrain", "epochs"),
                ("pretrain", "episodes_per_epoch"), ("pretrain", "seed"), ("run", "epochs"),
                ("run", "seed"), ("run", "frozen_layers")]


@pytest.mark.parametrize("value, section, key", [
    *((value, section, key) for value in (2.5, "x", True, None) for section, key in INTEGER_KEYS),
    *((-1, section, "seed") for section in ("split", "pretrain", "run"))])
def test_integer_keys_reject_other_values(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be an integer")):
        write_config(tmp_path / "config.yaml", {section: {key: value}})


FLOAT_KEYS = [("env", "step_s"), ("env", "base_rtt_ms"), ("env", "deadline_ms"),
              ("env", "w_bitrate"), ("env", "w_stall"), ("env", "w_delay"), ("env", "w_switch"),
              ("hyper", "gamma"), ("hyper", "entropy_coef"), ("hyper", "value_coef"),
              ("hyper", "lr"), ("hyper", "clip_norm"), ("federation", "mix"),
              ("federation", "server_lr"), ("federation", "poll_period_s")]


@pytest.mark.parametrize("value, section, key", [
    (value, section, key) for value in ("x", "0.5", True, False, [0.5])
    for section, key in FLOAT_KEYS])
def test_float_keys_reject_other_than_numbers(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be a number, "
                                                    f"got {value!r}")):
        write_config(tmp_path / "config.yaml", {section: {key: value}})


def test_float_keys_take_integers_and_none_where_optional(tmp_path):
    cfg = write_config(tmp_path / "config.yaml", {
        "env": {"w_stall": 2, "ladder": [300, 750.5]}, "hyper": {"lr": 1},
        "federation": {"mix": 1, "server_lr": None}})
    assert (cfg.env.w_stall, cfg.env.ladder, cfg.hyper.lr) == (2, (300, 750.5), 1)
    assert cfg.scheme_args == {"mix": 1, "server_lr": None}


@pytest.mark.parametrize("value", [["300", "750"], [300, True], 300, "300"])
def test_ladder_rejects_other_than_a_list_of_numbers(tmp_path, value):
    with pytest.raises(ConfigError, match=re.escape(f"env.ladder must be a list of numbers, "
                                                    f"got {value!r}")):
        write_config(tmp_path / "config.yaml", {"env": {"ladder": value}})


@pytest.mark.parametrize("value", [[8.5], ["x"], [16, True], 16])
def test_hidden_rejects_other_than_a_list_of_integers(tmp_path, value):
    with pytest.raises(ConfigError, match=re.escape("pretrain.hidden must be a list of integers")):
        write_config(tmp_path / "config.yaml", {"pretrain": {"hidden": value}})


@pytest.mark.parametrize("value", [2.5, "x", True, -1])
def test_client_seed_rejects_other_values(tmp_path, value):
    clients = [{"id": "a", "traces": ["t0"], "seed": 1},
               {"id": "b", "traces": ["t1"], "seed": value}]
    with pytest.raises(ConfigError, match=re.escape("run.clients[1].seed must be an integer")):
        write_config(tmp_path / "config.yaml", {"run": {"clients": clients}})


def readme_config_block() -> str:
    section = README.read_text().split("\n## Config\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```yaml\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_is_the_defaults(tmp_path):
    block = yaml.safe_load(readme_config_block())
    assert ({s: set(keys) for s, keys in block.items()}
            == {s: set(keys) for s, keys in SECTIONS.items()})
    (tmp_path / "readme.yaml").write_text(readme_config_block())
    cfg = load_config(tmp_path / "readme.yaml")
    default = write_config(tmp_path / "default.yaml", {"corpus": block["corpus"]})
    for scheme in Scheme:
        assert resolved(cfg, scheme) == resolved(default, scheme)
