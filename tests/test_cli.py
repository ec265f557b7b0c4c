import csv
import json
import re
import shutil
import sys
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fedabr import cli
from fedabr.cli import main
from fedabr.metrics import QOE_METRICS, ConvergenceRule, QoESummary, qoe_report
from fedabr.schemes import run_scheme
from fedabr.traces import NetworkType, SynthFamily, TransportMode, synthesize_trace, write_manifest
from tests.conftest import compensated_sum


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus + config: 8 traces, short episodes, few epochs."""
    root = tmp_path_factory.mktemp("cli")
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                      duration_s=40)
    traces = [synthesize_trace(fam, f"tr{i}", NetworkType.FOUR_G, TransportMode.CAR,
                               seed=i) for i in range(8)]
    write_manifest(traces, root / "corpus")
    config = {
        "corpus": {"manifest": "corpus/manifest.yaml"},
        "split": {"seed": 3},
        "env": {"ladder": [300, 750, 1200, 1850], "episode_len": 32},
        "hyper": {"lr": 1e-3, "entropy_coef": 0.05, "value_coef": 0.1,
                  "clip_norm": 10.0},
        "pretrain": {"epochs": 3, "episodes_per_epoch": 1, "seed": 0},
        "run": {"epochs": 14, "seed": 1},
    }
    with open(root / "config.yaml", "w") as f:
        yaml.safe_dump(config, f)
    return root


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


@pytest.fixture(scope="module")
def split_file(workspace):
    out = workspace / "split.json"
    result = invoke("split", "--config", workspace / "config.yaml", "--out", out)
    assert result.exit_code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(workspace, split_file):
    out = workspace / "ckpt.npz"
    result = invoke("pretrain", "--config", workspace / "config.yaml",
                    "--split", split_file, "--out", out)
    assert result.exit_code == 0
    return out


class TestSplit:
    def test_proportions(self, workspace, split_file):
        data = json.loads(split_file.read_text())
        assert len(data["test"]) == 2
        assert len(data["pretrain"]) == 5
        assert len(data["finetune"]) == 1
        assert len(set(data["test"]) | set(data["pretrain"]) | set(data["finetune"])) == 8

    def test_byte_identical_rerun(self, workspace, split_file):
        out2 = workspace / "split2.json"
        invoke("split", "--config", workspace / "config.yaml", "--out", out2)
        assert out2.read_bytes() == split_file.read_bytes()

    def test_creates_out_directory(self, workspace, split_file, tmp_path):
        out = tmp_path / "new" / "dir" / "split.json"
        assert invoke("split", "--config", workspace / "config.yaml", "--out", out).exit_code == 0
        assert out.read_bytes() == split_file.read_bytes()


class TestPretrain:
    def test_creates_checkpoint_and_rewards(self, workspace, checkpoint):
        assert checkpoint.exists()
        rewards = checkpoint.with_suffix(".rewards.csv").read_text().splitlines()
        assert rewards[0] == "epoch,mean_reward"
        assert len(rewards) == 4

    def test_byte_identical_rerun(self, workspace, split_file, checkpoint):
        out2 = workspace / "ckpt2.npz"
        invoke("pretrain", "--config", workspace / "config.yaml",
               "--split", split_file, "--out", out2)
        assert (out2.with_suffix(".rewards.csv").read_bytes()
                == checkpoint.with_suffix(".rewards.csv").read_bytes())

    def test_creates_out_directory(self, workspace, split_file, tmp_path):
        out = tmp_path / "new" / "dir" / "ckpt.npz"
        result = invoke("pretrain", "--config", workspace / "config.yaml",
                        "--split", split_file, "--out", out)
        assert result.exit_code == 0 and out.is_file()
        assert out.with_suffix(".rewards.csv").is_file()

    def test_checkpoint_written_as_named(self, workspace, split_file, tmp_path):
        """An `--out` without the `.npz` suffix names the checkpoint that `run` reads."""
        out = tmp_path / "ckpt"
        result = invoke("pretrain", "--config", workspace / "config.yaml",
                        "--split", split_file, "--out", out)
        assert result.exit_code == 0 and result.output.endswith(f"-> {out}\n")
        assert out.is_file() and not out.with_suffix(".npz").exists()
        result = invoke("run", "--scheme", "transfer_only", "--config",
                        workspace / "config.yaml", "--split", split_file,
                        "--checkpoint", out, "--out", tmp_path / "run")
        assert result.exit_code == 0 and (tmp_path / "run" / "rewards.csv").is_file()


class TestRun:
    @pytest.mark.parametrize("scheme", ["offline_only", "online_scratch",
                                        "transfer_only"])
    def test_schemes_produce_outputs(self, workspace, split_file, checkpoint, scheme):
        out = workspace / f"run-{scheme}"
        result = invoke("run", "--scheme", scheme, "--config", workspace / "config.yaml",
                        "--split", split_file, "--checkpoint", checkpoint, "--out", out)
        assert result.exit_code == 0
        assert (out / "rewards.csv").exists()
        assert (out / "qoe.csv").exists()
        assert (out / "run_meta.json").exists()

    def test_byte_identical_rerun(self, workspace, split_file, checkpoint):
        outs = []
        for i in range(2):
            out = workspace / f"run-det-{i}"
            invoke("run", "--scheme", "transfer_only", "--config",
                   workspace / "config.yaml", "--split", split_file,
                   "--checkpoint", checkpoint, "--out", out)
            outs.append((out / "rewards.csv").read_bytes()
                        + (out / "qoe.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_divergence_exits_cleanly(self, workspace, split_file, checkpoint):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["hyper"]["lr"] = 1e300
        bad = workspace / "config-diverge.yaml"
        bad.write_text(yaml.safe_dump(config))
        # The error says where training diverged: the epoch (and trace) of
        # pretraining; the client, its group, the epoch and the round of a run.
        for args, where in (
                (["pretrain", "--out", workspace / "ckpt-diverge.npz"],
                 r"pretraining diverged: epoch \d+, trace 'tr\d+': "),
                (["run", "--scheme", "transfer_only", "--checkpoint", checkpoint,
                  "--out", workspace / "run-diverge"],
                 r"transfer_only diverged: client 'client-0' in group \d+, "
                 r"epoch \d+, round \d+: ")):
            # Record every warning, so that none is hidden by an earlier test's.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = CliRunner().invoke(main, [str(a) for a in (
                    args[0], "--config", bad, "--split", split_file, *args[1:])])
            assert result.exit_code == 1
            assert "non-finite" in result.output
            assert re.search(where, result.output), result.output
            assert "Traceback" not in result.output
            assert "RuntimeWarning" not in result.output
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            assert isinstance(result.exception, SystemExit)
        assert not (workspace / "run-diverge").exists()

    def test_unknown_federation_key_rejected(self, workspace, split_file, checkpoint):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["federation"] = {"mode": "params"}
        bad = workspace / "config-mode.yaml"
        bad.write_text(yaml.safe_dump(config))
        result = CliRunner().invoke(main, [
            "run", "--scheme", "transfer_only", "--config", str(bad),
            "--split", str(split_file), "--checkpoint", str(checkpoint),
            "--out", str(workspace / "run-mode")])
        assert result.exit_code == 1
        assert "mode" in result.output

    def test_missing_checkpoint_fails(self, workspace, split_file):
        result = CliRunner().invoke(main, [
            "run", "--scheme", "transfer_only", "--config",
            str(workspace / "config.yaml"), "--split", str(split_file),
            "--out", str(workspace / "run-fail")])
        assert result.exit_code == 1
        assert result.output == ("Error: scheme transfer_only requires a pretrained "
                                 "checkpoint\n")
        assert not (workspace / "run-fail").exists()


class TestInputErrors:
    """Bad input ends a command with one `Error:` line and exit status 1."""

    @pytest.mark.parametrize("edit, message", [
        ({"env": {"episode_lenn": 3}}, "episode_lenn"),
        ({"env": {"episode_len": 0}}, "episode_len"),
        ({"corpus": {"manifest": "missing/manifest.yaml"}}, "manifest"),
    ])
    @pytest.mark.parametrize("command", ["split", "pretrain", "run"])
    def test_config_and_trace_errors(self, workspace, split_file, checkpoint,
                                     edit, message, command):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        for section, values in edit.items():
            config[section].update(values)
        bad = workspace / "config-bad.yaml"
        bad.write_text(yaml.safe_dump(config))
        args = {"split": ["--out", workspace / "split-bad.json"],
                "pretrain": ["--split", split_file, "--out", workspace / "ckpt-bad.npz"],
                "run": ["--scheme", "transfer_only", "--split", split_file,
                        "--checkpoint", checkpoint, "--out", workspace / "run-bad"]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (command, "--config", bad, *args)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ")
        assert result.output.count("\n") == 1
        assert message in result.output
        assert not (workspace / "run-bad").exists()

    @pytest.mark.parametrize("section, value", [("split", 5), ("corpus", 5),
                                                ("env", [1, 2]), ("hyper", "lr")])
    @pytest.mark.parametrize("command", ["split", "pretrain", "run"])
    def test_non_mapping_section(self, workspace, split_file, checkpoint, section, value,
                                 command):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config[section] = value
        bad = workspace / "config-section.yaml"
        bad.write_text(yaml.safe_dump(config))
        args = {"split": ["--out", workspace / "split-section.json"],
                "pretrain": ["--split", split_file, "--out", workspace / "ckpt-section.npz"],
                "run": ["--scheme", "transfer_only", "--split", split_file,
                        "--checkpoint", checkpoint, "--out", workspace / "run-section"]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (command, "--config", bad, *args)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: config section {section!r} must be a mapping, "
                                 f"got {value!r}\n")

    @pytest.mark.parametrize("command", ["pretrain", "run"])
    @pytest.mark.parametrize("key", ["pretrain", "finetune", "test"])
    def test_split_names_unknown_trace(self, workspace, split_file, checkpoint, command, key):
        data = json.loads(split_file.read_text())
        data[key] = data[key] + ["no-such-trace"]
        bad = workspace / "split-unknown.json"
        bad.write_text(json.dumps(data))
        args = {"pretrain": ["--out", workspace / "ckpt-unknown.npz"],
                "run": ["--scheme", "transfer_only", "--checkpoint", checkpoint,
                        "--out", workspace / "run-unknown"]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", workspace / "config.yaml", "--split", bad, *args)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert f"{key} trace 'no-such-trace' is not in the manifest" in result.output
        assert not (workspace / "run-unknown").exists()

    @pytest.mark.parametrize("command", ["pretrain", "run"])
    @pytest.mark.parametrize("first, second", [("pretrain", "finetune"), ("pretrain", "test"),
                                               ("finetune", "test")])
    def test_split_lists_a_trace_twice(self, workspace, split_file, checkpoint, command,
                                       first, second):
        data = json.loads(split_file.read_text())
        tid = data[second][0]
        data[first] = data[first] + [tid]
        bad = workspace / "split-twice.json"
        bad.write_text(json.dumps(data))
        args = {"pretrain": ["--out", workspace / "ckpt-twice.npz"],
                "run": ["--scheme", "transfer_only", "--checkpoint", checkpoint,
                        "--out", workspace / "run-twice"]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", workspace / "config.yaml", "--split", bad, *args)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: split file {bad}: trace {tid!r} is in both "
                                 f"{first} and {second}\n")
        assert not (workspace / "ckpt-twice.npz").exists()
        assert not (workspace / "run-twice").exists()

    @pytest.mark.parametrize("command", ["pretrain", "run"])
    @pytest.mark.parametrize("key", ["pretrain", "finetune", "test"])
    def test_split_repeats_a_trace_within_a_set(self, workspace, split_file, checkpoint,
                                                command, key):
        data = json.loads(split_file.read_text())
        tid = data[key][-1]
        data[key] = data[key] + [tid]
        bad = workspace / "split-repeat.json"
        bad.write_text(json.dumps(data))
        args = {"pretrain": ["--out", workspace / "ckpt-repeat.npz"],
                "run": ["--scheme", "full_federated", "--checkpoint", checkpoint,
                        "--out", workspace / "run-repeat"]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", workspace / "config.yaml", "--split", bad, *args)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: split file {bad}: trace {tid!r} is listed twice "
                                 f"in {key}\n")
        # no checkpoint, rewards file, run directory or staged run directory
        assert not [f for f in workspace.iterdir() if "-repeat" in f.name and f != bad]

    def test_split_without_pretrain_traces(self, workspace, split_file):
        data = json.loads(split_file.read_text())
        data["pretrain"] = []
        bad = workspace / "split-empty.json"
        bad.write_text(json.dumps(data))
        result = CliRunner().invoke(main, [str(a) for a in (
            "pretrain", "--config", workspace / "config.yaml", "--split", bad,
            "--out", workspace / "ckpt-empty.npz")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == f"Error: split file {bad} has no pretrain traces\n"

    @pytest.mark.parametrize("record, message", [
        ({"id": "c0"}, "keys id and traces"),
        ("c0", "keys id and traces"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": [[0, "4g"]]}, "'c0'"),
        (None, "'auto' or a list of records, got 5"),
        ({"id": "c0", "traces": []},
         "'c0': traces must be a non-empty list of trace ids, got []"),
        ({"id": "c0", "traces": "tr0"}, "'c0': traces must be a non-empty list"),
        ({"id": "c0", "traces": [["tr0"]]}, "'c0': traces must be a non-empty list"),
        ({"id": "c0", "traces": ["tr0"],
          "condition_schedule": [[5, "4g", "car"], [0, "wifi", "car"]]},
         "'c0': condition_schedule times must not decrease, got [5.0, 0.0]"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": [[0, 4, "car"]]},
         "'c0': unknown network type 4"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": [[0, "4g", "CAR", 1]]},
         "'c0': condition_schedule must be a list of [t, network_type, transport_mode]"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": [["0", "4g", "car"]]},
         "'c0': condition_schedule must be a list of"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": {"0": ["4g", "car"]}},
         "'c0': condition_schedule must be a list of"),
        ({"id": "c0", "traces": ["tr0"], "condition_schedule": [[10**400, "4g", "car"]]},
         "'c0': condition_schedule must be a list of"),  # a time too large for a float
    ])
    def test_malformed_client_record(self, workspace, split_file, checkpoint, record, message):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["run"]["clients"] = 5 if record is None else [record]
        bad = workspace / "config-record.yaml"
        bad.write_text(yaml.safe_dump(config))
        result = CliRunner().invoke(main, [str(a) for a in (
            "run", "--scheme", "transfer_only", "--config", bad, "--split", split_file,
            "--checkpoint", checkpoint, "--out", workspace / "run-record")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: run.clients ")
        assert result.output.count("\n") == 1 and message in result.output

    @pytest.mark.parametrize("section, key, value, message", [
        ("federation", "mix", 1.5, "mix must be in [0, 1], got 1.5"),
        ("federation", "mix", -0.5, "mix must be in [0, 1], got -0.5"),
        ("federation", "server_lr", 0.0, "server_lr must be finite and positive, got 0.0"),
        ("federation", "server_lr", -1.0, "server_lr must be finite and positive, got -1.0"),
        ("federation", "poll_period_s", 0.0, "poll_period_s must be finite and positive, got 0.0"),
        ("run", "frozen_layers", 3, "frozen_layers must be in [0, 2] (hidden layers), got 3"),
        ("run", "epochs", 0, "epochs must be >= 1"),
        ("pretrain", "hidden", [16], "(19, (64, 32), 4), the config needs (19, (16,), 4)"),
        ("env", "ladder", [300, 750, 1200], "4), the config needs (19, (64, 32), 3)"),
        ("run", "seed", "x", "run.seed must be an integer, got 'x'"),
        ("run", "epochs", True, "run.epochs must be an integer, got True"),
        ("env", "episode_len", 10.5, "env.episode_len must be an integer, got 10.5"),
        ("pretrain", "hidden", [8.5], "pretrain.hidden must be a list of integers, got [8.5]"),
        ("federation", "server_lr", float("inf"),
         "server_lr must be finite and positive, got inf"),
        ("federation", "poll_period_s", float("inf"),
         "poll_period_s must be finite and positive, got inf"),
    ])
    def test_bad_setting(self, workspace, split_file, checkpoint, tmp_path, section, key,
                         value, message):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config.setdefault(section, {})[key] = value
        bad = workspace / "config-setting.yaml"
        bad.write_text(yaml.safe_dump(config))
        for scheme in ("offline_only", "transfer_only", "full_federated"):
            out = tmp_path / f"run-{scheme}"  # one path per case and scheme
            result = CliRunner().invoke(main, [str(a) for a in (
                "run", "--scheme", scheme, "--config", bad, "--split", split_file,
                "--checkpoint", checkpoint, "--out", out)])
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code == 1
            assert result.output.startswith("Error: ") and result.output.count("\n") == 1
            assert message in result.output
            assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("federation", "mix", 2.0, "mix must be in [0, 1], got 2.0"),
        ("run", "epochs", 0, "epochs must be >= 1, got 0"),
        ("run", "frozen_layers", 5, "frozen_layers must be in [0, 2] (hidden layers), got 5"),
        ("federation", "poll_period_s", -1, "poll_period_s must be finite and positive, got -1"),
        ("run", "clients", [{"id": "a", "traces": ["tr0"]}, {"id": "a", "traces": ["tr1"]}],
         "duplicate client ids"),
    ])
    @pytest.mark.parametrize("command", ["split", "pretrain"])
    def test_bad_run_setting_stops_every_command(self, workspace, split_file, tmp_path,
                                                 command, section, key, value, message):
        """A run or federation value that `run` would reject stops `split` and `pretrain`
        too, before they read a trace or write a file."""
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config.setdefault(section, {})[key] = value
        bad = workspace / "config-run-setting.yaml"
        bad.write_text(yaml.safe_dump(config))
        out = tmp_path / "out"
        args = {"split": [], "pretrain": ["--split", split_file]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", bad, *args, "--out", out)])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output == f"Error: invalid SchemeConfig: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("env", "ladder", ["300", "750"],
         "env.ladder must be a list of numbers, got ['300', '750']"),
        ("env", "w_stall", True, "env.w_stall must be a number, got True"),
        ("federation", "mix", True, "federation.mix must be a number, got True"),
        ("federation", "server_lr", True, "federation.server_lr must be a number, got True"),
        # An int too large for a float, in a scalar, a tuple and an optional float key.
        pytest.param("env", "w_stall", 10**400, f"env.w_stall must be a number, got {10**400}",
                     id="env-w_stall-401-digits"),
        pytest.param("env", "ladder", [300, 10**400],
                     f"env.ladder must be a list of numbers, got [300, {10**400}]",
                     id="env-ladder-401-digits"),
        pytest.param("hyper", "lr", 10**400, f"hyper.lr must be a number, got {10**400}",
                     id="hyper-lr-401-digits"),
        pytest.param("federation", "server_lr", 10**400,
                     f"federation.server_lr must be a number, got {10**400}",
                     id="federation-server_lr-401-digits"),
    ])
    def test_float_setting_that_is_no_number(self, workspace, split_file, checkpoint,
                                             monkeypatch, section, key, value, message):
        self.assert_rejected_before_training(workspace, split_file, checkpoint, monkeypatch,
                                             {section: {key: value}}, message)

    @pytest.mark.parametrize("key, value, message", [
        ("w_stall", float("nan"), "w_stall must be finite, got nan"),
        ("w_switch", float("-inf"), "w_switch must be finite, got -inf"),
        ("step_s", float("nan"), "step_s must be finite and positive, got nan"),
        ("base_rtt_ms", float("nan"), "base_rtt_ms must be finite and positive, got nan"),
        ("ladder", [300, float("nan")], "ladder must be 2 or more finite positive rates, "
                                        "strictly ascending, got (300, nan)"),
        ("deadline_ms", float("inf"),
         "deadline_ms must be finite and above base_rtt_ms (50.0), got inf"),
    ])
    def test_non_finite_env_setting(self, workspace, split_file, checkpoint, monkeypatch,
                                    key, value, message):
        self.assert_rejected_before_training(workspace, split_file, checkpoint, monkeypatch,
                                             {"env": {key: value}},
                                             f"invalid EnvConfig: {message}")

    @staticmethod
    def assert_rejected_before_training(workspace, split_file, checkpoint, monkeypatch, edit,
                                        message):
        """`pretrain` and `run` on the config with `edit` each print the one line
        `Error: {message}`, exit 1, start no rollout and write nothing."""
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        for section, values in edit.items():
            config.setdefault(section, {}).update(values)
        bad = workspace / "config-float.yaml"
        bad.write_text(yaml.safe_dump(config))
        started = []
        monkeypatch.setattr("fedabr.pretrain.collect_rollout", lambda *args: started.append(args))
        out = workspace / "float-setting"
        for command in (["pretrain"], ["run", "--scheme", "full_federated", "--checkpoint",
                                       checkpoint]):
            result = CliRunner().invoke(main, [str(a) for a in (
                *command, "--config", bad, "--split", split_file, "--out", out)])
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code == 1
            assert result.output == f"Error: {message}\n"
            assert started == [] and not out.exists()

    def test_checkpoint_with_other_activation(self, workspace, split_file, checkpoint):
        with np.load(checkpoint) as data:
            arrays = dict(data)
        arrays["activations"] = np.array(["relu", "identity"])
        bad = workspace / "ckpt-identity.npz"
        np.savez(bad, **arrays)
        result = CliRunner().invoke(main, [str(a) for a in (
            "run", "--scheme", "transfer_only", "--config", workspace / "config.yaml",
            "--split", split_file, "--checkpoint", bad, "--out", workspace / "run-identity")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == ("Error: checkpoint activations ['relu', 'identity']: "
                                 "every hidden layer must be relu\n")
        assert not (workspace / "run-identity").exists()

    @pytest.mark.parametrize("case", ["text", "empty", "missing-array", "unchained",
                                      "heads-apart", "wide-value-head", "nan-bias",
                                      "inf-weight", "string-weight", "complex-bias"])
    def test_unreadable_checkpoint(self, workspace, split_file, checkpoint, case):
        bad = workspace / f"ckpt-{case}.npz"
        # The default architecture: w0 (64, 19), w1 (32, 64), policy head w2 (4, 32),
        # value head w3 (1, 32).
        edits = {"missing-array": ({}, f"checkpoint {bad} has no array 'w1'"),
                 "unchained": ({"w1": np.zeros((32, 10))},
                               "layer 1 takes 10 inputs, but layer 0 has 64 outputs"),
                 "heads-apart": ({"w3": np.zeros((1, 4))},
                                 "layer 3 takes 4 inputs, but layer 1 has 32 outputs"),
                 "wide-value-head": ({"w3": np.zeros((2, 32)), "b3": np.zeros(2)},
                                     "layer 3, the value head, has 2 outputs, not 1"),
                 "nan-bias": ({"b2": np.array([0.0, np.nan, 0.0, 0.0])},
                              f"checkpoint {bad} has a non-finite value in b2"),
                 "inf-weight": ({"w0": np.full((64, 19), -np.inf)},
                                f"checkpoint {bad} has a non-finite value in w0"),
                 "string-weight": ({"w0": np.full((64, 19), "a")},
                                   f"checkpoint {bad}: w0 holds <U1 values, not floats"),
                 "complex-bias": ({"b1": np.zeros(32, dtype=complex)},
                                  f"checkpoint {bad}: b1 holds complex128 values, not floats")}
        if case in edits:
            with np.load(checkpoint) as data:
                arrays = dict(data)
            if case == "missing-array":
                del arrays["w1"]
            arrays.update(edits[case][0])
            np.savez(bad, **arrays)
            message = f"Error: {edits[case][1]}\n"
        else:
            bad.write_text("epoch,mean_reward\n1,0.5\n" if case == "text" else "")
            message = f"Error: cannot read checkpoint {bad}: "
        result = CliRunner().invoke(main, [str(a) for a in (
            "run", "--scheme", "transfer_only", "--config", workspace / "config.yaml",
            "--split", split_file, "--checkpoint", bad, "--out", workspace / "run-unreadable")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith(message) and result.output.count("\n") == 1
        assert not (workspace / "run-unreadable").exists()

    @pytest.mark.parametrize("value", ["5", "null"])
    def test_non_string_manifest_path(self, workspace, value):
        corpus = workspace / f"corpus-path-{value}"
        shutil.copytree(workspace / "corpus", corpus)
        manifest = corpus / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("path: tr3.csv", f"path: {value}"))
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["corpus"]["manifest"] = str(manifest)
        bad = workspace / f"config-path-{value}.yaml"
        bad.write_text(yaml.safe_dump(config))
        result = CliRunner().invoke(main, ["split", "--config", str(bad),
                                           "--out", str(workspace / "split-path.json")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: {manifest}: record 'tr3': path must be a string, "
                                 f"got {yaml.safe_load(value)!r}\n")
        assert not (workspace / "split-path.json").exists()

    @pytest.mark.parametrize("what, data", [
        ("config", b"corpus: {manifest: x\n"), ("config", b"corpus: {manifest: \xff}\n"),
        ("manifest", b"- {id: a\n"), ("manifest", b"- {id: a\xff}\n"),
        *(pytest.param(what, data, id=f"{what}-5000-digit-int", marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"))
          for what, data in (("config", b"env: {w_stall: " + b"1" * 5000 + b"}\n"),
                             ("manifest", b"- {id: a, csv: " + b"1" * 5000 + b"}\n")))])
    @pytest.mark.parametrize("command", ["split", "pretrain", "run"])
    def test_unparsable_yaml(self, workspace, split_file, checkpoint, what, data, command):
        name = f"yaml-{command}-{what}-{len(data)}"
        config, corpus = corpus_copy(workspace, name, {})
        bad = config if what == "config" else corpus / "manifest.yaml"
        bad.write_bytes(data)
        out = workspace / f"out-{name}"
        args = {"split": [], "pretrain": ["--split", split_file],
                "run": ["--scheme", "transfer_only", "--split", split_file,
                        "--checkpoint", checkpoint]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", config, *args, "--out", out)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: cannot parse {what} {bad}: ")
        assert result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        ("pretrain", "too short: episode needs 60.0s, trace ends at 40.0s"),
        ("run", "trace id 'tr0' for client 'client-0': trace 'tr0' too short: episode needs "
                "60.0s, trace ends at 40.0s")])
    def test_episode_longer_than_traces(self, workspace, split_file, checkpoint, command,
                                        message, monkeypatch):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["env"]["episode_len"] = 60
        bad = workspace / "config-long-episode.yaml"
        bad.write_text(yaml.safe_dump(config))
        started = []
        monkeypatch.setattr("fedabr.schemes._train_rounds", lambda *args: started.append(args))
        out = workspace / f"out-long-episode-{command}"
        args = [] if command == "pretrain" else ["--scheme", "transfer_only",
                                                 "--checkpoint", checkpoint]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", bad, "--split", split_file, *args, "--out", out)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert message in result.output
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("command, out, message", [
        ("split", "adir", "Is a directory: '{adir}'"),
        ("split", "afile/split.json", "File exists: '{afile}'"),
        ("pretrain", "adir", "cannot write the checkpoint {adir}: it is a directory"),
        ("pretrain", "afile/ckpt.npz", "File exists: '{afile}'"),
        ("run", "afile/run", "File exists: '{afile}'"),
        ("run", "afile", "cannot write a run into {afile}: it is a file"),
    ])
    def test_bad_out_path(self, workspace, split_file, checkpoint, tmp_path, monkeypatch,
                          command, out, message):
        """An `--out` that is a directory where a file goes, or that lies under a file,
        names the path in one line, before any training."""
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("in the way\n")
        started = []
        monkeypatch.setattr("fedabr.cli.offline_train", lambda *args: started.append(args))
        monkeypatch.setattr("fedabr.schemes._train_rounds", lambda *args: started.append(args))
        args = {"split": [], "pretrain": ["--split", split_file],
                "run": ["--scheme", "transfer_only", "--split", split_file,
                        "--checkpoint", checkpoint]}[command]
        result = CliRunner().invoke(main, [str(a) for a in (
            command, "--config", workspace / "config.yaml", *args, "--out", tmp_path / out)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and result.output.count("\n") == 1
        assert message.format(adir=tmp_path / "adir", afile=tmp_path / "afile") in result.output
        assert started == [] and sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert list((tmp_path / "adir").iterdir()) == []

    def test_reward_log_path_is_a_directory(self, workspace, split_file, tmp_path, monkeypatch):
        """`pretrain` checks the reward log's path, next to the checkpoint, before training:
        it leaves no checkpoint without its reward log."""
        log = tmp_path / "ck2.rewards.csv"
        log.mkdir()
        started, train = [], cli.offline_train
        monkeypatch.setattr("fedabr.cli.offline_train",
                            lambda *args: started.append(args) or train(*args))
        result = CliRunner().invoke(main, [str(a) for a in (
            "pretrain", "--config", workspace / "config.yaml", "--split", split_file,
            "--out", tmp_path / "ck2.npz")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == f"Error: cannot write the reward log {log}: it is a directory\n"
        assert started == [] and [p.name for p in tmp_path.iterdir()] == [log.name]

    def test_scheme_error(self, workspace, split_file, checkpoint):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["run"]["clients"] = [{"id": "c0", "traces": ["no-such-trace"]}]
        bad = workspace / "config-clients.yaml"
        bad.write_text(yaml.safe_dump(config))
        result = CliRunner().invoke(main, [str(a) for a in (
            "run", "--scheme", "transfer_only", "--config", bad, "--split", split_file,
            "--checkpoint", checkpoint, "--out", workspace / "run-clients")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == "Error: unknown trace id 'no-such-trace' for client 'c0'\n"
        assert not (workspace / "run-clients").exists()

    @pytest.mark.parametrize("case", ["empty-split", "client-on-a-test-trace"])
    def test_bad_test_set(self, workspace, split_file, checkpoint, tmp_path, monkeypatch, case):
        """A split without test traces, or a `run.clients` record that trains on a test
        trace, stops `run` with one line, before training and without a run directory."""
        data = json.loads(split_file.read_text())
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["corpus"]["manifest"] = str(workspace / "corpus" / "manifest.yaml")
        if case == "empty-split":
            data["test"] = []
            message = "test_trace_ids must be non-empty, got ()"
        else:
            test_id = data["test"][0]
            config["run"]["clients"] = [{"id": "c0", "traces": data["finetune"]},
                                        {"id": "c1", "traces": [test_id]}]
            message = f"test_trace_ids: trace {test_id!r} is trained on by client 'c1'"
        (tmp_path / "split.json").write_text(json.dumps(data))
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(config))
        started = []
        monkeypatch.setattr("fedabr.schemes._train_rounds", lambda *args: started.append(args))
        monkeypatch.setattr("fedabr.schemes._run_offline_only",
                            lambda *args: started.append(args))
        for scheme in ("offline_only", "transfer_only", "full_federated"):
            out = workspace / f"run-bad-test-set-{case}-{scheme}"
            result = CliRunner().invoke(main, [str(a) for a in (
                "run", "--scheme", scheme, "--config", tmp_path / "config.yaml",
                "--split", tmp_path / "split.json", "--checkpoint", checkpoint, "--out", out)])
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code == 1
            assert result.output == f"Error: {message}\n"
            assert started == [] and not out.exists()


class TestReport:
    def test_report_outputs(self, workspace, split_file, checkpoint):
        dirs = []
        for scheme in ("offline_only", "online_scratch", "transfer_only"):
            d = workspace / f"run-{scheme}"
            if not d.exists():
                invoke("run", "--scheme", scheme, "--config", workspace / "config.yaml",
                       "--split", split_file, "--checkpoint", checkpoint, "--out", d)
            dirs.append(d)
        out = workspace / "report"
        result = invoke("report", "--out", out, "--anchor", "offline_only",
                        "--window", 4, "--epsilon", 0.1, "--sustain", 3, *dirs)
        assert result.exit_code == 0
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[0] == "scheme,convergence_epoch,sim_time_s"
        assert len(conv) == 4
        qoe = (out / "qoe.csv").read_text().splitlines()
        anchor_row = next(r for r in qoe[1:] if r.startswith("offline_only,"))
        assert anchor_row.split(",")[1] == "1.0"
        assert (out / "efficiency.csv").exists()

    @pytest.mark.parametrize("case", ["empty", "no-qoe", "bad-meta", "bad-rewards",
                                      "short-rewards", "short-qoe"])
    def test_not_a_finished_run(self, workspace, split_file, checkpoint, case):
        d = workspace / f"report-in-{case}"
        if case == "empty":
            d.mkdir()
        else:
            run = workspace / "run-report-source"
            if not run.exists():
                invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                       "--split", split_file, "--checkpoint", checkpoint, "--out", run)
            shutil.copytree(run, d)
        message = {
            "empty": "cannot read run_meta.json: [Errno 2] No such file or directory",
            "no-qoe": "cannot read qoe.csv: [Errno 2] No such file or directory",
            "bad-meta": "cannot read run_meta.json: Expecting value",
            "bad-rewards": "cannot read rewards.csv: could not convert string to float",
            "short-rewards": "cannot read rewards.csv: could not convert string to float: ''",
            "short-qoe": "cannot read qoe.csv: could not convert string to float: ''",
        }[case]
        if case == "no-qoe":
            (d / "qoe.csv").unlink()
        elif case == "bad-meta":
            (d / "run_meta.json").write_text("")
        elif case == "bad-rewards":
            (d / "rewards.csv").write_text("epoch,mean_reward\n1,x\n")
        elif case == "short-rewards":  # its second row lacks the mean_reward field
            (d / "rewards.csv").write_text("epoch,mean_reward\n1,0.5\n2\n")
        elif case == "short-qoe":  # its first row ends after its first QoE field
            header, first, *rest = (d / "qoe.csv").read_text().splitlines()
            short = ",".join(first.split(",")[:2])
            (d / "qoe.csv").write_text("\n".join([header, short, *rest]) + "\n")
        out = workspace / f"report-{case}"
        result = CliRunner().invoke(main, ["report", "--out", str(out), str(d)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: run directory {d}: {message}")
        assert result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["epochs-zero", "not-a-mapping", "no-sim-time",
                                      "scheme-number", "epochs-string", "no-reward-rows"])
    def test_bad_run_meta(self, workspace, split_file, checkpoint, case):
        run = workspace / "run-report-source"
        if not run.exists():
            invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                   "--split", split_file, "--checkpoint", checkpoint, "--out", run)
        d = workspace / f"report-in-{case}"
        shutil.copytree(run, d)
        meta = json.loads((d / "run_meta.json").read_text())
        epochs_rule = "'epochs' must be an integer >= 1 equal to the {} rows of rewards.csv"
        if case == "epochs-zero":
            meta["epochs"] = 0
            message = "run_meta.json: " + epochs_rule.format(14) + ", got 0"
        elif case == "not-a-mapping":
            meta = []
            message = "run_meta.json is not a mapping"
        elif case == "no-sim-time":
            del meta["sim_time_s"]
            message = "run_meta.json: 'sim_time_s' must be a finite number > 0, got None"
        elif case == "scheme-number":
            meta["scheme"] = 5
            message = "run_meta.json: 'scheme' must be a non-empty string, got 5"
        elif case == "epochs-string":
            meta["epochs"] = "1"
            message = "run_meta.json: " + epochs_rule.format(14) + ", got '1'"
        else:
            (d / "rewards.csv").write_text("epoch,mean_reward\n")
            message = "run_meta.json: " + epochs_rule.format(0) + ", got 14"
        (d / "run_meta.json").write_text(json.dumps(meta))
        out = workspace / f"report-{case}"
        result = CliRunner().invoke(main, ["report", "--out", str(out), str(d)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == f"Error: run directory {d}: {message}\n"
        assert not out.exists()

    def test_run_without_test_traces(self, tmp_path):
        """`run` refuses an empty test set (`TestInputErrors`), so a run directory without
        test trace rows is one written by hand."""
        run = tmp_path / "run-no-test"
        hand_written_run(run, "offline_only", qoe=())
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path / "report"), str(run)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: run directory {run}: qoe.csv has no test trace "
                                 "rows\n")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("case", ["window-zero", "sustain-zero", "epsilon-one",
                                      "duplicate-label"])
    def test_bad_rule_or_labels(self, workspace, split_file, checkpoint, case):
        run = workspace / "run-report-source"
        if not run.exists():
            invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                   "--split", split_file, "--checkpoint", checkpoint, "--out", run)
        dirs, options = [run], []
        if case == "duplicate-label":
            # offline_only, offline_only:offline_only, then offline_only:offline_only again
            dirs = [workspace / f"labels-{c}" / "offline_only" for c in "acd"]
            for d in dirs:
                if not d.exists():
                    shutil.copytree(run, d)
            message = (f"run directories {dirs[1]} and {dirs[2]} both get the label "
                       "'offline_only:offline_only': give runs of one scheme different "
                       "directory names")
        else:
            option, value = {"window-zero": ("--window", 0), "sustain-zero": ("--sustain", 0),
                             "epsilon-one": ("--epsilon", 1)}[case]
            options = [option, str(value)]
            message = ("epsilon must be in (0, 1)" if case == "epsilon-one"
                       else "window and sustain must be >= 1")
        out = workspace / f"report-{case}"
        result = CliRunner().invoke(main, ["report", "--out", str(out), *options,
                                           *map(str, dirs)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["rewards.csv", "qoe.csv"])
    def test_value_that_is_not_finite(self, tmp_path, name, value):
        d = tmp_path / "run"
        if name == "rewards.csv":  # the third epoch, on line 4
            hand_written_run(d, "offline_only", rewards=["0.5", "0.25", value])
            where = f"line 4: mean_reward '{value}'"
        else:  # the second test trace's stall rate, on line 3
            hand_written_run(d, "offline_only", qoe=["1000.0,0.0,80.0", f"900.0,{value},70.0"])
            where = f"line 3: stall_rate '{value}'"
        out = tmp_path / "report"
        result = CliRunner().invoke(main, ["report", "--out", str(out), str(d)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: run directory {d}: cannot read {name}: {where} "
                                 "is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("anchor, other, want", [
        ("1000.0,0.0,80.0", "1500.0,0.25,60.0",
         ["offline_only,1.0,0.0,1.0,stall_rate=abs_diff",
          "online_scratch,1.5,0.25,0.75,stall_rate=abs_diff"]),
        ("0.0,0.1,0.0", "500.0,0.2,40.0",
         ["offline_only,0.0,1.0,0.0,mean_bitrate_kbps=abs_diff;mean_delay_ms=abs_diff",
          "online_scratch,500.0,2.0,40.0,mean_bitrate_kbps=abs_diff;mean_delay_ms=abs_diff"]),
        ("1000.0,0.5,80.0", "500.0,0.25,40.0",
         ["offline_only,1.0,1.0,1.0,", "online_scratch,0.5,0.5,0.5,"])])
    def test_flags(self, tmp_path, anchor, other, want):
        """A metric whose anchor value is zero is reported as a difference, and `flags`
        names every such metric, in the `qoe.csv` column order."""
        dirs = [tmp_path / "a", tmp_path / "b"]
        hand_written_run(dirs[0], "offline_only", qoe=[anchor])
        hand_written_run(dirs[1], "online_scratch", qoe=[other])
        assert invoke("report", "--out", tmp_path / "report", *dirs).exit_code == 0
        assert (tmp_path / "report" / "qoe.csv").read_bytes() == "".join(
            line + "\n" for line in ["scheme,mean_bitrate_kbps,stall_rate,mean_delay_ms,flags",
                                     *want]).encode()

    def test_rule_defaults_are_the_convergence_rule(self):
        defaults = {p.name: p.default for p in main.commands["report"].params}
        assert ([defaults[k] for k in ("window", "epsilon", "sustain")]
                == [ConvergenceRule().window, ConvergenceRule().epsilon, ConvergenceRule().sustain])

    def test_bad_anchor_fails(self, workspace, split_file, checkpoint):
        d = workspace / "run-report-source"
        if not d.exists():
            invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                   "--split", split_file, "--checkpoint", checkpoint, "--out", d)
        out = workspace / "report-bad"
        result = CliRunner().invoke(main, ["report", "--out", str(out),
                                           "--anchor", "nonexistent", str(d)])
        assert result.exit_code == 1
        assert result.output == "Error: anchor scheme 'nonexistent' not among runs\n"
        assert not out.exists()


def hand_written_run(d, scheme, rewards=("0.5",), qoe=("1000.0,0.1,80.0",)):
    """A finished run directory written by hand: `rewards` are the epochs' mean rewards,
    each entry of `qoe` a test trace's bitrate, stall rate and delay."""
    d.mkdir(parents=True)
    (d / "run_meta.json").write_text(json.dumps({"scheme": scheme, "epochs": len(rewards),
                                                 "sim_time_s": 1.0}))
    (d / "rewards.csv").write_text("epoch,mean_reward\n" + "".join(
        f"{i},{r}\n" for i, r in enumerate(rewards, start=1)))
    (d / "qoe.csv").write_text("trace_id,mean_bitrate_kbps,stall_rate,mean_delay_ms,mean_reward\n"
                               + "".join(f"t{i},{row},0.0\n" for i, row in enumerate(qoe)))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestQuotedFields:
    """A trace id or a run label that holds a comma or a double quote reads back whole."""

    def test_trace_ids_that_need_quotes(self, workspace, split_file, checkpoint, monkeypatch):
        root = workspace / "odd-ids"
        fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                          duration_s=40)
        ids = [f"tr{i}" for i in range(8)] + ["1,2", 'q"x']  # tr0-tr7 as in the workspace
        write_manifest([synthesize_trace(fam, tid, NetworkType.FOUR_G, TransportMode.CAR, seed=i)
                        for i, tid in enumerate(ids)], root / "corpus")
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["corpus"]["manifest"] = str(root / "corpus" / "manifest.yaml")
        (root / "config.yaml").write_text(yaml.safe_dump(config))
        split = {**json.loads(split_file.read_text()), "test": ["1,2", 'q"x']}
        (root / "split.json").write_text(json.dumps(split))
        returned = {}

        def recording_run_scheme(sc, *args):
            returned[sc.scheme.value] = metrics = run_scheme(sc, *args)
            return metrics
        monkeypatch.setattr(cli, "run_scheme", recording_run_scheme)
        dirs = [root / scheme for scheme in ("offline_only", "transfer_only")]
        for d in dirs:
            assert invoke("run", "--scheme", d.name, "--config", root / "config.yaml", "--split",
                          root / "split.json", "--checkpoint", checkpoint, "--out", d
                          ).exit_code == 0
            assert {row["trace_id"]: QoESummary(*(float(row[m]) for m in QOE_METRICS))
                    for row in read_csv(d / "qoe.csv")} == returned[d.name].qoe_per_trace
        assert invoke("report", "--out", root / "report", *dirs).exit_code == 0
        # Over two test traces the report's mean of the qoe.csv rows is run_scheme's own,
        # (a + b) / 2.
        want = qoe_report({s: m.qoe for s, m in returned.items()}, "offline_only")
        assert ([[row["scheme"], *(float(row[m]) for m in QOE_METRICS)]
                 for row in read_csv(root / "report" / "qoe.csv")]
                == [[row["scheme"], *(row[m] for m in QOE_METRICS)] for row in want])

    def test_label_that_needs_quotes(self, workspace, split_file, checkpoint):
        run = workspace / "run-report-source"
        if not run.exists():
            invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                   "--split", split_file, "--checkpoint", checkpoint, "--out", run)
        dirs = [workspace / "label-quotes" / name for name in ("c", "a,b")]
        for d in dirs:
            shutil.copytree(run, d)
        out = workspace / "label-quotes" / "report"
        assert invoke("report", "--out", out, "--window", 4, "--epsilon", 0.1, "--sustain", 3,
                      *dirs).exit_code == 0
        labels = ["offline_only", "offline_only:a,b"]
        assert [row["scheme"] for row in read_csv(out / "convergence.csv")] == labels
        assert [row["scheme"] for row in read_csv(out / "qoe.csv")] == labels
        assert [[row["base"], row["new"]] for row in read_csv(out / "efficiency.csv")] == [
            labels, labels[::-1]]

class TestBuiltinSum:
    """Python 3.12's builtin `sum` compensates float sums; no output may depend on it."""

    def test_run_and_report_outputs(self, workspace, split_file, checkpoint):
        outputs = []
        for side in ("plain", "compensated"):
            with compensated_sum() if side == "compensated" else nullcontext():
                dirs = [workspace / f"sum-{side}" / scheme for scheme in
                        ("offline_only", "online_scratch", "transfer_only", "full_federated")]
                for d in dirs:
                    invoke("run", "--scheme", d.name, "--config", workspace / "config.yaml",
                           "--split", split_file, "--checkpoint", checkpoint, "--out", d)
                report = workspace / f"sum-{side}" / "report"
                invoke("report", "--out", report, *dirs)
            outputs.append([(d / name).read_bytes() for d in dirs
                            for name in ("rewards.csv", "qoe.csv")]
                           + [(report / "qoe.csv").read_bytes()])
        assert outputs[0] == outputs[1]

    def test_report_qoe_mean(self, workspace, split_file, checkpoint):
        """Three test traces whose QoE values a compensated sum adds differently."""
        run = workspace / "run-report-source"
        if not run.exists():
            invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                   "--split", split_file, "--checkpoint", checkpoint, "--out", run)
        dirs = [workspace / "sum-qoe" / name for name in ("offline_only", "transfer_only")]
        # Columns: bitrate, stall rate, delay. In index order 0.1 + 0.2 + 0.3 is
        # 0.6000000000000001, three -0.0 add to 0.0 and 1e16 + 1.0 - 1e16 to 0.0.
        for d, rows in zip(dirs, (["1.0,1.0,1.0"] * 3, ["0.1,-0.0,1e16", "0.2,-0.0,1.0",
                                                        "0.3,-0.0,-1e16"])):
            shutil.copytree(run, d)
            meta = json.loads((d / "run_meta.json").read_text())
            (d / "run_meta.json").write_text(json.dumps({**meta, "scheme": d.name}))
            (d / "qoe.csv").write_text("trace_id,mean_bitrate_kbps,stall_rate,mean_delay_ms,"
                                       "mean_reward\n"
                                       + "".join(f"t{i},{r},0.0\n" for i, r in enumerate(rows)))
        reports = []
        for side in ("plain", "compensated"):
            with compensated_sum() if side == "compensated" else nullcontext():
                invoke("report", "--out", workspace / f"sum-qoe-{side}", *dirs)
            reports.append((workspace / f"sum-qoe-{side}" / "qoe.csv").read_text())
        assert reports[0] == reports[1]
        assert reports[0].splitlines()[2] == "transfer_only,0.20000000000000004,0.0,0.0,"


def corpus_copy(workspace, name, edits):
    """A config whose manifest is a copy of the workspace corpus, with the
    CSVs named in `edits` replaced by the given bytes."""
    corpus = workspace / f"corpus-{name}"
    shutil.copytree(workspace / "corpus", corpus)
    for tid, data in edits.items():
        (corpus / f"{tid}.csv").write_bytes(data)
    config = yaml.safe_load((workspace / "config.yaml").read_text())
    config["corpus"]["manifest"] = str(corpus / "manifest.yaml")
    path = workspace / f"config-{name}.yaml"
    path.write_text(yaml.safe_dump(config))
    return path, corpus


class TestTraceReads:
    """Each command parses only the trace CSVs it uses, and a trace CSV error
    names the manifest, the record and the file."""

    def test_split_parses_every_trace(self, workspace, parsed_ids):
        result = invoke("split", "--config", workspace / "config.yaml",
                        "--out", workspace / "split-count.json")
        assert result.exit_code == 0
        assert sorted(parsed_ids) == [f"tr{i}" for i in range(8)]

    def test_pretrain_parses_pretrain_traces(self, workspace, split_file, parsed_ids):
        result = invoke("pretrain", "--config", workspace / "config.yaml", "--split", split_file,
                        "--out", workspace / "ckpt-count.npz")
        assert result.exit_code == 0
        assert sorted(parsed_ids) == sorted(json.loads(split_file.read_text())["pretrain"])

    @pytest.mark.parametrize("scheme", ["offline_only", "full_federated"])
    def test_run_parses_client_and_test_traces(self, workspace, split_file, checkpoint,
                                               parsed_ids, scheme):
        result = invoke("run", "--scheme", scheme, "--config", workspace / "config.yaml",
                        "--split", split_file, "--checkpoint", checkpoint,
                        "--out", workspace / f"run-count-{scheme}")
        assert result.exit_code == 0
        split = json.loads(split_file.read_text())
        assert sorted(parsed_ids) == sorted(split["finetune"] + split["test"])

    def test_run_parses_configured_clients_traces(self, workspace, split_file, checkpoint,
                                                  parsed_ids):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config["run"]["clients"] = [{"id": "a", "traces": ["tr0", "tr1"]},
                                    {"id": "b", "traces": ["tr1"]}]
        path = workspace / "config-clients-count.yaml"
        path.write_text(yaml.safe_dump(config))
        result = invoke("run", "--scheme", "transfer_only", "--config", path,
                        "--split", split_file, "--checkpoint", checkpoint,
                        "--out", workspace / "run-count-clients")
        assert result.exit_code == 0
        test = json.loads(split_file.read_text())["test"]
        assert sorted(parsed_ids) == sorted({"tr0", "tr1", *test})

    def test_split_error_names_file(self, workspace):
        config, corpus = corpus_copy(workspace, "bad-row", {"tr5": b"0,1000\n1,abc\n"})
        out = workspace / "split-bad-row.json"
        result = CliRunner().invoke(main, ["split", "--config", str(config), "--out", str(out)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: {corpus / 'manifest.yaml'}: record 'tr5': "
                                 f"{corpus / 'tr5.csv'}: line 2: could not convert string "
                                 "to float: 'abc'\n")
        assert not out.exists()

    def test_split_rejects_non_utf8_csv(self, workspace):
        config, corpus = corpus_copy(workspace, "utf16", {"tr2": b"\xff\xfe0\x00,\x001\x00"})
        result = CliRunner().invoke(main, ["split", "--config", str(config),
                                           "--out", str(workspace / "split-utf16.json")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {corpus / 'manifest.yaml'}: record 'tr2': "
                                        f"{corpus / 'tr2.csv'}: 'utf-8' codec can't decode")
        assert result.output.count("\n") == 1

    def test_bad_test_trace_fails_before_training(self, workspace, split_file, checkpoint,
                                                  monkeypatch):
        test_id = json.loads(split_file.read_text())["test"][0]
        config, corpus = corpus_copy(workspace, "bad-test", {test_id: b"0,1000\n"})
        started = []
        monkeypatch.setattr("fedabr.pretrain.collect_rollout", lambda *args: started.append(args))
        out = workspace / "run-bad-test"
        result = CliRunner().invoke(main, [str(a) for a in (
            "run", "--scheme", "transfer_only", "--config", config, "--split", split_file,
            "--checkpoint", checkpoint, "--out", out)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: {corpus / 'manifest.yaml'}: record {test_id!r}: "
                                 f"{corpus / f'{test_id}.csv'}: trace {test_id!r}: "
                                 "needs at least 2 samples\n")
        assert started == [] and not out.exists()
