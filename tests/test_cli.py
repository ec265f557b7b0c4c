import json
import re
import shutil
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fedabr.cli import main
from fedabr.traces import NetworkType, SynthFamily, TransportMode, synthesize_trace, write_manifest


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
        ("federation", "server_lr", 0.0, "server_lr must be positive, got 0.0"),
        ("federation", "server_lr", -1.0, "server_lr must be positive, got -1.0"),
        ("federation", "poll_period_s", 0.0, "poll_period_s must be positive, got 0.0"),
        ("run", "frozen_layers", 3, "frozen_layers must be in [0, 2] (hidden layers), got 3"),
        ("run", "epochs", 0, "epochs must be >= 1"),
        ("pretrain", "hidden", [16], "(19, (64, 32), 4), the config needs (19, (16,), 4)"),
        ("env", "ladder", [300, 750, 1200], "4), the config needs (19, (64, 32), 3)"),
        ("run", "seed", "x", "run.seed must be an integer, got 'x'"),
        ("run", "epochs", True, "run.epochs must be an integer, got True"),
        ("env", "episode_len", 10.5, "env.episode_len must be an integer, got 10.5"),
        ("pretrain", "hidden", [8.5], "pretrain.hidden must be a list of integers, got [8.5]"),
    ])
    def test_bad_setting(self, workspace, split_file, checkpoint, section, key, value,
                         message):
        config = yaml.safe_load((workspace / "config.yaml").read_text())
        config.setdefault(section, {})[key] = value
        bad = workspace / "config-setting.yaml"
        bad.write_text(yaml.safe_dump(config))
        for scheme in ("offline_only", "transfer_only"):
            result = CliRunner().invoke(main, [str(a) for a in (
                "run", "--scheme", scheme, "--config", bad, "--split", split_file,
                "--checkpoint", checkpoint, "--out", workspace / "run-setting")])
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code == 1
            assert result.output.startswith("Error: ") and result.output.count("\n") == 1
            assert message in result.output
            assert not (workspace / "run-setting").exists()

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
                                      "heads-apart", "wide-value-head"])
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
                                     "layer 3, the value head, has 2 outputs, not 1")}
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

    @pytest.mark.parametrize("case", ["empty", "no-qoe", "bad-meta", "bad-rewards"])
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
        }[case]
        if case == "no-qoe":
            (d / "qoe.csv").unlink()
        elif case == "bad-meta":
            (d / "run_meta.json").write_text("")
        elif case == "bad-rewards":
            (d / "rewards.csv").write_text("epoch,mean_reward\n1,x\n")
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

    def test_run_without_test_traces(self, workspace, split_file, checkpoint):
        data = json.loads(split_file.read_text())
        data["test"] = []
        no_test = workspace / "split-no-test.json"
        no_test.write_text(json.dumps(data))
        run = workspace / "run-no-test"
        result = invoke("run", "--scheme", "offline_only", "--config", workspace / "config.yaml",
                        "--split", no_test, "--checkpoint", checkpoint, "--out", run)
        assert result.exit_code == 0
        result = CliRunner().invoke(main, ["report", "--out", str(workspace / "report-no-test"),
                                           str(run)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == (f"Error: run directory {run}: qoe.csv has no test trace "
                                 "rows\n")

    def test_bad_anchor_fails(self, workspace, split_file, checkpoint):
        d = workspace / "run-transfer_only"
        out = workspace / "report-bad"
        result = CliRunner().invoke(main, ["report", "--out", str(out),
                                           "--anchor", "nonexistent", str(d)])
        assert result.exit_code != 0
