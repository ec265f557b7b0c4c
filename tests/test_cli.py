import json
import warnings

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
        for args in (["pretrain", "--out", workspace / "ckpt-diverge.npz"],
                     ["run", "--scheme", "transfer_only", "--checkpoint", checkpoint,
                      "--out", workspace / "run-diverge"]):
            # Record every warning, so that none is hidden by an earlier test's.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = CliRunner().invoke(main, [str(a) for a in (
                    args[0], "--config", bad, "--split", split_file, *args[1:])])
            assert result.exit_code == 1
            assert "non-finite" in result.output
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
        assert result.exit_code != 0


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

    def test_bad_anchor_fails(self, workspace, split_file, checkpoint):
        d = workspace / "run-transfer_only"
        out = workspace / "report-bad"
        result = CliRunner().invoke(main, ["report", "--out", str(out),
                                           "--anchor", "nonexistent", str(d)])
        assert result.exit_code != 0
