import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedabr import schemes
from fedabr.discriminator import ClientCondition
from fedabr.env import EnvConfig, StreamEnv, episode_qoe
from fedabr.net import (DivergenceError, TrainHyper, apply_update, a3c_gradients, forward,
                        init_params)
from fedabr.pretrain import PretrainConfig, collect_rollout, offline_train
from fedabr.schemes import (ClientSpec, Scheme, SchemeConfig, SchemeError, evaluate_greedy,
                            run_scheme)
from fedabr.traces import NetworkType, SynthFamily, TransportMode, synthesize_trace
from tests.conftest import params_close

LADDER4 = (300.0, 750.0, 1200.0, 1850.0)
ENV = EnvConfig(ladder=LADDER4, episode_len=32)
HYPER = TrainHyper(lr=1e-3, entropy_coef=0.05, value_coef=0.1, clip_norm=10.0)


def make_corpus():
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                      duration_s=64)
    traces = {}
    for i in range(4):
        tr = synthesize_trace(fam, f"ft{i}", NetworkType.FOUR_G, TransportMode.CAR,
                              seed=100 + i)
        traces[tr.id] = tr
    test = synthesize_trace(fam, "test0", NetworkType.FOUR_G, TransportMode.CAR, seed=999)
    traces[test.id] = test
    return traces


def pretrained_model():
    fam = SynthFamily(mean_kbps=1000, duration_s=64)
    tr = synthesize_trace(fam, "pre", NetworkType.FOUR_G, TransportMode.CAR, seed=0)
    cfg = PretrainConfig(epochs=5, episodes_per_epoch=1, hyper=HYPER, seed=0)
    params, _ = offline_train([tr], cfg, ENV)
    return params


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def pretrained():
    return pretrained_model()


def base_config(scheme, clients, epochs=4, **kwargs):
    return SchemeConfig(scheme=scheme, clients=clients, epochs=epochs,
                        test_trace_ids=("test0",), seed=5, env=ENV, hyper=HYPER, **kwargs)


class TestOfflineOnly:
    def test_model_never_changes(self, corpus, pretrained):
        cfg = base_config(Scheme.OFFLINE_ONLY, (ClientSpec("c0", ("ft0",)),))
        metrics = run_scheme(cfg, corpus, pretrained)
        assert params_close(metrics.final_client_params["c0"], pretrained)
        assert len(metrics.rewards) == 4

    def test_requires_checkpoint(self, corpus):
        cfg = base_config(Scheme.OFFLINE_ONLY, (ClientSpec("c0", ("ft0",)),))
        with pytest.raises(SchemeError):
            run_scheme(cfg, corpus, None)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", [Scheme.ONLINE_SCRATCH, Scheme.TRANSFER_ONLY])
    def test_same_config_same_outputs(self, corpus, pretrained, scheme, tmp_path):
        cfg = base_config(scheme, (ClientSpec("c0", ("ft0", "ft1")),))
        outs = []
        for run in range(2):
            d = tmp_path / f"{scheme.value}-{run}"
            run_scheme(cfg, corpus, pretrained, d)
            outs.append((d / "rewards.csv").read_bytes() + (d / "qoe.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_federated_deterministic(self, corpus, pretrained, tmp_path):
        clients = tuple(ClientSpec(f"c{i}", (f"ft{i}",)) for i in range(3))
        cfg = base_config(Scheme.FULL_FEDERATED, clients)
        outs = []
        for run in range(2):
            d = tmp_path / f"fed-{run}"
            run_scheme(cfg, corpus, pretrained, d)
            outs.append((d / "rewards.csv").read_bytes()
                        + (d / "transcript.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestContainment:
    def test_single_client_federated_is_a_group_of_one(self, corpus, pretrained, tmp_path):
        fed = base_config(Scheme.FULL_FEDERATED, (ClientSpec("c0", ("ft0",)),))
        metrics = run_scheme(fed, corpus, pretrained, tmp_path / "fed")
        assert metrics.scheme is Scheme.FULL_FEDERATED
        events = [json.loads(line)["event"]
                  for line in (tmp_path / "fed" / "transcript.jsonl").read_text().splitlines()]
        rounds = fed.epochs * ENV.episode_len // HYPER.rollout_len
        assert events.count("aggregate") == rounds
        faster = run_scheme(replace(fed, server_lr=4 * HYPER.lr), corpus, pretrained)
        group = corpus["ft0"].group
        assert not params_close(faster.final_group_params[group],
                                metrics.final_group_params[group])

    @pytest.mark.parametrize("scheme", [Scheme.OFFLINE_ONLY, Scheme.TRANSFER_ONLY,
                                        Scheme.FULL_FEDERATED])
    def test_only_federated_runs_write_a_transcript(self, corpus, pretrained, scheme,
                                                    tmp_path):
        cfg = base_config(scheme, (ClientSpec("c0", ("ft0",)),), epochs=1)
        metrics = run_scheme(cfg, corpus, pretrained, tmp_path / "run")
        files = {"checkpoint.npz", "qoe.csv", "rewards.csv", "run_meta.json"}
        if scheme is Scheme.FULL_FEDERATED:
            files.add("transcript.jsonl")
            lines = (tmp_path / "run" / "transcript.jsonl").read_text().splitlines()
            assert [json.loads(line) for line in lines] == metrics.transcript
        assert {f.name for f in (tmp_path / "run").iterdir()} == files


class TestFederatedEquivalence:
    def test_identical_clients_match_centralized(self, corpus, pretrained):
        # Same trace and same per-client seed: the global trajectory must track a
        # single centralized learner.
        clients = tuple(ClientSpec(f"c{i}", ("ft0",), seed=77) for i in range(2))
        cfg = base_config(Scheme.FULL_FEDERATED, clients, epochs=3)
        metrics = run_scheme(cfg, corpus, pretrained)

        from fedabr.env import StreamEnv
        central = pretrained.copy()
        rng = np.random.default_rng(77)
        for _ in range(cfg.epochs):
            env = StreamEnv(corpus["ft0"], ENV)
            state = env.reset()
            while not env.done:
                traj, state = collect_rollout(env, central, state, HYPER.rollout_len, rng)
                grads, _ = a3c_gradients(central, traj, HYPER)
                central = apply_update(central, grads, HYPER.lr, cfg.frozen_layers)
        group = corpus["ft0"].group
        assert params_close(metrics.final_group_params[group], central, tol=1e-12)
        for cid in ("c0", "c1"):
            assert params_close(metrics.final_client_params[cid], central, tol=1e-12)


class TestFreezeInvariance:
    def test_frozen_layer_everywhere(self, corpus, pretrained):
        clients = tuple(ClientSpec(f"c{i}", (f"ft{i}",)) for i in range(3))
        cfg = base_config(Scheme.FULL_FEDERATED, clients, epochs=4)
        metrics = run_scheme(cfg, corpus, pretrained)
        for params in list(metrics.final_client_params.values()) + \
                list(metrics.final_group_params.values()):
            assert np.array_equal(params.weights[0], pretrained.weights[0])
            assert np.array_equal(params.biases[0], pretrained.biases[0])


class TestMigration:
    def test_condition_switch_triggers_group_change(self, corpus, pretrained):
        schedule = (
            (0.0, ClientCondition("c0", NetworkType.FOUR_G, TransportMode.CAR)),
            (40.0, ClientCondition("c0", NetworkType.WIFI, TransportMode.CAR)),
        )
        clients = (ClientSpec("c0", ("ft0",), condition_schedule=schedule),
                   ClientSpec("c1", ("ft1",)))
        cfg = base_config(Scheme.FULL_FEDERATED, clients, epochs=4)
        metrics = run_scheme(cfg, corpus, pretrained)
        # Group 6 (4g/car) and group 10 (wifi/car) both exist after the switch.
        assert set(metrics.final_group_params) == {6, 10}


class TestValidation:
    def test_unknown_trace(self, corpus, pretrained):
        cfg = base_config(Scheme.TRANSFER_ONLY, (ClientSpec("c0", ("nope",)),))
        with pytest.raises(SchemeError):
            run_scheme(cfg, corpus, pretrained)

    def test_scratch_ignores_checkpoint(self, corpus, pretrained):
        cfg = base_config(Scheme.ONLINE_SCRATCH, (ClientSpec("c0", ("ft0",)),))
        m1 = run_scheme(cfg, corpus, pretrained)
        m2 = run_scheme(cfg, corpus, None)
        assert m1.rewards == m2.rewards

    def test_mismatched_checkpoint(self, corpus):
        bad = init_params((7, 64, 32), len(ENV.ladder), seed=0)
        cfg = base_config(Scheme.TRANSFER_ONLY, (ClientSpec("c0", ("ft0",)),))
        with pytest.raises(SchemeError):
            run_scheme(cfg, corpus, bad)

    @pytest.mark.parametrize("scheme", [Scheme.OFFLINE_ONLY, Scheme.TRANSFER_ONLY,
                                        Scheme.FULL_FEDERATED])
    @pytest.mark.parametrize("hidden, ladder", [
        ((64,), LADDER4), ((64, 16), LADDER4), ((64, 32, 8), LADDER4),
        ((64, 32), LADDER4[:2]), ((64, 32), LADDER4 + (2850.0, 4300.0))])
    def test_checkpoint_architecture_must_match(self, corpus, pretrained, scheme, hidden,
                                                ladder, tmp_path):
        clients = tuple(ClientSpec(f"c{i}", (f"ft{i}",)) for i in range(2))
        cfg = replace(base_config(scheme, clients), hidden=hidden,
                      env=replace(ENV, ladder=ladder))
        needs = re.escape(f"(19, (64, 32), 4), the config needs {(19, hidden, len(ladder))}")
        with pytest.raises(SchemeError, match=needs):
            run_scheme(cfg, corpus, pretrained, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    def test_scratch_model_has_the_config_widths(self, corpus):
        cfg = replace(base_config(Scheme.ONLINE_SCRATCH, (ClientSpec("c0", ("ft0",)),),
                                  epochs=1), hidden=(8, 4, 4))
        assert run_scheme(cfg, corpus).final_client_params["c0"].hidden == (8, 4, 4)

    @pytest.mark.parametrize("field, value", [
        ("mix", 1.01), ("mix", -0.01), ("mix", float("nan")), ("server_lr", 0.0),
        ("server_lr", -4e-3), ("poll_period_s", 0.0), ("frozen_layers", 3),
        ("frozen_layers", -1), ("epochs", 0)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(SchemeError, match=field):
            base_config(Scheme.FULL_FEDERATED, (ClientSpec("c0", ("ft0",)),),
                        **{field: value})


class TestFederationSettingsScope:
    """`mix`, `server_lr` and `poll_period_s` reach only the federated scheme."""

    @settings(max_examples=15, deadline=None)
    @given(scheme=st.sampled_from([Scheme.ONLINE_SCRATCH, Scheme.TRANSFER_ONLY]),
           mix=st.floats(0.0, 1.0), server_lr=st.floats(1e-6, 1.0),
           poll_period_s=st.floats(1e-3, 1e3))
    def test_non_federated_runs_ignore_them(self, corpus, pretrained, scheme, mix,
                                            server_lr, poll_period_s):
        clients = (ClientSpec("c0", ("ft0", "ft1")),)
        cfg = base_config(scheme, clients, epochs=2)
        runs = [run_scheme(c, corpus, pretrained) for c in (
            cfg, replace(cfg, mix=mix, server_lr=server_lr, poll_period_s=poll_period_s))]
        assert runs[0].rewards == runs[1].rewards
        assert runs[0].mean_test_reward == runs[1].mean_test_reward
        assert (runs[0].final_client_params["c0"].flat.tobytes()
                == runs[1].final_client_params["c0"].flat.tobytes())


class TestRunDirectory:
    def test_failed_run_leaves_no_directory(self, corpus, pretrained, tmp_path):
        clients = tuple(ClientSpec(f"c{i}", (f"ft{i}",)) for i in range(2))
        cfg = replace(base_config(Scheme.FULL_FEDERATED, clients),
                      hyper=replace(HYPER, lr=1e300))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            run_scheme(cfg, corpus, pretrained, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    def test_rerun_replaces_files_in_existing_directory(self, corpus, pretrained, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "rewards.csv").write_text("stale\n")
        (out / "notes.txt").write_text("kept\n")
        cfg = base_config(Scheme.TRANSFER_ONLY, (ClientSpec("c0", ("ft0",)),), epochs=2)
        run_scheme(cfg, corpus, pretrained, out)
        assert (out / "rewards.csv").read_text().startswith("epoch,mean_reward\n")
        assert (out / "notes.txt").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def scalar_greedy(params, trace, env_config):
    """Reference: one greedy episode, one scalar `forward` and `env.step` at a time."""
    env = StreamEnv(trace, env_config)
    state = env.reset(0.0)
    outcomes = []
    while not env.done:
        probs, _ = forward(params, state)
        state, _, outcome = env.step(int(np.argmax(probs)))
        outcomes.append(outcome)
    return episode_qoe(outcomes, env_config.step_s), float(np.mean([o.reward for o in outcomes]))


def bits(qoe_and_reward):
    qoe, reward = qoe_and_reward
    return [float(v).hex() for v in (qoe.mean_bitrate_kbps, qoe.stall_rate,
                                     qoe.mean_delay_ms, reward)]


class TestLockstepEvaluation:
    """`evaluate_greedy` runs every (model, trace) session in lockstep."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.lists(st.integers(1, 64), min_size=1,
                                                          max_size=2),
           st.integers(2, 6), st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**31))
    def test_matches_scalar_loop(self, k, m, hidden, rates, episode_len, history_len, seed):
        env_config = EnvConfig(ladder=tuple(300.0 * (i + 1) for i in range(rates)),
                               episode_len=episode_len, history_len=history_len)
        rng = np.random.default_rng(seed)
        models = []
        for i in range(k):
            p = init_params((env_config.state_dim, *hidden), rates, seed + i)
            p.flat[:] += rng.normal(scale=0.5, size=p.flat.size)
            models.append(p)
        fam = SynthFamily(mean_kbps=1200, amplitude_kbps=400, period_s=20,
                          noise_std_kbps=300, duration_s=40)
        traces = [synthesize_trace(fam, f"t{j}", NetworkType.FOUR_G, TransportMode.CAR,
                                   seed + j) for j in range(m)]
        got = evaluate_greedy(models, traces, env_config)
        assert [len(row) for row in got] == [k] * m
        for trace, row in zip(traces, got):
            for params, result in zip(models, row):
                assert bits(result) == bits(scalar_greedy(params, trace, env_config))

    def test_no_test_traces(self, pretrained):
        assert evaluate_greedy([pretrained], [], ENV) == []


class TestDivergenceOrder:
    """One gradient pass serves all clients of a round, but they are checked and
    stepped in client order, so a DivergenceError names the first client that
    fails, as a per-client loop does."""

    def diverge(self, corpus, pretrained, monkeypatch, bootstraps, **kwargs):
        real = schemes.collect_rollouts

        def spoiled(*args):  # non-finite or huge returns for the given clients
            trajs, states = real(*args)
            return [replace(t, bootstrap_value=bootstraps.get(i, t.bootstrap_value))
                    for i, t in enumerate(trajs)], states

        monkeypatch.setattr(schemes, "collect_rollouts", spoiled)
        clients = tuple(ClientSpec(f"c{i}", (f"ft{i}",)) for i in range(3))
        cfg = replace(base_config(Scheme.FULL_FEDERATED, clients, epochs=1), **kwargs)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            run_scheme(cfg, corpus, pretrained)
        return str(info.value)

    def test_names_the_client_whose_gradient_diverges(self, corpus, pretrained, monkeypatch):
        assert self.diverge(corpus, pretrained, monkeypatch, {2: np.inf}) == (
            "client 'c2' in group 6, epoch 1, round 0: non-finite loss or gradient")

    def test_earlier_failed_update_named_before_later_gradient(self, corpus, pretrained,
                                                                monkeypatch):
        message = self.diverge(corpus, pretrained, monkeypatch, {0: 1e6, 2: np.inf},
                               hyper=replace(HYPER, lr=1e308))
        assert message == "client 'c0' in group 6, epoch 1, round 0: non-finite update"
