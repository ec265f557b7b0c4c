import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedabr import pretrain, schemes
from fedabr.discriminator import ClientCondition, poll
from fedabr.env import EnvConfig, StreamEnv
from fedabr.federation import Coordinator, UpdateMessage, personalize
from fedabr.metrics import QoESummary
from fedabr.net import (DivergenceError, Gradients, TrainHyper, apply_update, forward,
                        init_params, zero_frozen)
from fedabr.pretrain import PretrainConfig, offline_train
from fedabr.schemes import (ClientSpec, Scheme, SchemeConfig, SchemeError, evaluate_greedy,
                            run_scheme)
from fedabr.traces import NetworkType, SynthFamily, Trace, TransportMode, synthesize_trace
from tests.conftest import add_in_order, params_close, qoe_of
from tests.test_net import per_client_gradients
from tests.test_pretrain import reference_rollout

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
                episode, state = reference_rollout(env, central, state, HYPER.rollout_len, rng)
                grads, _ = per_client_gradients(central, episode, HYPER)
                zero_frozen(grads, cfg.frozen_layers)
                apply_update(central, grads, HYPER.lr)
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

    def test_migrate_event_leaves_the_recorded_group(self, corpus, pretrained):
        cond = [ClientCondition("c0", nt, TransportMode.CAR)
                for nt in (NetworkType.FOUR_G, NetworkType.WIFI, NetworkType.THREE_G)]
        clients = (ClientSpec("c0", ("ft0",), condition_schedule=tuple(zip((0.0, 40.0, 80.0),
                                                                           cond))),)
        metrics = run_scheme(base_config(Scheme.FULL_FEDERATED, clients), corpus, pretrained)
        moves = [(e["event"], e.get("group"), e.get("from_group"), e.get("to_group"))
                 for e in metrics.transcript if e["event"] in ("register", "migrate")]
        assert moves == [("register", 6, None, None), ("migrate", None, 6, 10),
                         ("migrate", None, 10, 2)]


class TestClientSpec:
    """`ClientSpec` is where a client's trace list and schedule are checked, whether the
    record comes from a config file or is built in Python."""

    def schedule(self, *entries):
        return tuple((t, ClientCondition("c0", nt, TransportMode.CAR)) for t, nt in entries)

    def test_empty_trace_ids(self):
        with pytest.raises(SchemeError, match=re.escape("trace_ids must be non-empty, got ()")):
            ClientSpec("c0", ())

    def test_unsorted_schedule(self):
        with pytest.raises(SchemeError, match=re.escape(
                "condition_schedule times must not decrease, got [5.0, 1.0]")):
            ClientSpec("c0", ("ft0",), condition_schedule=self.schedule(
                (5.0, NetworkType.WIFI), (1.0, NetworkType.FOUR_G)))

    def test_nan_time_is_not_in_order(self):
        with pytest.raises(SchemeError, match=re.escape("got [0.0, nan]")):
            ClientSpec("c0", ("ft0",), condition_schedule=self.schedule(
                (0.0, NetworkType.WIFI), (float("nan"), NetworkType.THREE_G)))

    def test_equal_times_are_in_order(self):
        ClientSpec("c0", ("ft0",), condition_schedule=self.schedule(
            (0.0, NetworkType.WIFI), (0.0, NetworkType.THREE_G), (3.0, NetworkType.WIFI)))

    def test_empty_schedule_is_no_schedule(self, corpus, pretrained):
        """The client joins its first trace's group and never migrates."""
        cfg = base_config(Scheme.FULL_FEDERATED, (ClientSpec("c0", ("ft0",),
                                                             condition_schedule=()),), epochs=1)
        transcript = run_scheme(cfg, corpus, pretrained).transcript
        assert [e["group"] for e in transcript if e["event"] == "register"] == [6]
        assert not [e for e in transcript if e["event"] == "migrate"]


class TestValidation:
    def test_unknown_trace(self, corpus, pretrained):
        cfg = base_config(Scheme.TRANSFER_ONLY, (ClientSpec("c0", ("nope",)),))
        with pytest.raises(SchemeError):
            run_scheme(cfg, corpus, pretrained)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("where", ["client", "test"])
    @pytest.mark.parametrize("times, span", [(np.arange(21.0), "[0.0, 20.0]"),
                                             (np.arange(5.0, 70.0), "[5.0, 69.0]")])
    def test_trace_not_covering_an_episode(self, corpus, pretrained, monkeypatch, tmp_path,
                                           scheme, where, times, span):
        """A client or test trace that ends before one episode, or starts after it,
        is rejected before any training, not by the simulator once training is over."""
        bad = Trace("bad", times, np.full_like(times, 1000.0), NetworkType.FOUR_G,
                    TransportMode.CAR)
        traces = {**corpus, "bad": bad}
        client_traces = ("ft0", "bad") if where == "client" else ("ft0",)
        cfg = base_config(scheme, (ClientSpec("c0", client_traces),))
        if where == "test":
            cfg = replace(cfg, test_trace_ids=("test0", "bad"))
        for module in (pretrain, schemes):  # any rollout fails
            monkeypatch.setattr(module, "collect_rollout", None)
        what = {"client": "trace id 'bad' for client 'c0'", "test": "test trace id 'bad'"}[where]
        message = {"[0.0, 20.0]": "too short: episode needs 32.0s, trace ends at 20.0s",
                   "[5.0, 69.0]": "starts at 5.0s, after the episode start 0.0s"}[span]
        with pytest.raises(SchemeError, match=re.escape(f"{what}: trace 'bad' {message}") + "$"):
            run_scheme(cfg, traces, pretrained, tmp_path / "run")
        assert not any(tmp_path.iterdir())

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
        ("server_lr", -4e-3), ("server_lr", float("inf")), ("poll_period_s", 0.0),
        ("poll_period_s", float("inf")), ("frozen_layers", 3),
        ("frozen_layers", -1), ("epochs", 0)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(SchemeError, match=field):
            base_config(Scheme.FULL_FEDERATED, (ClientSpec("c0", ("ft0",)),),
                        **{field: value})


class TestOneLearnerLoop:
    """Pretraining and the online schemes run one learner loop: `offline_train` is the
    one-client `online_scratch` run over `epochs * episodes_per_epoch` epochs."""

    @pytest.mark.parametrize("episodes_per_epoch, epochs, seed", [(2, 30, 0), (3, 7, 5),
                                                                   (1, 10, 2)])
    def test_pretraining_is_the_one_client_scratch_run(self, corpus, episodes_per_epoch,
                                                       epochs, seed):
        ids = ("ft0", "ft1", "ft2")
        cfg = PretrainConfig(epochs=epochs, episodes_per_epoch=episodes_per_epoch,
                             hyper=HYPER, seed=seed)
        params, rewards = offline_train([corpus[i] for i in ids], cfg, ENV)
        scratch = replace(base_config(Scheme.ONLINE_SCRATCH, (ClientSpec("pre", ids, seed=seed),),
                                      epochs=epochs * episodes_per_epoch), seed=seed)
        run = run_scheme(scratch, corpus)
        assert run.final_client_params["pre"].flat.tobytes() == params.flat.tobytes()
        assert rewards == [float(np.mean(run.rewards[i:i + episodes_per_epoch]))
                           for i in range(0, len(run.rewards), episodes_per_epoch)]


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
    return qoe_of(outcomes, env_config.step_s), float(np.mean([o.reward for o in outcomes]))


class TestLockstepEvaluation:
    """`evaluate_greedy` runs every (model, trace) session in lockstep."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.lists(st.integers(1, 64), min_size=1,
                                                          max_size=2),
           st.integers(2, 6), st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**31),
           st.sampled_from([1.0, 0.3, 1.1]))
    def test_matches_scalar_loop(self, k, m, hidden, rates, episode_len, history_len, seed,
                                 step_s):
        # A step of 0.3 s or 1.1 s makes the stall time's sum order show in its bits.
        env_config = EnvConfig(ladder=tuple(300.0 * (i + 1) for i in range(rates)),
                               episode_len=episode_len, history_len=history_len,
                               step_s=step_s)
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
        want = np.empty((4, m, k))
        for j, trace in enumerate(traces):
            for i, params in enumerate(models):
                qoe, reward = scalar_greedy(params, trace, env_config)
                want[:, j, i] = (qoe.mean_bitrate_kbps, qoe.stall_rate, qoe.mean_delay_ms, reward)
        got = evaluate_greedy(models, traces, env_config)
        assert got.shape == (4, m, k) and got.tobytes() == want.tobytes()

    def test_no_test_traces(self, pretrained):
        assert evaluate_greedy([pretrained], [], ENV).shape == (4, 0, 1)

    def test_run_means_over_models_then_distinct_traces(self, corpus, pretrained):
        """A run's QoE: per test trace, the mean over the client models of each
        session's value; overall, the mean over the distinct test traces."""
        clients = (ClientSpec("c0", ("ft0",)), ClientSpec("c1", ("ft1",)),
                   ClientSpec("c2", ("ft2",)))
        cfg = replace(base_config(Scheme.FULL_FEDERATED, clients, epochs=2),
                      test_trace_ids=("test0", "ft3", "test0"))
        metrics = run_scheme(cfg, corpus, pretrained)
        models = [metrics.final_client_params[c] for c in ("c0", "c1", "c2")]
        per_trace = {}
        for tid in ("test0", "ft3"):
            sessions = [(*vars(q).values(), r)
                        for q, r in (scalar_greedy(p, corpus[tid], ENV) for p in models)]
            per_trace[tid] = [float(np.mean(col)) for col in zip(*sessions)]
        overall = [float(np.mean(col)) for col in zip(*per_trace.values())]
        assert metrics.qoe_per_trace == {tid: QoESummary(*row[:3])
                                         for tid, row in per_trace.items()}
        assert metrics.qoe == QoESummary(*overall[:3])
        assert metrics.mean_test_reward == overall[3]
        assert all(type(v) is float for v in (*vars(metrics.qoe).values(),
                                              metrics.mean_test_reward))


class TestDivergenceOrder:
    """One gradient pass serves all clients of a round, but they are checked and
    stepped in client order, so a DivergenceError names the first client that
    fails, as a per-client loop does."""

    def diverge(self, corpus, pretrained, monkeypatch, bootstraps, **kwargs):
        real = pretrain.collect_rollout

        def spoiled(*args):  # non-finite or huge returns for the given clients
            rollout, states = real(*args)
            values = rollout.bootstrap_values.copy()
            values[list(bootstraps)] = list(bootstraps.values())
            return replace(rollout, bootstrap_values=values), states

        monkeypatch.setattr(pretrain, "collect_rollout", spoiled)  # the learner loop's
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


def per_client_rounds(config, traces, params0):
    """Reference: the online round loop with one model per client, each rolled
    out, given its gradient, stepped and mixed on its own, in client order, from
    the scalar oracles (`reference_rollout`, the per-client gradient); the round's
    gradients are stacked and submitted once."""
    federated = config.scheme is Scheme.FULL_FEDERATED
    frozen = 0 if config.scheme is Scheme.ONLINE_SCRATCH else config.frozen_layers
    server_lr, mix = config.hyper.lr, 1.0
    if federated:
        server_lr, mix = config.server_lr or config.hyper.lr, config.mix
    coord = Coordinator(params0, server_lr)
    clients = []
    for i, spec in enumerate(config.clients):
        changes = []
        if not federated:
            gid = 100 + i
        elif spec.condition_schedule:
            (_, gid), *changes = poll(list(spec.condition_schedule), config.poll_period_s,
                                      config.sim_time_s)
        else:
            gid = traces[spec.trace_ids[0]].group
        clients.append(dict(spec=spec, model=coord.register(spec.id, gid), group=gid,
                            rng=schemes._client_rng(config, spec, i), changes=changes))
    steps, rewards = config.env.episode_len, []
    for epoch in range(config.epochs):
        for c in clients:
            c["env"] = StreamEnv(traces[c["spec"].trace_ids[epoch % len(c["spec"].trace_ids)]],
                                 config.env)
            c["state"] = c["env"].reset(0.0)
        total = 0.0
        while not clients[0]["env"].done:
            round_grads = []
            for c in clients:
                episode, c["state"] = reference_rollout(c["env"], c["model"], c["state"],
                                                        config.hyper.rollout_len, c["rng"])
                grads, _ = per_client_gradients(c["model"], episode, config.hyper)
                zero_frozen(grads, frozen)
                apply_update(c["model"], grads, config.hyper.lr)
                round_grads.append(grads.flat)
                total += add_in_order(episode.rewards)
            coord.submit(UpdateMessage(tuple(c["spec"].id for c in clients),
                                       Gradients(np.stack(round_grads), params0.layout)))
            for gid in sorted({c["group"] for c in clients}):
                coord.aggregate_round(gid)
            for c in clients:
                personalize(c["model"], coord.fetch(c["group"]), mix)
            sim_t = ((epoch + 1) * steps - clients[0]["env"].steps_left) * config.env.step_s
            for c in clients:
                while c["changes"] and c["changes"][0][0] <= sim_t:
                    _, to_group = c["changes"].pop(0)
                    target = coord.migrate(c["spec"].id, to_group)
                    c["group"] = to_group
                    personalize(c["model"], target, mix)
        rewards.append(total / (len(clients) * steps))
    return (rewards, {c["spec"].id: c["model"] for c in clients},
            {gid: coord.fetch(gid) for gid in coord.group_ids()}, coord.events)


CONDITIONS = [(nt, tm) for nt in (NetworkType.FOUR_G, NetworkType.WIFI)
              for tm in (TransportMode.CAR, TransportMode.TRAIN)]


def round_case(scheme, hidden, env, epochs, seed, clients, hyper, frozen_layers=0, mix=0.0,
               server_lr=None, poll_period_s=1.0):
    """A small online run: (config, traces, pretrained model). Client i is given as (its
    traces' conditions, its seed, its schedule), and its trace j is synthesized with seed
    `seed + 10 * i + j`."""
    fam = SynthFamily(mean_kbps=1200, amplitude_kbps=400, period_s=15, noise_std_kbps=300,
                      duration_s=40)
    traces, specs = {}, []
    for i, (conditions, client_seed, schedule) in enumerate(clients):
        ids = []
        for j, (nt, tm) in enumerate(conditions):
            tr = synthesize_trace(fam, f"c{i}t{j}", nt, tm, seed + 10 * i + j)
            traces[tr.id] = tr
            ids.append(tr.id)
        specs.append(ClientSpec(f"c{i}", tuple(ids), client_seed, schedule))
    config = SchemeConfig(scheme=scheme, clients=tuple(specs), epochs=epochs, seed=seed, env=env,
                          hyper=hyper, frozen_layers=frozen_layers, mix=mix, server_lr=server_lr,
                          poll_period_s=poll_period_s, hidden=hidden)
    pretrained = init_params((env.state_dim, *hidden), len(env.ladder), seed + 1)
    pretrained.flat[:] += np.random.default_rng(seed).normal(scale=0.5,
                                                            size=pretrained.flat.size)
    return config, traces, pretrained


@st.composite
def round_cases(draw):
    """A small online run: scheme, 1-5 clients with one or two traces of random
    groups, hidden widths, freeze depth, mix, server rate, rollout and episode
    lengths, and for some clients a schedule of condition changes."""
    scheme = draw(st.sampled_from([Scheme.ONLINE_SCRATCH, Scheme.TRANSFER_ONLY,
                                   Scheme.FULL_FEDERATED]))
    hidden = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
    env = EnvConfig(ladder=tuple(300.0 * (i + 1) for i in range(draw(st.integers(2, 5)))),
                    episode_len=draw(st.integers(1, 20)), history_len=draw(st.integers(1, 3)))
    epochs = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    clients = []
    for i in range(draw(st.integers(1, 5))):
        conditions = [draw(st.sampled_from(CONDITIONS)) for _ in range(draw(st.integers(1, 2)))]
        schedule = None
        if draw(st.booleans()):
            times = sorted(draw(st.lists(st.floats(0.0, epochs * env.episode_len), max_size=3)))
            schedule = tuple((t, ClientCondition(f"c{i}", *draw(st.sampled_from(CONDITIONS))))
                             for t in [0.0, *times])
        clients.append((conditions, draw(st.none() | st.integers(0, 99)), schedule))
    hyper = TrainHyper(lr=draw(st.floats(1e-4, 1e-2)), rollout_len=draw(st.integers(1, 8)),
                       entropy_coef=0.05, value_coef=0.1,
                       clip_norm=draw(st.sampled_from([0.0, 0.5, 10.0])))
    return round_case(scheme, hidden, env, epochs, seed, clients, hyper,
                      frozen_layers=draw(st.integers(0, len(hidden))),
                      mix=draw(st.floats(0.0, 1.0)),
                      server_lr=draw(st.none() | st.floats(1e-4, 1e-2)),
                      poll_period_s=draw(st.floats(1.0, 20.0)))


# Trace c1t0 has a 0.0 bandwidth sample, and in epoch 2 client c1's policy gives one rate
# probability 0.0: its entropy term must add 0, not NaN, or the run diverges.
ZERO_PROBABILITY_CASE = round_case(
    Scheme.ONLINE_SCRATCH, (1, 2), EnvConfig(ladder=(300.0, 600.0, 900.0), episode_len=12,
                                             history_len=3),
    2, 261, [([CONDITIONS[0]], None, None)] * 2,
    TrainHyper(lr=0.0078125, rollout_len=1, entropy_coef=0.05, value_coef=0.1, clip_norm=0.0))


class TestRoundLoopOracle:
    """`run_scheme`'s round loop, one stack of client models updated in place,
    against a per-client loop: rewards, transcript and every byte of every final
    client and group model."""

    @settings(max_examples=80, deadline=None)
    @given(round_cases())
    @example(ZERO_PROBABILITY_CASE)
    def test_matches_per_client_loop(self, case):
        config, traces, pretrained = case
        metrics = run_scheme(config, traces, pretrained)
        rewards, clients, groups, events = per_client_rounds(
            config, traces, schemes._initial_params(config, pretrained))
        assert metrics.rewards == rewards
        assert metrics.transcript == events
        for got, want in ((metrics.final_client_params, clients),
                          (metrics.final_group_params, groups)):
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].flat.tobytes() == want[key].flat.tobytes()
