"""Check that two fedabr source trees write the same bytes.

    python3 tools/compare_outputs.py PARENT_TREE CHANGED_TREE WORK_DIR [--seed 0]

Each tree runs, in its own process and with its own ``src`` and ``perfbench``:

- one ``fed_multigroup`` and one ``xfer_longtrace`` benchmark operation, with
  every final client and group model saved as an ``.npz`` and the rewards and
  QoE, overall and per test trace, in ``result.txt``;
- the benchmark's timed decisions after each of those operations: greedy
  episodes of every final client model on each test trace from each of the
  workload's ``decision_starts``, one ``forward``, argmax and ``step`` per
  decision, in ``decisions.txt``;
- split -> pretrain -> all four schemes -> report through the CLI on the
  ``cli_pipeline`` corpus, with a convergence rule short enough for the runs'
  epochs, so that the report's convergence epochs and efficiency rows are
  compared too.

Every file the two runs wrote is then compared byte for byte, and every array
of every ``.npz`` for equality. Exit status 0 means no file differs, 1 that
some file differs, and 2 that the arguments are wrong: a WORK_DIR that exists
and is not empty is refused before anything runs.
"""

import argparse
import filecmp
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SCHEMES = ("offline_only", "online_scratch", "transfer_only", "full_federated")


def decision_lines(inputs, starts):
    """One line per greedy episode, played as ``workloads.time_decisions`` plays
    it: the input's index, the trace id, the start, the actions, the rewards'
    ``repr`` and the sha256 of the probabilities' and the values' bytes."""
    from fedabr import env, net

    for (i, (params, trace, env_config)), start in itertools.product(enumerate(inputs), starts):
        sim = env.StreamEnv(trace, env_config)
        state, actions, rewards = sim.reset(start), [], []
        probs_hash, values_hash = hashlib.sha256(), hashlib.sha256()
        while not sim.done:
            probs, value = net.forward(params, state)
            action = int(np.argmax(probs))
            state, reward, _ = sim.step(action)
            actions.append(str(action))
            rewards.append(repr(reward))
            probs_hash.update(probs.tobytes())
            values_hash.update(np.float64(value).tobytes())
        yield (f"{i} {trace.id} {start!r} actions {','.join(actions)} rewards "
               f"{' '.join(rewards)} probs {probs_hash.hexdigest()} "
               f"values {values_hash.hexdigest()}\n")


def write_outputs(out: Path, seed: int) -> None:
    """Run in a tree whose ``src`` and ``perfbench`` are on ``sys.path``."""
    from click.testing import CliRunner
    from workloads import WORKLOADS

    from fedabr import cli, net

    for name in ("fed_multigroup", "xfer_longtrace"):
        w = WORKLOADS[name]
        state = w.setup(seed, out / name / "setup")
        result = w.operation(state, out / name / "op")
        for kind, models in (("client", result.final_client_params),
                             ("group", result.final_group_params)):
            for key, params in models.items():
                net.save_checkpoint(params, out / name / f"{kind}-{key}.npz")
        (out / name / "result.txt").write_text(repr((result.rewards, result.mean_test_reward,
                                                     result.qoe, result.qoe_per_trace)))
        (out / name / "decisions.txt").write_text("".join(
            decision_lines(w.decision_inputs(state, result), w.decision_starts)))

    root = out / "cli"
    root.mkdir()
    config = WORKLOADS["cli_pipeline"].setup(seed, root).config_path
    common = ["--config", config, "--split", root / "split.json"]
    plan = [["split", "--config", config, "--out", root / "split.json"],
            ["pretrain", *common, "--out", root / "ckpt.npz"]]
    plan += [["run", "--scheme", s, *common, "--checkpoint", root / "ckpt.npz",
              "--out", root / "runs" / s] for s in SCHEMES]
    plan.append(["report", "--out", root / "report", "--window", 3, "--epsilon", 0.3,
                 "--sustain", 3, *(root / "runs" / s for s in SCHEMES)])
    for args in plan:
        res = CliRunner().invoke(cli.main, [str(a) for a in args], catch_exceptions=False)
        if res.exit_code != 0:
            raise SystemExit(f"{args[0]} exited {res.exit_code}: {res.output}")


def differences(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        same = filecmp.cmp(a / rel, b / rel, shallow=False)
        if rel.suffix == ".npz":
            with np.load(a / rel) as x, np.load(b / rel) as y:
                same = same and x.files == y.files and all(
                    np.array_equal(x[k], y[k]) for k in x.files)
        if not same:
            bad.append(str(rel))
    return len(files_a | files_b), bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--write", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write:  # one tree's run, started below with that tree on PYTHONPATH
        write_outputs(args.work, args.seed)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees and a work directory")
    if args.work.exists() and not (args.work.is_dir() and not any(args.work.iterdir())):
        print(f"error: work directory {args.work} exists and is not empty", file=sys.stderr)
        return 2
    outs = []
    for i, tree in enumerate(args.trees):
        tree, out = tree.resolve(), args.work.resolve() / f"tree{i}"
        env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}:{tree / 'perfbench'}",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        subprocess.run([sys.executable, __file__, str(out), "--seed", str(args.seed),
                        "--write"], cwd=tree, env=env, check=True)
        outs.append(out)
    n, bad = differences(*outs)
    print(f"{n} files compared, {len(bad)} differ" + "".join(f"\n  {p}" for p in bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
