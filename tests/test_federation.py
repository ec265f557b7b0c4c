import json

import numpy as np
import pytest

from fedabr.federation import (Coordinator, FederationError, UpdateMessage,
                               UpdateRejected, personalize)
from fedabr.net import (TrainHyper, Trajectory, a3c_gradients, apply_update, init_params,
                        zero_gradients)
from tests.conftest import params_close

HYPER = TrainHyper(clip_norm=0.0)


def make_params(seed=0):
    return init_params((4, 6), 3, seed=seed)


def make_grads(params, seed=1):
    rng = np.random.default_rng(seed)
    traj = Trajectory([rng.normal(size=4) for _ in range(4)],
                      [int(rng.integers(3)) for _ in range(4)],
                      [float(rng.normal()) for _ in range(4)], 0.0)
    return a3c_gradients(params, traj, HYPER)[0]


def neg(grads):
    out = grads.copy()
    for g in out.weights + out.biases:
        g *= -1.0
    return out


class TestSeedAndRegister:
    def test_seed_then_fetch(self):
        coord = Coordinator(server_lr=0.01)
        p = make_params()
        coord.seed_group(1, p)
        fetched, version = coord.fetch(1)
        assert params_close(fetched, p) and version == 0

    def test_double_seed(self):
        coord = Coordinator(server_lr=0.01)
        coord.seed_group(1, make_params())
        with pytest.raises(FederationError):
            coord.seed_group(1, make_params())

    def test_seed_all_twelve_groups_independent(self):
        coord = Coordinator(server_lr=0.01)
        p = make_params()
        for g in range(1, 13):
            coord.seed_group(g, p)
        coord.register("c", 3)
        coord.submit(UpdateMessage("c", 3, 0, make_grads(p)))
        coord.aggregate_round(3)
        for g in range(1, 13):
            _, v = coord.fetch(g)
            assert v == (1 if g == 3 else 0)
            if g != 3:
                assert params_close(coord.fetch(g)[0], p)

    def test_register_returns_current_params(self):
        coord = Coordinator(server_lr=0.01)
        p = make_params()
        coord.seed_group(1, p)
        assert params_close(coord.register("a", 1), p)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        coord.aggregate_round(1)
        later = coord.register("b", 1)
        assert params_close(later, coord.fetch(1)[0])
        assert not params_close(later, p)

    def test_register_unseeded(self):
        with pytest.raises(FederationError):
            Coordinator(server_lr=0.01).register("a", 5)

    def test_duplicate_registration(self):
        coord = Coordinator(server_lr=0.01)
        coord.seed_group(1, make_params())
        coord.register("a", 1)
        with pytest.raises(FederationError):
            coord.register("a", 1)


class TestSubmit:
    def _setup(self):
        coord = Coordinator(server_lr=0.01)
        p = make_params()
        coord.seed_group(1, p)
        coord.register("a", 1)
        return coord, p

    def test_accept(self):
        coord, p = self._setup()
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))

    def test_stale_round(self):
        coord, p = self._setup()
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        coord.aggregate_round(1)
        with pytest.raises(UpdateRejected, match="stale"):
            coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))

    def test_duplicate_submission(self):
        coord, p = self._setup()
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        with pytest.raises(UpdateRejected, match="duplicate"):
            coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))

    def test_unenrolled_client(self):
        coord, p = self._setup()
        with pytest.raises(UpdateRejected):
            coord.submit(UpdateMessage("ghost", 1, 0, make_grads(p)))

    def test_shape_mismatch(self):
        coord, p = self._setup()
        bad = make_grads(init_params((4, 5), 3, seed=0))
        with pytest.raises(UpdateRejected, match="shape"):
            coord.submit(UpdateMessage("a", 1, 0, bad))


class TestAggregate:
    def test_identical_gradients_equal_single_step(self):
        p = make_params()
        g = make_grads(p)
        coord = Coordinator(server_lr=0.05)
        coord.seed_group(1, p)
        for c in ("a", "b"):
            coord.register(c, 1)
            coord.submit(UpdateMessage(c, 1, 0, g.copy()))
        gm = coord.aggregate_round(1)
        expected = apply_update(p, g, 0.05)
        assert params_close(gm.params, expected, tol=1e-15)
        assert gm.version == 1

    def test_cancelling_gradients(self):
        p = make_params()
        g = make_grads(p)
        coord = Coordinator(server_lr=0.05)
        coord.seed_group(1, p)
        coord.register("a", 1)
        coord.register("b", 1)
        coord.submit(UpdateMessage("a", 1, 0, g))
        coord.submit(UpdateMessage("b", 1, 0, neg(g)))
        gm = coord.aggregate_round(1)
        assert params_close(gm.params, p, tol=1e-15)
        assert gm.version == 1

    def test_barrier_unsatisfied(self):
        p = make_params()
        coord = Coordinator(server_lr=0.05)
        coord.seed_group(1, p)
        coord.register("a", 1)
        coord.register("b", 1)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        with pytest.raises(FederationError, match="barrier"):
            coord.aggregate_round(1)

    def test_centralized_equivalence(self):
        # K identical clients = one centralized learner, elementwise.
        p = make_params()
        for k in (2, 4):
            fed = p.copy()
            central = p.copy()
            coord = Coordinator(server_lr=0.05)
            coord.seed_group(1, fed)
            for i in range(k):
                coord.register(f"c{i}", 1)
            for rnd in range(10):
                g = make_grads(central, seed=rnd)
                for i in range(k):
                    coord.submit(UpdateMessage(f"c{i}", 1, rnd, g.copy()))
                coord.aggregate_round(1)
                central = apply_update(central, g, 0.05)
            assert params_close(coord.fetch(1)[0], central, tol=1e-12)

    def test_group_isolation(self):
        p = make_params()
        coord = Coordinator(server_lr=0.05)
        coord.seed_group(1, p)
        coord.seed_group(2, p)
        coord.register("a", 1)
        for _ in range(3):
            coord.submit(UpdateMessage("a", 1, coord.current_round(1), make_grads(p)))
            coord.aggregate_round(1)
        assert params_close(coord.fetch(2)[0], p)
        assert coord.fetch(2)[1] == 0

    def test_linearity(self):
        p = make_params()
        grads = [make_grads(p, seed=s) for s in range(3)]
        from fedabr.net import mean_gradients
        mean = mean_gradients(grads)

        def run(payloads):
            coord = Coordinator(server_lr=0.05)
            coord.seed_group(1, p)
            for i, g in enumerate(payloads):
                coord.register(f"c{i}", 1)
                coord.submit(UpdateMessage(f"c{i}", 1, 0, g))
            return coord.aggregate_round(1).params

        a = run(grads)
        b = run([mean.copy() for _ in grads])
        assert params_close(a, b, tol=1e-12)


class TestPersonalize:
    def test_extremes(self):
        a, b = make_params(1), make_params(2)
        assert params_close(personalize(a, b, 1.0), a)
        assert params_close(personalize(a, b, 0.0), b)

    def test_halfway(self):
        a, b = make_params(1), make_params(2)
        mixed = personalize(a, b, 0.5)
        for m, wa, wb in zip(mixed.weights, a.weights, b.weights):
            assert np.allclose(m, 0.5 * wa + 0.5 * wb)

    def test_bad_mix(self):
        with pytest.raises(FederationError):
            personalize(make_params(), make_params(), 1.5)


class TestMigrate:
    def _setup(self):
        p = make_params()
        coord = Coordinator(server_lr=0.05)
        coord.seed_group(1, p)
        coord.seed_group(2, p)
        coord.register("a", 1)
        coord.register("b", 1)
        return coord, p

    def test_migrate_removes_from_barrier(self):
        coord, p = self._setup()
        coord.migrate("b", 1, 2)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        coord.aggregate_round(1)  # barrier satisfied without b
        with pytest.raises(UpdateRejected, match="not enrolled in group 1"):
            coord.submit(UpdateMessage("b", 1, 1, make_grads(p)))
        coord.submit(UpdateMessage("b", 2, 0, make_grads(p)))
        assert coord.aggregate_round(2).version == 1

    def test_migrate_same_group_noop(self):
        coord, p = self._setup()
        out = coord.migrate("a", 1, 1)
        assert params_close(out, p)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        with pytest.raises(FederationError, match=r"missing \['b'\]"):
            coord.aggregate_round(1)

    def test_migrate_version_matches_target(self):
        coord, p = self._setup()
        coord.register("c", 2)
        coord.submit(UpdateMessage("c", 2, 0, make_grads(p)))
        coord.aggregate_round(2)
        out = coord.migrate("a", 1, 2)
        assert params_close(out, coord.fetch(2)[0])
        assert coord.fetch(2)[1] == 1

    def test_migrate_unseeded_target(self):
        coord, _ = self._setup()
        with pytest.raises(FederationError):
            coord.migrate("a", 1, 7)


def test_transcript_replayable(tmp_path):
    p = make_params()
    path = tmp_path / "transcript.jsonl"
    coord = Coordinator(server_lr=0.05, transcript_path=path)
    coord.seed_group(1, p)
    coord.register("a", 1)
    coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
    coord.aggregate_round(1)
    coord.close()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["event"] for e in events] == ["seed", "register", "submit", "aggregate"]
    assert events[-1]["version"] == 1


def test_version_monotonic():
    p = make_params()
    coord = Coordinator(server_lr=0.05)
    coord.seed_group(1, p)
    coord.register("a", 1)
    seen = [coord.fetch(1)[1]]
    for rnd in range(5):
        coord.submit(UpdateMessage("a", 1, rnd, make_grads(p, seed=rnd)))
        coord.aggregate_round(1)
        seen.append(coord.fetch(1)[1])
    assert seen == sorted(seen) == list(range(6))
