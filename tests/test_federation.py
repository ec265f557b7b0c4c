import json

import numpy as np
import pytest

from fedabr.federation import (Coordinator, FederationError, UpdateMessage,
                               UpdateRejected, personalize)
from fedabr.net import Gradients, TrainHyper, apply_update, init_params
from tests.conftest import Episode, one_model_gradients, params_close

HYPER = TrainHyper(clip_norm=0.0)


def make_params(seed=0):
    return init_params((4, 6), 3, seed=seed)


def make_grads(params, seed=1):
    rng = np.random.default_rng(seed)
    episode = Episode([rng.normal(size=4) for _ in range(4)],
                      [int(rng.integers(3)) for _ in range(4)],
                      [float(rng.normal()) for _ in range(4)], 0.0)
    return one_model_gradients(params, episode, HYPER)[0]


def neg(grads):
    out = grads.copy()
    for g in out.weights + out.biases:
        g *= -1.0
    return out


class TestSeedAndRegister:
    def test_seed_then_fetch(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        coord.register("a", 1)
        assert params_close(coord.fetch(1), p) and coord.current_round(1) == 0

    def test_seed_all_twelve_groups_independent(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        for g in range(1, 13):
            coord.register(f"c{g}", g)
        coord.submit(UpdateMessage("c3", 3, 0, make_grads(p)))
        coord.aggregate_round(3)
        for g in range(1, 13):
            assert coord.current_round(g) == (1 if g == 3 else 0)
            if g != 3:
                assert params_close(coord.fetch(g), p)

    def test_register_returns_current_params(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        assert params_close(coord.register("a", 1), p)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        coord.aggregate_round(1)
        later = coord.register("b", 1)
        assert params_close(later, coord.fetch(1))
        assert not params_close(later, p)

    def test_duplicate_registration(self):
        coord = Coordinator(make_params(), server_lr=0.01)
        coord.register("a", 1)
        with pytest.raises(FederationError):
            coord.register("a", 1)

    def test_group_no_client_joined(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        coord.register("a", 1)
        for call in (lambda: coord.submit(UpdateMessage("a", 2, 0, make_grads(p))),
                     lambda: coord.aggregate_round(2),
                     lambda: coord.fetch(2),
                     lambda: coord.current_round(2)):
            with pytest.raises(FederationError, match="group 2 has no model"):
                call()
        assert coord.group_ids() == [1]

    def test_later_group_starts_from_the_model_at_construction(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        p.flat[:] = 0.0
        coord.register("a", 4)
        assert params_close(coord.fetch(4), make_params())


class TestSubmit:
    def _setup(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
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
        coord = Coordinator(p, server_lr=0.05)
        for c in ("a", "b"):
            coord.register(c, 1)
            coord.submit(UpdateMessage(c, 1, 0, g.copy()))
        coord.aggregate_round(1)
        expected = p.copy()
        apply_update(expected, g, 0.05)
        assert params_close(coord.fetch(1), expected, tol=1e-15)
        assert coord.current_round(1) == 1

    def test_cancelling_gradients(self):
        p = make_params()
        g = make_grads(p)
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        coord.register("b", 1)
        coord.submit(UpdateMessage("a", 1, 0, g))
        coord.submit(UpdateMessage("b", 1, 0, neg(g)))
        coord.aggregate_round(1)
        assert params_close(coord.fetch(1), p, tol=1e-15)
        assert coord.current_round(1) == 1

    def test_barrier_unsatisfied(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
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
            coord = Coordinator(fed, server_lr=0.05)
            for i in range(k):
                coord.register(f"c{i}", 1)
            for rnd in range(10):
                g = make_grads(central, seed=rnd)
                for i in range(k):
                    coord.submit(UpdateMessage(f"c{i}", 1, rnd, g.copy()))
                coord.aggregate_round(1)
                apply_update(central, g, 0.05)
            assert params_close(coord.fetch(1), central, tol=1e-12)

    def test_group_isolation(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        coord.register("b", 2)
        for _ in range(3):
            coord.submit(UpdateMessage("a", 1, coord.current_round(1), make_grads(p)))
            coord.aggregate_round(1)
        assert params_close(coord.fetch(2), p)
        assert coord.current_round(2) == 0

    def test_linearity(self):
        p = make_params()
        grads = [make_grads(p, seed=s) for s in range(3)]
        mean = Gradients(sum(g.flat for g in grads) / len(grads), p.layout)

        def run(payloads):
            coord = Coordinator(p, server_lr=0.05)
            for i, g in enumerate(payloads):
                coord.register(f"c{i}", 1)
                coord.submit(UpdateMessage(f"c{i}", 1, 0, g))
            coord.aggregate_round(1)
            return coord.fetch(1)

        a = run(grads)
        b = run([mean.copy() for _ in grads])
        assert params_close(a, b, tol=1e-12)


class TestPersonalize:
    def test_extremes(self):
        a, b = make_params(1), make_params(2)
        for mix, expected in ((1.0, a), (0.0, b)):
            mixed = a.copy()
            personalize(mixed, b, mix)
            assert params_close(mixed, expected)

    def test_halfway(self):
        a, b = make_params(1), make_params(2)
        mixed = a.copy()
        personalize(mixed, b, 0.5)
        for m, wa, wb in zip(mixed.weights, a.weights, b.weights):
            assert np.allclose(m, 0.5 * wa + 0.5 * wb)

    def test_bad_mix(self):
        with pytest.raises(FederationError):
            personalize(make_params(), make_params(), 1.5)


class TestMigrate:
    def _setup(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
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
        coord.aggregate_round(2)
        assert coord.current_round(2) == 1

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
        assert params_close(out, coord.fetch(2))
        assert coord.current_round(2) == 1

    def test_migrate_unseeded_target(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
        coord.aggregate_round(1)
        out = coord.migrate("a", 1, 7)
        assert params_close(out, p) and params_close(coord.fetch(7), p)
        assert coord.current_round(7) == 0
        assert [e["event"] for e in coord.events[-2:]] == ["seed", "migrate"]
        assert coord.events[-2]["group"] == 7 and coord.events[-1]["to_group"] == 7


def test_transcript_replayable():
    p = make_params()
    coord = Coordinator(p, server_lr=0.05)
    coord.register("a", 1)
    coord.submit(UpdateMessage("a", 1, 0, make_grads(p)))
    coord.aggregate_round(1)
    assert coord.events == [
        {"event": "seed", "group": 1},
        {"event": "register", "client": "a", "group": 1, "version": 0},
        {"event": "submit", "client": "a", "group": 1, "round": 0},
        {"event": "aggregate", "group": 1, "version": 1, "clients": 1}]
    assert [json.loads(json.dumps(e)) for e in coord.events] == coord.events


def test_version_monotonic():
    p = make_params()
    coord = Coordinator(p, server_lr=0.05)
    coord.register("a", 1)
    seen = [coord.current_round(1)]
    for rnd in range(5):
        coord.submit(UpdateMessage("a", 1, rnd, make_grads(p, seed=rnd)))
        coord.aggregate_round(1)
        seen.append(coord.current_round(1))
    assert seen == sorted(seen) == list(range(6))
