import json

import numpy as np
import pytest

from fedabr.federation import Coordinator, FederationError, UpdateMessage, personalize
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


def submit(coord, *updates):
    """Submit one round: `updates` are (client, gradients) pairs, stacked in that order."""
    clients, grads = zip(*updates)
    coord.submit(UpdateMessage(clients, Gradients(np.stack([g.flat for g in grads]),
                                                  grads[0].layout)))


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
        submit(coord, ("c3", make_grads(p)))
        coord.aggregate_round(3)
        for g in range(1, 13):
            assert coord.current_round(g) == (1 if g == 3 else 0)
            if g != 3:
                assert params_close(coord.fetch(g), p)

    def test_register_returns_current_params(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.01)
        assert params_close(coord.register("a", 1), p)
        submit(coord, ("a", make_grads(p)))
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
        for call in (lambda: coord.aggregate_round(2),
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
        submit(coord, ("a", make_grads(p)))

    def test_unregistered_client_changes_nothing(self):
        coord, p = self._setup()
        g = make_grads(p)
        submit(coord, ("a", g))
        events = [dict(e) for e in coord.events]
        with pytest.raises(FederationError, match="client 'zz' is not registered"):
            submit(coord, ("a", neg(g)), ("zz", neg(g)))
        assert coord.events == events
        coord.aggregate_round(1)  # steps by the last round's row, not the refused one's
        want = p.copy()
        apply_update(want, g, 0.01)
        assert np.array_equal(coord.fetch(1).flat, want.flat)


class TestAggregate:
    def test_identical_gradients_equal_single_step(self):
        p = make_params()
        g = make_grads(p)
        coord = Coordinator(p, server_lr=0.05)
        for c in ("a", "b"):
            coord.register(c, 1)
        submit(coord, ("a", g.copy()), ("b", g.copy()))
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
        submit(coord, ("a", g), ("b", neg(g)))
        coord.aggregate_round(1)
        assert params_close(coord.fetch(1), p, tol=1e-15)
        assert coord.current_round(1) == 1

    def test_aggregate_twice_in_one_round(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        submit(coord, ("a", make_grads(p)))
        coord.aggregate_round(1)
        with pytest.raises(FederationError, match="group 1 has no submissions"):
            coord.aggregate_round(1)
        assert coord.current_round(1) == 1

    def test_rows_summed_in_client_id_order(self):
        # "client-10" sorts before "client-2": the group's rows must be added in
        # client-id order, not in the order of the stack (registration order here).
        p = make_params()
        coord = Coordinator(p, server_lr=1.0)
        ids = ("client-2", "client-10", "client-1")
        for c in ids:
            coord.register(c, 1)
        rng = np.random.default_rng(3)
        rows = {c: rng.normal(size=p.flat.size) * scale
                for c, scale in zip(ids, (1e16, 1.0, 1.0))}
        coord.submit(UpdateMessage(ids, Gradients(np.stack([rows[c] for c in ids]),
                                                  p.layout)))
        coord.aggregate_round(1)

        def stepped(order):
            mean = np.add.reduce(np.stack([rows[c] for c in order]))
            mean /= len(order)
            out = p.copy()
            apply_update(out, Gradients(mean, p.layout), 1.0)
            return out.flat

        by_id = stepped(sorted(ids))
        assert by_id.tobytes() != stepped(ids).tobytes()  # the order shows in the bits
        assert coord.fetch(1).flat.tobytes() == by_id.tobytes()

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
                submit(coord, *[(f"c{i}", g.copy()) for i in range(k)])
                coord.aggregate_round(1)
                apply_update(central, g, 0.05)
            assert params_close(coord.fetch(1), central, tol=1e-12)

    def test_group_isolation(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        coord.register("b", 2)
        for _ in range(3):
            submit(coord, ("a", make_grads(p)))
            coord.aggregate_round(1)
        assert params_close(coord.fetch(2), p)
        assert coord.current_round(2) == 0

    def test_linearity(self):
        p = make_params()
        grads = [make_grads(p, seed=s) for s in range(3)]
        mean = Gradients(sum(g.flat for g in grads) / len(grads), p.layout)

        def run(payloads):
            coord = Coordinator(p, server_lr=0.05)
            for i in range(len(payloads)):
                coord.register(f"c{i}", 1)
            submit(coord, *[(f"c{i}", g) for i, g in enumerate(payloads)])
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

    def test_migrated_row_goes_to_new_group(self):
        coord, p = self._setup()
        coord.migrate("b", 2)
        ga, gb = make_grads(p, seed=1), make_grads(p, seed=2)
        submit(coord, ("a", ga), ("b", gb))
        coord.aggregate_round(1)
        coord.aggregate_round(2)
        for gid, g in ((1, ga), (2, gb)):
            expected = p.copy()
            apply_update(expected, g, 0.05)
            assert params_close(coord.fetch(gid), expected)
            assert coord.current_round(gid) == 1
        assert [(e["client"], e["group"]) for e in coord.events
                if e["event"] == "submit"] == [("a", 1), ("b", 2)]

    def test_migrate_same_group_noop(self):
        coord, p = self._setup()
        out = coord.migrate("a", 1)
        assert params_close(out, p)
        submit(coord, ("a", make_grads(p)), ("b", make_grads(p)))
        coord.aggregate_round(1)
        assert coord.group_ids() == [1] and coord.events[-1]["clients"] == 2

    def test_migrate_version_matches_target(self):
        coord, p = self._setup()
        coord.register("c", 2)
        submit(coord, ("c", make_grads(p)))
        coord.aggregate_round(2)
        out = coord.migrate("a", 2)
        assert params_close(out, coord.fetch(2))
        assert coord.current_round(2) == 1

    def test_migrate_unseeded_target(self):
        p = make_params()
        coord = Coordinator(p, server_lr=0.05)
        coord.register("a", 1)
        submit(coord, ("a", make_grads(p)))
        coord.aggregate_round(1)
        out = coord.migrate("a", 7)
        assert params_close(out, p) and params_close(coord.fetch(7), p)
        assert coord.current_round(7) == 0
        assert [e["event"] for e in coord.events[-2:]] == ["seed", "migrate"]
        assert coord.events[-2]["group"] == 7 and coord.events[-1]["to_group"] == 7

    def test_from_group_is_the_recorded_group(self):
        coord, p = self._setup()
        coord.migrate("b", 2)
        coord.migrate("b", 5)
        assert coord.group_of("a") == 1 and coord.group_of("b") == 5
        assert [(e["from_group"], e["to_group"]) for e in coord.events
                if e["event"] == "migrate"] == [(1, 2), (2, 5)]

    def test_unknown_client(self):
        coord, _ = self._setup()
        for call in (lambda: coord.group_of("z"), lambda: coord.migrate("z", 2)):
            with pytest.raises(FederationError, match="client 'z' is not registered"):
                call()
        assert 2 not in coord.group_ids()


def test_transcript_replayable():
    p = make_params()
    coord = Coordinator(p, server_lr=0.05)
    coord.register("a", 1)
    submit(coord, ("a", make_grads(p)))
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
        submit(coord, ("a", make_grads(p, seed=rnd)))
        coord.aggregate_round(1)
        seen.append(coord.current_round(1))
    assert seen == sorted(seen) == list(range(6))
