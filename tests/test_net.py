import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedabr.env import EnvConfig, StreamEnv
from fedabr.federation import Coordinator, UpdateMessage, personalize
from fedabr.net import (DivergenceError, Gradients, ModelParams, NetError, Rollout, TrainHyper,
                        _clip_global_norm, _forward_full, a3c_gradients, apply_update,
                        discounted_returns, forward, init_params, load_checkpoint,
                        sample_actions, save_checkpoint, sgd_step, state_values, sum_in_order,
                        zero_frozen, zero_gradients)
from fedabr.pretrain import collect_rollout
from tests.conftest import (Episode, add_in_order, as_rollout, as_stack, constant_trace,
                            episode_of, gradients_of, neumaier_sum, one_model_gradients,
                            params_close, sample_action)

ARCH = (5, 8, 6)


def small_params(seed=0):
    return init_params(ARCH, 4, seed=seed)


def random_trajectory(params, rng, length=6):
    states = [rng.normal(size=params.input_dim) for _ in range(length)]
    actions = [int(rng.integers(params.ladder_size)) for _ in range(length)]
    rewards = [float(rng.normal()) for _ in range(length)]
    return Episode(states, actions, rewards, float(rng.normal()))


def a3c_loss(params, traj, hyper, advantages=None):
    """Rollout loss: -sum log pi(a)*A + c_v*(R-V)^2 - beta*H.

    `advantages` may be supplied externally (e.g. frozen at a base parameter
    point for finite-difference checks); by default they are recomputed from
    `params`, matching what a3c_gradients differentiates.
    """
    returns = discounted_returns(traj.rewards, traj.bootstrap_value, hyper.gamma)
    total = 0.0
    for t, (s, a) in enumerate(zip(traj.states, traj.actions)):
        probs, value = forward(params, s)
        adv = returns[t] - value if advantages is None else advantages[t]
        entropy = -float(np.sum(probs * np.log(probs)))
        total += (-np.log(probs[a]) * adv
                  + hyper.value_coef * (returns[t] - value) ** 2
                  - hyper.entropy_coef * entropy)
    return float(total)


def fd_gradient(params, traj, hyper, h=1e-5):
    """Central finite differences of the surrogate loss with frozen advantages."""
    returns = discounted_returns(traj.rewards, traj.bootstrap_value, hyper.gamma)
    adv = np.array([returns[t] - forward(params, s)[1]
                    for t, s in enumerate(traj.states)])
    fd = zero_gradients(params)
    for arrs, out in ((params.weights, fd.weights), (params.biases, fd.biases)):
        for a, g in zip(arrs, out):
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + h
                lp = a3c_loss(params, traj, hyper, advantages=adv)
                a[idx] = orig - h
                lm = a3c_loss(params, traj, hyper, advantages=adv)
                a[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
    return fd


def max_relative_error(analytic, fd):
    worst = 0.0
    for ga, gf in zip(analytic.weights + analytic.biases, fd.weights + fd.biases):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-6)
        worst = max(worst, float(np.max(np.abs(ga - gf) / denom)))
    return worst


class TestInitParams:
    def test_deterministic(self):
        a, b = small_params(7), small_params(7)
        assert params_close(a, b)

    def test_zero_biases(self):
        p = small_params()
        assert all(np.all(b == 0) for b in p.biases)

    def test_weight_mean(self):
        p = init_params((100, 100), 4, seed=1)
        assert abs(np.mean(p.weights[0])) < 0.01

    def test_incompatible_dims(self):
        for dims in ((5,), (5, 0), (0, 8), (5, 8, 0)):
            with pytest.raises(NetError):
                init_params(dims, 4, seed=0)


class TestForward:
    def test_probs_sum_to_one(self, rng):
        p = small_params()
        probs, _ = forward(p, rng.normal(size=5))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0)

    def test_zero_weights_uniform(self):
        p = small_params()
        for w in p.weights:
            w[:] = 0.0
        probs, value = forward(p, np.ones(5))
        assert np.allclose(probs, 0.25)
        assert value == 0.0

    def test_matmul_oracle(self, rng):
        p = small_params(3)
        x = rng.normal(size=5)
        h = np.maximum(p.weights[0] @ x + p.biases[0], 0)
        h = np.maximum(p.weights[1] @ h + p.biases[1], 0)
        logits = p.weights[2] @ h + p.biases[2]
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        probs, value = forward(p, x)
        assert np.allclose(probs, expected)
        assert value == pytest.approx(float((p.weights[3] @ h + p.biases[3])[0]))

    def test_dimension_mismatch(self):
        with pytest.raises(NetError):
            forward(small_params(), np.ones(4))

    def test_non_finite_input(self):
        with pytest.raises(NetError):
            forward(small_params(), np.array([1, 2, np.nan, 4, 5.0]))


def reference_sample_actions(probs, draws):
    """Reference sampler: the count of each row's first A - 1 cumulative sums below
    the row's draw, as one numpy comparison and one sum over the rows."""
    below = np.add.accumulate(probs, axis=1)[:, :-1] < np.asarray(draws)[:, None]
    return np.add.reduce(below, axis=1)


def sample_one(probs, rng):
    """`sample_actions` on one row, with one draw from `rng`."""
    return sample_actions(probs[None], [rng.random()])[0]


@st.composite
def sampler_cases(draw):
    """Probability rows and one draw per row; some draws equal a cumulative sum
    of their row, and some rows hold zeros, so ties are drawn too."""
    k, a = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(a), size=k)
    probs[rng.random((k, a)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    probs[probs.sum(axis=1) == 0.0, -1] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    draws = rng.random(k)
    on_entry = rng.random(k) < 0.5
    cums = np.cumsum(probs, axis=1)[np.arange(k), rng.integers(a, size=k)]
    draws[on_entry] = np.minimum(cums[on_entry], np.nextafter(1.0, 0.0))
    return probs, draws


@st.composite
def softmax_sampler_cases(draw):
    """1-64 softmax rows of 2-9 rates, from logits scaled by up to 1e3 so that some
    probabilities underflow to 0.0, some rows NaN, and one draw per row: uniform, a
    cumulative sum of the row, or a neighbour of one on either side."""
    k, a = draw(st.integers(1, 64)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=(k, a)) * draw(st.sampled_from([1.0, 30.0, 300.0, 1e3]))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    probs[rng.random(k) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    cums = np.add.accumulate(probs, axis=1)[np.arange(k), rng.integers(a, size=k)]
    draws = rng.random(k)
    kind = rng.integers(4, size=k)  # 0: uniform, 1: on a sum, 2: just below, 3: just above
    draws[kind == 1] = cums[kind == 1]
    draws[kind == 2] = np.nextafter(cums[kind == 2], -np.inf)
    draws[kind == 3] = np.nextafter(cums[kind == 3], np.inf)
    return probs, draws


class SeqDraws:
    """Stands in for a generator: `random()` returns the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return float(next(self._draws))


class TestSampleAction:
    def test_one_hot(self, rng):
        probs = np.array([0.0, 0.0, 1.0, 0.0])
        assert all(sample_one(probs, rng) == 2 for _ in range(50))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(5)
        probs = np.full((100_000, 4), 0.25)
        counts = np.bincount(sample_actions(probs, rng.random(100_000)), minlength=4)
        assert np.allclose(counts / 100_000, 0.25, atol=0.01)

    def test_deterministic(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        a = sample_one(probs, np.random.default_rng(3))
        b = sample_one(probs, np.random.default_rng(3))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(sampler_cases())
    def test_matches_scalar_sampler(self, case):
        probs, draws = case
        expected = [sample_action(row, SeqDraws([r])) for row, r in zip(probs, draws)]
        assert sample_actions(probs, draws) == expected

    @settings(max_examples=300, deadline=None)
    @given(softmax_sampler_cases())
    def test_matches_numpy_count(self, case):
        probs, draws = case
        expected = reference_sample_actions(probs, draws).tolist()
        assert sample_actions(probs, draws) == expected
        assert sample_actions(probs, draws.tolist()) == expected


class TestGradients:
    def test_finite_difference(self):
        rng = np.random.default_rng(0)
        hyper = TrainHyper(clip_norm=0.0)
        for trial in range(20):
            p = small_params(trial)
            traj = random_trajectory(p, rng)
            grads, _ = one_model_gradients(p, traj, hyper)
            assert max_relative_error(grads, fd_gradient(p, traj, hyper)) < 1e-4

    def test_zero_advantage_policy_term(self, rng):
        # With beta=0, c_v=0 and zero advantages the whole loss gradient is zero.
        p = small_params()
        hyper = TrainHyper(entropy_coef=0.0, value_coef=0.0, clip_norm=0.0)
        state = rng.normal(size=5)
        _, value = forward(p, state)
        traj = Episode([state], [1], [float(value)], 0.0)  # return == V(s)
        grads, _ = one_model_gradients(p, traj, TrainHyper(gamma=1.0, entropy_coef=0.0,
                                                           value_coef=0.0, clip_norm=0.0))
        assert all(np.allclose(g, 0, atol=1e-12) for g in grads.weights)

    def test_single_step_return(self):
        returns = discounted_returns([2.0], bootstrap=3.0, gamma=1.0)
        assert returns[0] == 5.0

    def test_divergence_detection(self, rng):
        p = small_params()
        traj = random_trajectory(p, rng)
        p.weights[0][0, 0] = np.nan
        models = as_stack(p)
        with np.errstate(invalid="ignore"):
            grads, losses = gradients_of(models, as_rollout([traj]), TrainHyper())
        with pytest.raises(DivergenceError, match="^non-finite loss or gradient$"):
            sgd_step(models, grads, losses, 0.1)

    def test_clipping_bounds_norm(self, rng):
        p = small_params()
        traj = random_trajectory(p, rng, length=10)
        big_traj = traj._replace(rewards=[r * 1e4 for r in traj.rewards])
        grads, _ = one_model_gradients(p, big_traj, TrainHyper(clip_norm=40.0))
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.weights + grads.biases))
        assert norm <= 40.0 + 1e-9


class TestApplyUpdate:
    def test_zero_lr(self, rng):
        p = small_params()
        grads, _ = one_model_gradients(p, random_trajectory(p, rng), TrainHyper())
        before = p.copy()
        apply_update(p, grads, 0.0)
        assert params_close(p, before)

    def test_scalar_arithmetic(self):
        p = ModelParams.from_layers(
            [np.array([[1.0]]), np.array([[1.0], [1.0]]), np.array([[1.0]])],
            [np.zeros(1), np.zeros(2), np.zeros(1)])
        g = zero_gradients(p)
        g.weights[0][0, 0] = 2.0
        apply_update(p, g, 0.1)
        assert p.weights[0][0, 0] == pytest.approx(0.8)

    def test_shape_mismatch(self, rng):
        p = small_params()
        grads = zero_gradients(init_params((5, 8, 5), 4, seed=0))
        with pytest.raises(NetError):
            apply_update(p, grads, 0.1)


class TestEntropyEffect:
    def test_higher_beta_higher_entropy(self, rng):
        # One small SGD step with larger beta must leave the policy more uniform.
        for seed in range(5):
            p = small_params(seed)
            traj = random_trajectory(p, np.random.default_rng(seed))
            state = traj.states[0]
            entropies = []
            for beta in (0.0, 1.0):
                hyper = TrainHyper(entropy_coef=beta, lr=1e-3, clip_norm=0.0)
                grads, _ = one_model_gradients(p, traj, hyper)
                updated = p.copy()
                apply_update(updated, grads, hyper.lr)
                probs, _ = forward(updated, state)
                entropies.append(float(-np.sum(probs * np.log(probs))))
            assert entropies[1] > entropies[0]


class TestHelpers:
    def test_zero_frozen(self, rng):
        p = small_params()
        g, _ = one_model_gradients(p, random_trajectory(p, rng), TrainHyper())
        z = g.copy()
        zero_frozen(z, 1)
        assert np.all(z.weights[0] == 0)
        assert np.array_equal(z.weights[1], g.weights[1])

    @pytest.mark.parametrize("frozen", [-1, 5])
    def test_freeze_out_of_range(self, rng, frozen):
        p = small_params()
        grads, _ = one_model_gradients(p, random_trajectory(p, rng), TrainHyper())
        with pytest.raises(NetError, match=f"cannot freeze {frozen} of 4 layers"):
            zero_frozen(grads, frozen)


class TestCheckpoint:
    @pytest.mark.parametrize("name, index, value", [("w0", (0, 0), np.nan),
                                                    ("b1", (2,), np.inf),
                                                    ("w3", (0, 5), -np.inf)])
    def test_non_finite_weight_rejected(self, tmp_path, name, index, value):
        p = small_params(9)
        (p.weights if name[0] == "w" else p.biases)[int(name[1:])][index] = value
        path = tmp_path / "model.npz"
        save_checkpoint(p, path)
        with pytest.raises(NetError, match=f"^checkpoint {path} has a non-finite value "
                                           f"in {name}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("w0", "a"), ("b1", 1j), ("w2", 1), ("b3", True)])
    def test_non_float_array_rejected(self, tmp_path, name, value):
        p = small_params(9)
        path = tmp_path / "model.npz"
        save_checkpoint(p, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = np.full(arrays[name].shape, value)
        np.savez(path, **arrays)
        with pytest.raises(NetError, match=rf"^checkpoint {path}: {name} holds "
                                           rf"{arrays[name].dtype} values, not floats$"):
            load_checkpoint(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        p = small_params(9)
        path = tmp_path / "model.npz"
        save_checkpoint(p, path)
        loaded = load_checkpoint(path)
        assert params_close(loaded, p)

    @pytest.mark.parametrize("activations", [("identity", "relu"), ("relu", "identity"),
                                             ("relu",), ("relu", "relu", "relu")])
    def test_only_relu_layers_load(self, tmp_path, activations):
        p = small_params(9)
        arrays = {"version": np.array(1), "n_layers": np.array(p.n_layers),
                  "activations": np.array(activations)}
        for i, (w, b) in enumerate(zip(p.weights, p.biases)):
            arrays[f"w{i}"], arrays[f"b{i}"] = w, b
        np.savez(tmp_path / "model.npz", **arrays)
        with pytest.raises(NetError, match="relu"):
            load_checkpoint(tmp_path / "model.npz")


class TestTrajectoryValidation:
    """A `Rollout` checks its fields' shapes and its rewards."""

    def test_empty(self):
        with pytest.raises(NetError, match="need"):
            Rollout(np.ones((2, 0, 3)), np.ones((2, 0), int), np.ones((2, 0)), np.zeros(2))

    def test_non_finite_reward(self):
        with pytest.raises(NetError, match="non-finite reward"):
            as_rollout([Episode([np.ones(3)], [0], [np.inf], 0.0)])

    @pytest.mark.parametrize("field, shape", [("states", (2, 4)), ("states", (2, 3, 5, 1)),
                                              ("actions", (2, 4)), ("rewards", (3, 3)),
                                              ("bootstrap_values", (1,))])
    def test_field_shapes_agree(self, field, shape):
        fields = dict(states=np.ones((2, 3, 5)), actions=np.ones((2, 3), int),
                      rewards=np.ones((2, 3)), bootstrap_values=np.zeros(2))
        fields[field] = np.ones(shape)
        with pytest.raises(NetError, match=r"need \(K, T, d\), \(K, T\)"):
            Rollout(**fields)


@st.composite
def float_rows(draw):
    """A (rows, columns) array of floats: signed zeros, tiny and huge magnitudes,
    infinities and NaN included."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    values = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1]))
    return np.array(draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows)))


class TestSumInOrder:
    """`sum_in_order`, the one reduction of reward and QoE totals."""

    @settings(max_examples=300, deadline=None)
    @given(float_rows())
    @example(np.array([[-0.0], [-0.0]]))
    @example(np.array([[-0.0, -0.0, -0.0]]))
    @example(np.array([[1e16, 1.0, -1e16]]))
    def test_adds_in_index_order_from_zero(self, a):
        for axis, rows in ((1, a), (-1, a), (0, a.T)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = sum_in_order(a, axis=axis)
            assert got.shape == (len(rows),)
            assert [v.hex() for v in got.tolist()] == [
                add_in_order(r).hex() for r in rows.tolist()]

    def test_not_compensated(self):
        row = [1e16, 1.0, -1e16]
        assert neumaier_sum(row) == 1.0  # Python 3.12's `sum`
        assert sum_in_order(np.array(row)).hex() == (0.0).hex()
        assert sum_in_order(np.array([-0.0, -0.0])).hex() == (0.0).hex()

    def test_rollout_totals(self, rng):
        rewards = rng.normal(size=(3, 7))
        rewards[1] = -0.0
        rollout = Rollout(np.zeros((3, 7, 2)), np.zeros((3, 7), int), rewards, np.zeros(3))
        assert [v.hex() for v in rollout.totals.tolist()] == [
            add_in_order(r).hex() for r in rewards.tolist()]


class TestHyperValidation:
    def test_bad_gamma(self):
        with pytest.raises(NetError):
            TrainHyper(gamma=0.0)

    def test_bad_lr(self):
        with pytest.raises(NetError):
            TrainHyper(lr=-1.0)

    @pytest.mark.parametrize("key, value", [
        ("gamma", np.nan), ("entropy_coef", -0.1), ("entropy_coef", np.nan),
        ("entropy_coef", np.inf), ("value_coef", -1.0), ("value_coef", np.nan),
        ("lr", 0.0), ("lr", np.nan), ("lr", np.inf), ("rollout_len", 0),
        ("rollout_len", -3), ("clip_norm", -1.0), ("clip_norm", np.nan)])
    def test_each_field_checked_nan_included(self, key, value):
        with pytest.raises(NetError, match=f"^{key} must be .*, got {value!r}$"):
            TrainHyper(**{key: value})

    def test_zero_clip_norm_turns_clipping_off(self, rng):
        p = small_params()
        traj = random_trajectory(p, rng, length=10)
        big = Episode(traj.states, traj.actions, [r * 1e4 for r in traj.rewards], 0.0)
        grads, _ = one_model_gradients(p, big, TrainHyper(clip_norm=0.0))
        ref, _ = loop_gradients(p, big, TrainHyper(clip_norm=0.0))
        assert np.sqrt(np.sum(grads.flat ** 2)) > 40.0
        assert np.max(np.abs(grads.flat - ref.flat)) <= 1e-12 * np.max(np.abs(ref.flat))


@st.composite
def flat_cases(draw):
    """A random architecture, a frozen prefix of its layers and a value seed."""
    dims = tuple(draw(st.lists(st.integers(1, 9), min_size=2, max_size=4)))
    ladder = draw(st.integers(2, 9))
    frozen = draw(st.integers(0, len(dims) + 1))
    return dims, ladder, frozen, draw(st.integers(0, 2**32 - 1))


def random_grads(params, rng):
    g = zero_gradients(params)
    g.flat[:] = rng.normal(size=g.flat.size)
    return g


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatLayout:
    """The flat-vector operations against per-layer reference formulas."""

    @settings(max_examples=60, deadline=None)
    @given(flat_cases())
    def test_flat_ops_match_per_layer_reference(self, case):
        arch, ladder, frozen, seed = case
        rng = np.random.default_rng(seed)
        p = init_params(arch, ladder, seed=seed)
        p.flat[:] = rng.normal(size=p.flat.size)
        grads = [random_grads(p, rng) for _ in range(3)]
        updated, zeroed = p.copy(), grads[0].copy()
        zero_frozen(zeroed, frozen)
        apply_update(updated, zeroed, 0.1)
        for i in range(p.n_layers):
            for got, zg, pa, ga in ((updated.weights[i], zeroed.weights[i],
                                     p.weights[i], grads[0].weights[i]),
                                    (updated.biases[i], zeroed.biases[i],
                                     p.biases[i], grads[0].biases[i])):
                if i < frozen:
                    assert same_bits(got, pa)
                    assert same_bits(zg, np.zeros_like(ga))
                else:
                    assert same_bits(got, pa - 0.1 * ga)
                    assert same_bits(zg, ga)

        # One round of three clients steps the group model by the mean of their
        # payloads, summed one after another in client-id order.
        for g in grads:
            zero_frozen(g, frozen)
        coord = Coordinator(p, server_lr=0.1)
        mean = zero_gradients(p)
        for i in range(p.n_layers):
            for part in ("weights", "biases"):
                ref = getattr(mean, part)[i]
                ref[...] = getattr(grads[0], part)[i]
                for g in grads[1:]:
                    ref += getattr(g, part)[i]
                ref /= len(grads)
        order = (2, 0, 1)
        for i in order:
            coord.register(f"c{i}", 7)
        coord.submit(UpdateMessage(tuple(f"c{i}" for i in order),
                                   Gradients(np.stack([grads[i].flat for i in order]), p.layout)))
        stepped = p.copy()
        apply_update(stepped, mean, 0.1)
        assert same_bits(coord.fetch(7).flat, stepped.flat)

        other = init_params(arch, ladder, seed=seed + 1)
        mixed = p.copy()
        personalize(mixed, other, 0.3)
        for part in ("weights", "biases"):
            for got, a, b in zip(getattr(mixed, part), getattr(p, part), getattr(other, part)):
                assert same_bits(got, 0.3 * a + (1.0 - 0.3) * b)

    @settings(max_examples=30, deadline=None)
    @given(flat_cases())
    def test_views_alias_the_flat_buffer(self, case):
        arch, ladder, _, seed = case
        p = init_params(arch, ladder, seed=seed)
        for arr in p.weights + p.biases:
            assert np.shares_memory(arr, p.flat)
            before = p.flat.copy()
            arr[(-1,) * arr.ndim] += 1.0
            assert np.count_nonzero(p.flat != before) == 1
        assert sum(a.size for a in p.weights + p.biases) == p.flat.size

    @settings(max_examples=30, deadline=None)
    @given(flat_cases())
    def test_checkpoint_roundtrip_v1_keys(self, tmp_path_factory, case):
        arch, ladder, _, seed = case
        p = init_params(arch, ladder, seed=seed)
        path = tmp_path_factory.mktemp("ckpt") / "model.npz"
        save_checkpoint(p, path)
        with np.load(path) as data:
            n = p.n_layers
            assert set(data.files) == ({"version", "n_layers", "activations"}
                                       | {f"w{i}" for i in range(n)}
                                       | {f"b{i}" for i in range(n)})
            assert data["activations"].tolist() == ["relu"] * p.n_hidden
            assert all(same_bits(data[f"w{i}"], p.weights[i]) for i in range(n))
            assert all(same_bits(data[f"b{i}"], p.biases[i]) for i in range(n))
        loaded = load_checkpoint(path)
        assert same_bits(loaded.flat, p.flat)
        assert loaded.hidden == arch[1:]

    @settings(max_examples=30, deadline=None)
    @given(flat_cases(), st.integers(0, 3))
    def test_other_architecture_rejected(self, case, grow):
        arch, ladder, _, seed = case
        p = init_params(arch, ladder, seed=seed)
        # Same number of layers, one dimension larger somewhere.
        dims = list(arch)
        dims[min(grow, len(dims) - 1)] += 1
        other = init_params(tuple(dims), ladder, seed)
        with pytest.raises(NetError, match="shape"):
            apply_update(p, zero_gradients(other), 0.1)


class TestInPlaceStack:
    """`apply_update`, `zero_frozen` and `personalize` change their first argument in
    place, over the last axis: on a (K, n) stack each row gets the bits of the same
    call on that row alone, and the other arguments keep theirs."""

    @settings(max_examples=60, deadline=None)
    @given(flat_cases(), st.integers(1, 5), st.floats(0.0, 1.0))
    def test_stack_equals_row_by_row(self, case, k, mix):
        arch, ladder, frozen, seed = case
        rng = np.random.default_rng(seed)
        layout = init_params(arch, ladder, seed=seed).layout
        rows = [random_grads(init_params(arch, ladder, seed=seed), rng) for _ in range(3 * k)]
        models, grads, groups = (ModelParams.stack(rows[i::3]) for i in range(3))
        args = [m.copy() for m in (grads, groups)]
        stacked = [m.copy() for m in (models, grads, models)]
        assert apply_update(stacked[0], grads, 0.1) is None
        assert zero_frozen(stacked[1], frozen) is None
        assert personalize(stacked[2], groups, mix) is None
        for i in range(k):
            row = [ModelParams(m.flat[i].copy(), layout) for m in (models, grads, models)]
            apply_update(row[0], ModelParams(grads.flat[i], layout), 0.1)
            zero_frozen(row[1], frozen)
            personalize(row[2], ModelParams(groups.flat[i], layout), mix)
            for got, want in zip(stacked, row):
                assert same_bits(got.flat[i], want.flat)
        assert same_bits(grads.flat, args[0].flat) and same_bits(groups.flat, args[1].flat)

    def test_divergent_stack_is_updated_then_reported(self):
        models = ModelParams.stack([small_params(0), small_params(1)])
        grads = zero_gradients(models)
        grads.flat[1, -1] = np.inf
        with pytest.raises(DivergenceError, match="non-finite update"):
            apply_update(models, grads, 0.1)
        assert np.isfinite(models.flat[0]).all() and not np.isfinite(models.flat[1, -1])


def loop_gradients(params, traj, hyper):
    """Reference: the rollout gradient accumulated one step at a time, with
    each state pushed through the network on its own."""
    returns = discounted_returns(traj.rewards, traj.bootstrap_value, hyper.gamma)
    grads = zero_gradients(params)
    gw, gb = grads.weights, grads.biases
    loss = 0.0
    for t, (s, a) in enumerate(zip(traj.states, traj.actions)):
        pre, post = [], [np.asarray(s, dtype=float)]
        for w, b in zip(params.weights[:-2], params.biases[:-2]):
            pre.append(w @ post[-1] + b)
            post.append(np.maximum(pre[-1], 0.0))
        feat = post[-1]
        logits = params.weights[-2] @ feat + params.biases[-2]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        value = float((params.weights[-1] @ feat + params.biases[-1])[0])
        adv = returns[t] - value
        entropy = -float(np.sum(probs * np.log(probs)))
        loss += (-np.log(probs[a]) * adv + hyper.value_coef * adv ** 2
                 - hyper.entropy_coef * entropy)
        dlogits = adv * probs
        dlogits[a] -= adv
        dlogits += hyper.entropy_coef * probs * (np.log(probs) + entropy)
        dvalue = -2.0 * hyper.value_coef * adv
        gw[-2][:] += np.outer(dlogits, feat)
        gb[-2][:] += dlogits
        gw[-1][:] += dvalue * feat[None, :]
        gb[-1][:] += dvalue
        dh = params.weights[-2].T @ dlogits + dvalue * params.weights[-1][0]
        for i in range(params.n_hidden - 1, -1, -1):
            dz = dh * (pre[i] > 0)
            gw[i][:] += np.outer(dz, post[i])
            gb[i][:] += dz
            dh = params.weights[i].T @ dz
    if hyper.clip_norm > 0:
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in gw + gb))
        if norm > hyper.clip_norm:
            grads.flat *= hyper.clip_norm / norm
    return grads, loss


def assert_matches_loop(params, traj, hyper):
    grads, loss = one_model_gradients(params, traj, hyper)
    ref, ref_loss = loop_gradients(params, traj, hyper)
    scale = np.max(np.abs(ref.flat))
    assert np.max(np.abs(grads.flat - ref.flat)) <= 1e-12 * scale
    assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)


@st.composite
def arch_cases(draw):
    """A random architecture, hyperparameters and a value seed."""
    arch = tuple(draw(st.lists(st.integers(1, 9), min_size=2, max_size=4)))
    hyper = TrainHyper(gamma=draw(st.sampled_from([0.9, 0.99, 1.0])),
                       entropy_coef=draw(st.sampled_from([0.0, 0.01, 0.5])),
                       value_coef=draw(st.sampled_from([0.0, 0.1, 0.5])),
                       clip_norm=draw(st.sampled_from([0.0, 1.0, 40.0])))
    return arch, draw(st.integers(2, 9)), hyper, draw(st.integers(0, 2**32 - 1))


class TestBatchedGradients:
    """The batched backward pass against the per-step loop reference."""

    @settings(max_examples=150, deadline=None)
    @given(arch_cases(), st.integers(1, 16))
    def test_matches_per_step_loop(self, case, length):
        arch, ladder, hyper, seed = case
        rng = np.random.default_rng(seed)
        p = init_params(arch, ladder, seed=seed)
        p.flat[:] = rng.normal(size=p.flat.size)
        assert_matches_loop(p, random_trajectory(p, rng, length), hyper)

    @settings(max_examples=60, deadline=None)
    @given(arch_cases(), st.integers(1, 40), st.integers(1, 3))
    def test_rollouts_truncated_at_episode_end(self, case, episode_len, history_len):
        arch, ladder, hyper, seed = case
        env_config = EnvConfig(ladder=tuple(300.0 * (i + 1) for i in range(ladder)),
                               history_len=history_len, episode_len=episode_len)
        arch = (env_config.state_dim, *arch[1:])
        p = init_params(arch, ladder, seed=seed)
        rng = np.random.default_rng(seed)
        env = StreamEnv(constant_trace(1000.0, duration=60), env_config)
        state = env.reset()
        lengths = []
        while not env.done:
            rollout, (state,) = collect_rollout([env], as_stack(p), [state], 16, [rng])
            lengths.append(rollout.states.shape[1])
            assert_matches_loop(p, episode_of(rollout), hyper)
        assert lengths == [16] * (episode_len // 16) + [episode_len % 16] * (episode_len % 16 > 0)


def per_client_gradients(params, traj, hyper):
    """Reference: one client's learner on its own, in the per-client form that
    the stacked pass replaces: 2-D products over its (T, d) states, sums over
    the step axis, and the clip norm summed layer by layer as Python floats."""
    x = np.asarray(traj.states, dtype=float)
    returns = discounted_returns(traj.rewards, traj.bootstrap_value, hyper.gamma)
    pre, post = [], [x]
    h = x
    for w, b in zip(params.weights[:-2], params.biases[:-2]):
        pre.append(h @ w.T + b)
        h = np.maximum(pre[-1], 0.0)
        post.append(h)
    logits = h @ params.weights[-2].T + params.biases[-2]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    values = (h @ params.weights[-1].T + params.biases[-1])[..., 0]
    steps, actions = np.arange(len(x)), np.asarray(traj.actions)
    # p log p -> 0 as p -> 0: a rate of probability 0 adds 0 to the entropy and its
    # gradient, so its log is taken as log 1 there; the taken actions' logs are exact.
    log_probs = np.log(np.where(probs > 0.0, probs, 1.0))
    adv = returns - values
    entropy = -np.sum(probs * log_probs, axis=1)
    loss = np.sum(-np.log(probs[steps, actions]) * adv + hyper.value_coef * adv ** 2
                  - hyper.entropy_coef * entropy)
    dlogits = adv[:, None] * probs
    dlogits[steps, actions] -= adv
    dlogits += hyper.entropy_coef * probs * (log_probs + entropy[:, None])
    dvalue = -2.0 * hyper.value_coef * adv
    grads = zero_gradients(params)
    gw, gb = grads.weights, grads.biases
    gw[-2][:] = dlogits.T @ h
    gb[-2][:] = dlogits.sum(axis=0)
    gw[-1][:] = dvalue @ h
    gb[-1][:] = dvalue.sum()
    dh = dlogits @ params.weights[-2] + dvalue[:, None] * params.weights[-1][0]
    for i in range(params.n_hidden - 1, -1, -1):
        dz = dh * (pre[i] > 0)
        gw[i][:] = dz.T @ post[i]
        gb[i][:] = dz.sum(axis=0)
        dh = dz @ params.weights[i]
    if hyper.clip_norm > 0:
        total = np.sqrt(add_in_order(float(np.sum(g * g)) for g in gw)
                        + add_in_order(float(np.sum(g * g)) for g in gb))
        if total > hyper.clip_norm:
            grads.flat *= hyper.clip_norm / total
    return grads, float(loss)


@st.composite
def stacked_cases(draw):
    """K models of one random architecture (hidden widths up to 64), K
    trajectories of one length, hyperparameters with clipping off, tight or
    loose, and a value seed."""
    k = draw(st.integers(1, 8))
    arch = (draw(st.integers(1, 9)), *draw(st.lists(st.integers(1, 64), min_size=1, max_size=2)))
    hyper = TrainHyper(gamma=draw(st.sampled_from([0.9, 0.99, 1.0])),
                       entropy_coef=draw(st.sampled_from([0.0, 0.01, 0.5])),
                       value_coef=draw(st.sampled_from([0.0, 0.1, 0.5])),
                       clip_norm=draw(st.sampled_from([0.0, 0.5, 40.0])))
    return (k, arch, draw(st.integers(2, 9)), draw(st.integers(1, 16)), hyper,
            draw(st.integers(0, 2**32 - 1)))


def stacked_inputs(k, arch, ladder, length, seed):
    """K perturbed random models (probabilities far from uniform) and a random
    trajectory for each."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(k):
        p = init_params(arch, ladder, seed=seed + i)
        p.flat[:] += rng.normal(scale=0.3, size=p.flat.size)
        models.append(p)
    return models, [random_trajectory(p, rng, length) for p in models]


class TestStackedGradients:
    """One `a3c_gradients` call for K clients against the per-client loop."""

    @settings(max_examples=200, deadline=None)
    @given(stacked_cases())
    def test_matches_per_client_loop_bit_for_bit(self, case):
        k, arch, ladder, length, hyper, seed = case
        models, trajs = stacked_inputs(k, arch, ladder, length, seed)
        grads, losses = gradients_of(ModelParams.stack(models), as_rollout(trajs), hyper)
        assert grads.flat.shape == (k, models[0].flat.size) and losses.shape == (k,)
        for i, (p, traj) in enumerate(zip(models, trajs)):
            ref, ref_loss = per_client_gradients(p, traj, hyper)
            assert same_bits(grads.flat[i], ref.flat)
            assert losses[i].hex() == ref_loss.hex()

    def test_non_finite_row_is_returned_for_the_caller(self):
        models, trajs = stacked_inputs(3, ARCH, 4, 6, seed=1)
        models[1].flat[0] = np.nan
        hyper = TrainHyper()
        with np.errstate(invalid="ignore"):
            grads, losses = gradients_of(ModelParams.stack(models), as_rollout(trajs), hyper)
        assert not np.isfinite(grads.flat[1]).all()
        for i in (0, 2):
            ref, ref_loss = per_client_gradients(models[i], trajs[i], hyper)
            assert same_bits(grads.flat[i], ref.flat) and losses[i] == ref_loss

    def zero_probability_case(self, taken):
        """Three models whose middle one's policy bias drives rate 2's probability to
        exactly 0.0 at every step; that client takes rate 2 at step 0 iff `taken`."""
        models, trajs = stacked_inputs(3, ARCH, 4, 6, seed=4)
        models[1].biases[-2][2] = -1e4
        actions = [1 if a == 2 else a for a in trajs[1].actions]
        trajs[1] = trajs[1]._replace(actions=[2] * taken + actions[taken:])
        assert all(forward(models[1], s)[0][2] == 0.0 for s in trajs[1].states)
        return models, trajs

    def test_zero_probability_adds_nothing_to_the_entropy(self):
        models, trajs = self.zero_probability_case(taken=False)
        hyper = TrainHyper(entropy_coef=0.5, clip_norm=0.0)
        with np.errstate(divide="ignore"):
            grads, losses = gradients_of(ModelParams.stack(models), as_rollout(trajs), hyper)
        for i, (p, traj) in enumerate(zip(models, trajs)):
            ref, ref_loss = per_client_gradients(p, traj, hyper)
            assert same_bits(grads.flat[i], ref.flat) and losses[i].hex() == ref_loss.hex()
        assert np.isfinite(grads.flat).all() and np.isfinite(losses).all()

    def test_taken_zero_probability_action_has_no_finite_loss(self):
        models, trajs = self.zero_probability_case(taken=True)
        with np.errstate(divide="ignore"):
            grads, losses = gradients_of(ModelParams.stack(models), as_rollout(trajs),
                                         TrainHyper(clip_norm=0.0))
        assert np.isfinite(losses).tolist() == [True, False, True]
        with pytest.raises(DivergenceError, match="^non-finite loss or gradient$") as e:
            sgd_step(ModelParams.stack(models), grads, losses, 0.1)
        assert e.value.row == 1

    def test_fills_the_callers_stack(self):
        models, trajs = stacked_inputs(3, ARCH, 4, 6, seed=3)
        stack, rollout = ModelParams.stack(models), as_rollout(trajs)
        want, want_losses = gradients_of(stack, rollout, TrainHyper())
        grads = zero_gradients(stack)
        grads.flat[:] = np.nan  # what the buffer held before is overwritten
        losses = a3c_gradients(stack, rollout, TrainHyper(), grads)
        assert same_bits(grads.flat, want.flat) and same_bits(losses, want_losses)

    def test_trajectories_must_match_the_stack(self, rng):
        models, trajs = stacked_inputs(3, ARCH, 4, 6, seed=2)
        stack = ModelParams.stack(models)
        with pytest.raises(NetError, match="for models of shape"):
            a3c_gradients(stack, as_rollout(trajs[:2]), TrainHyper(), zero_gradients(stack))
        one_model = r"states of shape \(3, 6, 5\) for models of shape \(137,\)"
        with pytest.raises(NetError, match=one_model):
            a3c_gradients(models[0], as_rollout(trajs), TrainHyper(), zero_gradients(models[0]))
        wide = [t._replace(states=[np.append(s, 0.0) for s in t.states]) for t in trajs]
        with pytest.raises(NetError, match=r"states of shape \(3, 6, 6\)"):
            a3c_gradients(stack, as_rollout(wide), TrainHyper(), zero_gradients(stack))


class TestSgdStep:
    """`sgd_step`, the divergence check that pretraining and the round loop share."""

    def test_finite_step_is_apply_update(self, rng):
        models = ModelParams.stack([small_params(i) for i in range(3)])
        grads = ModelParams.stack([random_grads(small_params(), rng) for _ in range(3)])
        want, upload = models.copy(), grads.copy()
        zero_frozen(upload, 1)
        apply_update(want, upload, 0.1)
        assert sgd_step(models, grads, np.zeros(3), 0.1, 1) is None
        assert same_bits(models.flat, want.flat)

    def test_all_frozen(self, rng):
        models = ModelParams.stack([small_params(i) for i in range(2)])
        grads = ModelParams.stack([random_grads(small_params(), rng) for _ in range(2)])
        before = models.copy()
        sgd_step(models, grads, np.zeros(2), 0.1, models.n_layers)
        assert same_bits(models.flat, before.flat)
        assert same_bits(grads.flat, np.zeros_like(grads.flat))

    def test_frozen_prefix_is_checked_then_zeroed(self, rng):
        """A non-finite gradient in a frozen layer still fails its row, since the zeroing
        comes after the check; a finite step keeps the frozen layer's bits and leaves
        zeros in that layer of `grads`, the clients' upload."""
        models = ModelParams.stack([small_params(i) for i in range(3)])
        grads = ModelParams.stack([random_grads(small_params(), rng) for _ in range(3)])
        spoiled = grads.copy()
        spoiled.weights[0][1, 0, 0] = np.nan  # row 1, layer 0 only; every loss is finite
        with pytest.raises(DivergenceError) as info:
            sgd_step(models.copy(), spoiled, np.zeros(3), 0.1, frozen_layers=1)
        assert str(info.value) == "non-finite loss or gradient" and info.value.row == 1

        before, end = models.copy(), models.layout.offsets[1]
        sgd_step(models, grads, np.zeros(3), 0.1, frozen_layers=1)
        assert same_bits(models.flat[:, :end], before.flat[:, :end])
        assert same_bits(grads.flat[:, :end], np.zeros((3, end)))

    def test_checks_layout_and_frozen_range(self):
        models = ModelParams.stack([small_params(i) for i in range(2)])
        with pytest.raises(NetError, match="gradient shape mismatch"):
            sgd_step(models, zero_gradients(ModelParams.stack([init_params((5, 7), 6, 0)] * 2)),
                     np.zeros(2), 0.1)
        with pytest.raises(NetError, match="cannot freeze 5 of 4 layers"):
            sgd_step(models, zero_gradients(models), np.zeros(2), 0.1, frozen_layers=5)

    @pytest.mark.parametrize("spoiled, row, what", [
        ({2: "loss"}, 2, "loss or gradient"),
        ({1: "update", 2: "gradient"}, 1, "update"),
        ({1: "gradient", 2: "update"}, 1, "loss or gradient"),
        ({0: "frozen gradient", 1: "update"}, 0, "loss or gradient"),
    ])
    def test_names_the_first_failing_row(self, spoiled, row, what):
        models = ModelParams.stack([small_params(i) for i in range(3)])
        grads, losses = zero_gradients(models), np.zeros(3)
        grads.flat[:, -2] = 1.0  # every row's step moves this entry
        for i, kind in spoiled.items():
            if kind == "loss":
                losses[i] = np.nan
            elif kind == "gradient":
                grads.flat[i, -1] = np.inf
            elif kind == "frozen gradient":
                grads.flat[i, 0] = np.nan
            else:  # a finite gradient whose step overflows
                models.flat[i, -1], grads.flat[i, -1] = 1.7e308, -1e308
        before = models.copy()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            sgd_step(models, grads, losses, 1.0, frozen_layers=1)
        assert str(info.value) == f"non-finite {what}" and info.value.row == row
        assert (models.flat[:, -2] == before.flat[:, -2] - 1.0).all()  # every row stepped


def layerwise_clip_global_norm(grads, max_norm):
    """Reference: `_clip_global_norm` as it was, squaring and summing each layer's
    weight and bias views on their own."""
    if max_norm == 0:
        return
    lead = grads.flat.shape[:-1]
    # Summed layer by layer, weights then biases: the order fixes the rounding.
    total = np.sqrt(sum((g * g).reshape(*lead, -1).sum(axis=-1) for g in grads.weights)
                    + sum((g * g).reshape(*lead, -1).sum(axis=-1) for g in grads.biases))
    if (total > max_norm).any():  # a row within the bound is scaled by exactly 1.0
        grads.flat *= (max_norm / np.maximum(total, max_norm))[..., None]


class TestClipOracle:
    @settings(max_examples=150, deadline=None)
    @given(flat_cases(), st.integers(1, 8), st.sampled_from([0.0, 1e-3, 40.0]), st.data())
    def test_matches_layerwise_clip(self, case, k, clip_norm, data):
        """Rows scaled from 1e-150 to 1e150, so that squares underflow or overflow,
        and rows holding an inf or a NaN."""
        dims, ladder, _, seed = case
        layout = init_params(dims, ladder, seed).layout
        flat = np.random.default_rng(seed).normal(size=(k, layout.offsets[-1]))
        for row in flat:
            row *= 10.0 ** data.draw(st.floats(-150.0, 150.0))
            spoil = data.draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
            if spoil is not None:
                row[data.draw(st.integers(0, len(row) - 1))] = spoil
        grads, ref = Gradients(flat.copy(), layout), Gradients(flat.copy(), layout)
        with np.errstate(all="ignore"):
            _clip_global_norm(grads, clip_norm)
            layerwise_clip_global_norm(ref, clip_norm)
        assert same_bits(grads.flat, ref.flat)


def reference_softmax(logits):
    """Reference: `_softmax` as it was, reducing with kept dimensions at any rank."""
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def reference_forward_full(params, x, value=True):
    """Reference: `_forward_full` as it was, every product through `@` (`np.matmul`) and the
    policy bias added out of place."""
    hidden, (_, w_pi, b_pi), (_, w_v, b_v) = params._operands
    post, h = [x], x
    for _, w, b in hidden:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        post.append(h)
    return post, reference_softmax(h @ w_pi + b_pi), (h @ w_v + b_v)[..., 0] if value else None


def reference_forward(params, state):
    """Reference: `forward` as it was, on `reference_forward_full`."""
    state = np.asarray(state, dtype=float)
    if params.flat.ndim == 1:
        if state.shape != (params.input_dim,):
            raise NetError(f"state shape {state.shape} != ({params.input_dim},)")
        if not np.all(np.isfinite(state)):
            raise NetError("non-finite state input")
        _, probs, value = reference_forward_full(params, state)
        return probs, float(value)
    need = (len(params.flat), params.input_dim)
    if state.shape[-2:] != need:
        raise NetError(f"state shape {state.shape} != (..., {need[0]}, {need[1]})")
    _, probs, values = reference_forward_full(params, state[..., None, :])
    return probs[..., 0, :], values[..., 0]


def one_model_case(dims, ladder, spread, seed):
    """A model of `dims` (as `init_params` takes them) with random biases and a policy
    head scaled by `spread`, which sets the logits far apart, so that softmax underflows
    to 0 for all but the largest; and the generator that drew the biases."""
    params = init_params(dims, ladder, seed)
    rng = np.random.default_rng(seed)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    params.weights[-2][:] *= spread
    return params, rng


# The input width, then one to three hidden widths.
ONE_MODEL_DIMS = st.tuples(st.integers(1, 40), st.lists(st.integers(1, 80), min_size=1,
                                                        max_size=3)).map(lambda t: (t[0], *t[1]))


class TestForwardOracle:
    """One model's pass computes its products with `np.dot`, the reference with `@`; they
    must give the same bytes, as must one state's pass and the (1, n) stack's."""

    @settings(max_examples=150, deadline=None)
    @given(ONE_MODEL_DIMS, st.integers(2, 9), st.sampled_from([1.0, 30.0, 1e3, 1e5]),
           st.integers(0, 2**32 - 1))
    def test_one_state_matches_reference(self, dims, ladder, spread, seed):
        params, rng = one_model_case(dims, ladder, spread, seed)
        d = dims[0]
        for state in rng.normal(size=(4, d)) * rng.uniform(0.0, 10.0, size=(4, 1)):
            (probs, value), (ref_probs, ref_value) = (forward(params, state),
                                                      reference_forward(params, state))
            assert same_bits(probs, ref_probs)
            assert type(value) is float and value.hex() == ref_value.hex()
            (probs, values), (ref_probs, ref_values) = (
                forward(as_stack(params), state[None]),
                reference_forward(as_stack(params), state[None]))
            assert same_bits(probs, ref_probs) and same_bits(values, ref_values)

    @settings(max_examples=100, deadline=None)
    @given(ONE_MODEL_DIMS, st.integers(2, 9), st.sampled_from([1.0, 30.0, 1e3, 1e5]),
           st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_state_matrix_matches_reference(self, dims, ladder, spread, t, seed):
        """A (T, d) matrix of states through one model, compared by bytes with `@`."""
        params, rng = one_model_case(dims, ladder, spread, seed)
        x = rng.normal(size=(t, dims[0])) * rng.uniform(0.0, 10.0)
        post, probs = _forward_full(params, x)
        ref_post, ref_probs, _ = reference_forward_full(params, x)
        assert len(post) == len(ref_post)
        assert all(same_bits(a, b) for a, b in zip(post, ref_post))
        assert same_bits(probs, ref_probs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_non_finite_state_rejected_in_every_position(self, d, seed):
        params = init_params((d, 8), 3, seed)
        state = np.random.default_rng(seed).normal(size=d)
        for i in range(d):
            for spoil in (np.inf, -np.inf, np.nan):
                bad = state.copy()
                bad[i] = spoil
                with pytest.raises(NetError, match="^non-finite state input$"):
                    forward(params, bad)
                with pytest.raises(NetError, match="^non-finite state input$"):
                    forward(params, bad.tolist())

    def test_huge_finite_state_accepted(self):
        """Entries of +-1e308, whose sum overflows, are finite: the pass runs (its products
        overflow, which the caller's error state governs) and raises nothing."""
        state = np.resize([1e308, -1e308, 1e308, 1e308], 7)
        with np.errstate(all="ignore"):
            forward(init_params((7, 16), 5, seed=3), state)

    def test_one_by_one_weights_keep_signed_zeros(self):
        """A 1 x 1 weight (input width 1 into hidden width 1, or the value head on a last
        hidden layer of width 1) where `np.dot` would give x * w and `@` 0.0 + x * w: every
        sign of zero in the state, weights and biases gives the reference's bytes."""
        signs = (0.0, -0.0)
        for x, w, b, w_v, b_v in itertools.product((0.0, -0.0, 1.5, -2.0), (0.0, -0.0, 1.0, -1.0),
                                                    signs, (0.0, -0.0, 1.0), signs):
            params = ModelParams.from_layers([[[w]], [[w]], [[1.0], [-1.0]], [[w_v]]],
                                             [[b], [b], [0.5, -0.5], [b_v]])
            state = np.array([x])
            (probs, value), (ref_probs, ref_value) = (forward(params, state),
                                                      reference_forward(params, state))
            assert same_bits(probs, ref_probs) and value.hex() == ref_value.hex()
            for states in (state, state[None], np.array([[x], [1.0]])):
                post, probs = _forward_full(params, states)
                ref_post, ref_probs, _ = reference_forward_full(params, states)
                assert all(same_bits(p, q) for p, q in zip(post, ref_post))
                assert same_bits(probs, ref_probs)

    def test_far_apart_logits_underflow(self):
        params = init_params((7, 16), 5, seed=3)
        params.weights[-2][:] *= 1e5
        probs, _ = forward(params, np.ones(7))
        assert (probs == 0.0).sum() == 4 and probs.max() == 1.0


class TestStackedForward:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 3), st.lists(st.integers(1, 64), min_size=1,
                                                          max_size=3),
           st.integers(0, 2**32 - 1))
    def test_rows_match_one_model_calls(self, k, m, hidden, seed):
        """(K, d) states, or (M, K, d) with M states per model, as in evaluation: the
        stack's `np.matmul` products give the bits of each model's own `np.dot` ones."""
        rng = np.random.default_rng(seed)
        models = [init_params((7, *hidden), 5, seed=seed + i) for i in range(k)]
        lead = (m,) if m else ()
        states = rng.normal(size=(*lead, k, 7))
        probs, values = forward(ModelParams.stack(models), states)
        assert probs.shape == (*lead, k, 5) and values.shape == (*lead, k)
        for idx in np.ndindex(*lead, k):
            ref_probs, ref_value = forward(models[idx[-1]], states[idx])
            assert same_bits(probs[idx], ref_probs) and values[idx].hex() == ref_value.hex()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9),
           st.lists(st.integers(1, 64), min_size=1, max_size=3), st.integers(2, 9),
           st.sampled_from([0.1, 1.0, 100.0]), st.integers(0, 2**32 - 1))
    def test_state_values_match_forward(self, k, d, hidden, ladder, scale, seed):
        """The value-only pass that bootstraps a rollout gives the bytes of the stacked
        `forward`'s values, for random stacks (biases included) and random states."""
        rng = np.random.default_rng(seed)
        models = ModelParams.stack([init_params((d, *hidden), ladder, seed + i)
                                    for i in range(k)])
        models.flat[:] += rng.normal(scale=0.3, size=models.flat.shape)
        states = rng.normal(size=(k, d)) * scale
        assert state_values(models, states).tobytes() == forward(models, states)[1].tobytes()

    def test_stack_shape_checked(self):
        stack = ModelParams.stack([small_params(0), small_params(1)])
        with pytest.raises(NetError, match=r"state shape \(3, 5\) != \(\.\.\., 2, 5\)"):
            forward(stack, np.ones((3, 5)))
        with pytest.raises(NetError, match=r"state shape \(5,\) != \(\.\.\., 2, 5\)"):
            forward(stack, np.ones(5))


@st.composite
def inference_cases(draw):
    """A model or a stack of K = 1..6 models with random biases, a policy head scaled by
    up to 1e5 (so that softmax underflows), a value head that may be all signed zeros, and
    an input: one state or a (T, d) matrix for one model, the (K, T, d) states for a stack."""
    hidden = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    ladder, spread = draw(st.integers(2, 9)), draw(st.sampled_from([1.0, 30.0, 1e3, 1e5]))
    k, seed = draw(st.integers(0, 6)), draw(st.integers(0, 2**32 - 1))  # k = 0: one model
    zeros = st.sampled_from([0.0, -0.0])
    models = []
    for i in range(max(k, 1)):
        params = init_params((7, *hidden), ladder, seed + i)
        biases = np.random.default_rng(seed + i).normal(size=params.flat.shape)
        for b in params.biases:
            b[:] = biases[:len(b)]
        params.weights[-2][:] *= spread
        if draw(st.booleans()):
            params.weights[-1][:] = draw(zeros)
            params.biases[-1][:] = draw(zeros)
        models.append(params)
    rng = np.random.default_rng(seed)
    lead = (k, draw(st.integers(1, 5))) if k else draw(st.sampled_from([(), (3,)]))
    x = rng.normal(size=(*lead, 7)) * rng.uniform(0.0, 10.0)
    return (ModelParams.stack(models) if k else models[0]), x


def signed_zero_value_head(weight, bias):
    """One model whose value head is all `weight` with bias `bias`, and one state."""
    params = init_params((7, 4), 3, seed=1)
    params.weights[-1][:] = weight
    params.biases[-1][:] = bias
    return params, np.linspace(-1.0, 1.0, 7)


class TestInferenceOracle:
    """`_forward_full`, the pass of `forward`, of a rollout step and of `a3c_gradients`,
    against the pass as it was, which also computed the values."""

    @settings(max_examples=200, deadline=None)
    @given(inference_cases())
    @example(signed_zero_value_head(0.0, -0.0))
    @example(signed_zero_value_head(-0.0, -0.0))
    @example(signed_zero_value_head(0.0, 0.0))
    @example(signed_zero_value_head(-0.0, 0.0))
    def test_matches_reference_forward_full(self, case):
        params, x = case
        post, probs = _forward_full(params, x)
        ref_post, ref_probs, ref_values = reference_forward_full(params, x)
        assert len(post) == len(ref_post)
        assert all(same_bits(a, b) for a, b in zip(post, ref_post))
        assert same_bits(probs, ref_probs)
        if x.ndim == 1:
            forward_probs, value = forward(params, x)
            assert same_bits(forward_probs, ref_probs)
            # hex() tells -0.0 from 0.0
            assert type(value) is float and value.hex() == float(ref_values).hex()


class TestLazyViews:
    def test_views_built_on_first_read(self):
        updated = small_params()
        apply_update(updated, zero_gradients(updated), 0.1)
        assert "_views" not in vars(updated)
        assert updated.n_layers == 4 and updated.input_dim == 5 and updated.ladder_size == 4
        assert "_views" not in vars(updated)
        assert np.shares_memory(updated.weights[0], updated.flat)
        assert "_views" in vars(updated)

    def test_in_place_edits_reach_forward(self):
        p = small_params()
        state = np.ones(5)
        before, _ = forward(p, state)
        p.weights[-2][:] = 0.0  # after the first forward has cached its operands
        after, _ = forward(p, state)
        assert not np.array_equal(before, after) and np.allclose(after, 0.25)
