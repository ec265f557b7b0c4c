"""Actor-critic network with explicit forward pass and analytic gradients.

Parameters are one float64 vector with per-layer views: a stack of ReLU
hidden layers followed by a policy head (one logit per ladder rate) and a
scalar value head. Updates are plain SGD so that averaging gradients across clients
and stepping equals stepping on the averaged gradient.
"""

from __future__ import annotations

import math
import zipfile
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from pathlib import Path

import numpy as np

from .traces import check_fields


class NetError(ValueError):
    pass


class DivergenceError(FloatingPointError):
    """Non-finite value encountered; the caller should reduce the learning rate.
    `row` is the first failing row of a checked (K, n) stack, if any."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class Layout:
    """Weight shapes (out_dim, in_dim) of the layers in a flat parameter vector.

    Each layer is one block, its weight matrix (row-major) then its bias, and
    the blocks follow layer order, so the first k layers form a prefix.
    """
    shapes: tuple[tuple[int, int], ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start of each layer's block, then the vector length."""
        return tuple(accumulate((out * (inp + 1) for out, inp in self.shapes), initial=0))

    @cached_property
    def bounds(self) -> tuple[tuple[int, int, int], ...]:
        """Each layer's (start, bias start, end) in the vector."""
        o = self.offsets
        return tuple((s, s + out * inp, e) for (out, inp), s, e in zip(self.shapes, o, o[1:]))


class ModelParams:
    """One float64 vector, or a (K, n) stack of K models; `weights`/`biases` are
    tuples of per-layer views into it, built on first read.

    Layers are ordered hidden layers first, then policy head, then value head.
    Gradients share the class, since they have the same layout.
    """

    def __init__(self, flat: np.ndarray, layout: Layout):
        self.flat = flat
        self.layout = layout

    @cached_property
    def _views(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer views; a (K, n) stack gives (K, out, in) weights, (K, out) biases."""
        lead, weights, biases = self.flat.shape[:-1], [], []
        for (out_dim, in_dim), (start, mid, end) in zip(self.layout.shapes, self.layout.bounds):
            weights.append(self.flat[..., start:mid].reshape(*lead, out_dim, in_dim))
            biases.append(self.flat[..., mid:end])
        return tuple(weights), tuple(biases)

    weights = property(lambda self: self._views[0])
    biases = property(lambda self: self._views[1])

    @cached_property
    def _operands(self):
        """(product, W^T, b) to apply as `product(h, wt) + b` for the hidden layers, then
        each head; h is (d,) or (T, d), or (K, T, d) for a stack. The product is `np.dot`
        for one model's weights, which calls the BLAS routine of `np.matmul` with less
        overhead, but not for a 1 x 1 one: there `np.dot` gives x * w, `@` 0.0 + x * w."""
        stacked = self.flat.ndim == 2
        ops = [(np.matmul if stacked or w.size == 1 else np.dot, w.swapaxes(-1, -2),
                b[:, None] if stacked else b) for w, b in zip(*self._views)]
        return ops[:-2], ops[-2], ops[-1]

    @classmethod
    def stack(cls, models: list["ModelParams"]) -> "ModelParams":
        """The (K, n) stack of K models of one layout, copied."""
        return cls(np.stack([m.flat for m in models]), models[0].layout)

    @classmethod
    def from_layers(cls, weights, biases) -> "ModelParams":
        """Pack per-layer weight matrices and bias vectors into one new vector. The
        layers must chain, both heads read the last hidden layer, the value head is scalar."""
        shapes = [np.shape(w) for w in weights]
        if len(shapes) != len(biases) or len(shapes) < 3 or any(
                len(s) != 2 or np.shape(b) != s[:1] for s, b in zip(shapes, biases)):
            raise NetError("need hidden layers and two heads, each a 2-D weight and a bias "
                           "of its output size")
        for i, (_, inputs) in enumerate(shapes[1:], start=1):
            src = min(i - 1, len(shapes) - 3)
            if inputs != shapes[src][0]:
                raise NetError(f"layer {i} takes {inputs} inputs, but layer {src} has "
                               f"{shapes[src][0]} outputs")
        if shapes[-1][0] != 1:
            raise NetError(f"layer {len(shapes) - 1}, the value head, has {shapes[-1][0]} "
                           "outputs, not 1")
        flat = np.concatenate([np.ravel(a) for wb in zip(weights, biases) for a in wb], dtype=float)
        return cls(flat, Layout(tuple(shapes)))

    @property
    def n_layers(self) -> int:
        return len(self.layout.shapes)

    @property
    def n_hidden(self) -> int:
        return len(self.layout.shapes) - 2

    @property
    def hidden(self) -> tuple[int, ...]:
        """Widths of the hidden layers."""
        return tuple(out for out, _ in self.layout.shapes[:-2])

    @property
    def input_dim(self) -> int:
        return self.layout.shapes[0][1]

    @property
    def ladder_size(self) -> int:
        return self.layout.shapes[-2][0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layout)


Gradients = ModelParams


@dataclass(frozen=True)
class Rollout:
    """K clients' rollouts of T steps each: (K, T, d) states, (K, T) actions and
    rewards, and the (K,) values of the successor states that bootstrap the returns."""
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    bootstrap_values: np.ndarray

    def __post_init__(self):
        kt = self.states.shape[:2]
        if not (self.states.ndim == 3 and self.actions.shape == self.rewards.shape == kt
                and self.bootstrap_values.shape == kt[:1] and 0 not in kt):
            raise NetError(f"rollout of {self.states.shape} states, {self.actions.shape} actions, "
                           f"{self.rewards.shape} rewards and {self.bootstrap_values.shape} "
                           "bootstrap values: need (K, T, d), (K, T), (K, T), (K,), K, T >= 1")
        if not np.logical_and.reduce(np.isfinite(self.rewards), axis=None):
            raise NetError("non-finite reward in rollout")

    @property
    def totals(self) -> np.ndarray:
        """Each client's (K,) reward total, added in step order by `sum_in_order`."""
        return sum_in_order(self.rewards, axis=1)


def sum_in_order(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along `axis`, added in index order from 0.0: the bits of the builtin `sum` before
    Python 3.12 (which compensates) on any interpreter; `+ 0.0` makes -0.0 0.0, as `sum` does."""
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis) + 0.0


@dataclass(frozen=True)
class TrainHyper:
    gamma: float = 0.99
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    lr: float = 1e-3
    rollout_len: int = 16
    clip_norm: float = 40.0

    def __post_init__(self):
        check_fields(self, NetError, (
                ("gamma", 0.0 < self.gamma <= 1.0, "in (0, 1]"),
                ("entropy_coef", 0.0 <= self.entropy_coef < np.inf, "finite and >= 0"),
                ("value_coef", 0.0 <= self.value_coef < np.inf, "finite and >= 0"),
                ("lr", 0.0 < self.lr < np.inf, "finite and positive"),
                ("rollout_len", self.rollout_len >= 1, ">= 1"),
                ("clip_norm", self.clip_norm >= 0.0, ">= 0 (0 turns clipping off)")))


def init_params(dims: tuple[int, ...], ladder_size: int, seed: int) -> ModelParams:
    """Glorot-uniform weights (+-sqrt(6/(in+out))), zero biases; both heads on the last layer.

    `dims` is the input size followed by the hidden layer widths.
    """
    if len(dims) < 2 or min(dims) < 1:
        raise NetError(f"dims must be the input size and one or more hidden widths, "
                       f"all >= 1, got {dims}")
    if ladder_size < 2:
        raise NetError("ladder_size must be >= 2")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    layers = [*zip(dims, dims[1:]), (dims[-1], ladder_size), (dims[-1], 1)]
    for in_dim, out_dim in layers:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-limit, limit, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ModelParams.from_layers(weights, biases)


_ZERO = np.broadcast_to(0.0, ())  # the ReLU floor: a read-only 0-d array converts faster than 0.0


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place in `logits`. The ufuncs are called directly: on
    a rollout step's few values the ndarray methods' Python wrappers cost as much as the
    math, and one state's logits reduce to scalars, which round alike and cost less. One row
    takes the builtin `max` of its floats, exact, unless its sum is NaN: numpy propagates a NaN."""
    keep = logits.ndim > 1
    if keep:
        top = np.maximum.reduce(logits, axis=-1, keepdims=True)
    else:
        row = logits.tolist()
        top = np.maximum.reduce(logits) if math.isnan(sum(row)) else max(row)
    e = np.subtract(logits, top, out=logits)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=keep)
    return e


def _forward_full(params: ModelParams, x: np.ndarray, policy: bool = True) -> tuple:
    """Forward pass keeping intermediates for backprop: (activations from `x` on, policy
    probabilities or, if not `policy`, None), with no value: callers take it from the last
    activation, positive where its pre-activation is, so backprop needs no pre-activations.
    `x` is one state or a (T, d) matrix of states, one per row, or for a (K, n) stack of
    models the (..., K, T, d) stack of their states. For one state, `x @ W.T` rounds exactly
    as `W @ x`, and `np.matmul` makes each model's product of a stack on its own, so a
    stacked pass gives the bits of K separate ones."""
    hidden, (pi_product, w_pi, b_pi), _ = params._operands
    post, h = [x], x
    for product, w, b in hidden:
        h = product(h, w)
        h += b
        np.maximum(h, _ZERO, out=h)
        post.append(h)
    if not policy:
        return post, None
    logits = pi_product(h, w_pi)
    logits += b_pi
    return post, _softmax(logits)


def forward(params: ModelParams, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (policy probabilities, value estimate) for one state. For a (K, n) stack
    of models, states of shape (..., K, d), row k for model k, give (..., K, A)
    probabilities and (..., K) values. Only a single state is checked for finite
    values: stacked states come from the lockstep loops, whose simulator keeps every
    state in [0, 1]. One state's value is the head's product plus its bias, added as
    floats: the one add that a (1,) array add makes. One state is checked on its floats:
    a finite sum has finite terms, and only a sum that is not, which may have overflowed,
    makes each term be tested."""
    state = np.asarray(state, dtype=float)
    _, _, (v_product, w_v, b_v) = params._operands
    if params.flat.ndim == 1:
        if state.shape != (params.input_dim,):
            raise NetError(f"state shape {state.shape} != ({params.input_dim},)")
        row = state.tolist()
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise NetError("non-finite state input")
        post, probs = _forward_full(params, state)
        return probs, v_product(post[-1], w_v).item() + b_v.item()
    need = (len(params.flat), params.input_dim)
    if state.shape[-2:] != need:
        raise NetError(f"state shape {state.shape} != (..., {need[0]}, {need[1]})")
    post, probs = _forward_full(params, state[..., None, :])
    return probs[..., 0, :], (post[-1] @ w_v + b_v)[..., 0, 0]


def state_values(params: ModelParams, states: np.ndarray) -> np.ndarray:
    """`forward(params, states)[1]` of (K, d) `states`, by its ops, with no policy head."""
    post, _ = _forward_full(params, states[:, None], policy=False)
    _, w_v, b_v = params._operands[2]
    return (post[-1] @ w_v + b_v)[:, 0, 0]


def sample_actions(probs: np.ndarray, draws) -> list[int]:
    """Inverse-CDF sample of each row of the (K, A) `probs` from its draw in [0, 1): the count
    of the row's first A - 1 running sums below the draw. Those are a prefix (sums of terms
    >= 0 never fall, and a NaN sum is followed by NaNs), which `bisect_left` finds."""
    rows, last = np.add.accumulate(probs, axis=1).tolist(), probs.shape[1] - 1
    return [bisect_left(row, u, 0, last) for row, u in zip(rows, draws)]


def discounted_returns(rewards: list[float], bootstrap: float, gamma: float) -> list[float]:
    steps = accumulate(reversed(rewards), lambda acc, r: r + gamma * acc, initial=bootstrap)
    return list(steps)[:0:-1]  # in step order, without `bootstrap`


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(np.zeros_like(params.flat), params.layout)


def a3c_gradients(params: ModelParams, rollout: Rollout, hyper: TrainHyper,
                  grads: Gradients) -> np.ndarray:
    """Analytic gradients of the rollout loss -sum log pi(a)*A + c_v*(R-V)^2 - beta*H, with the
    advantage A = R - V held constant in the policy term, each model's global norm clipped at
    hyper.clip_norm, of the (K, n) stack `params` on the K clients of `rollout`: they fill the
    caller's (K, n) `grads`, and the K losses are returned, both unchecked (`sgd_step` checks).

    One pass over the (K, T, d) states: each layer's gradient sums its per-step outer products
    as one matrix product per model."""
    x = rollout.states
    if params.flat.ndim != 2 or (len(x), x.shape[2]) != (len(params.flat), params.input_dim):
        raise NetError(f"states of shape {x.shape} for models of shape {params.flat.shape}")
    returns = np.array([discounted_returns(r, v, hyper.gamma) for r, v in
                        zip(rollout.rewards.tolist(), rollout.bootstrap_values.tolist())])
    taken = rollout.actions[..., None] == np.arange(params.ladder_size)  # one-hot actions
    post, probs = _forward_full(params, x)
    _, w_v, b_v = params._operands[2]
    values = (post[-1] @ w_v + b_v)[..., 0]
    with np.errstate(divide="ignore"):  # log 0 = -inf, the taken and entropy terms below
        log_probs = np.log(probs)
    adv = returns - values
    # 0 + log p(a) is log p(a), which is never -0.0; not finite if p(a) = 0
    policy = -np.add.reduce(log_probs, axis=-1, where=taken) * adv
    if not np.logical_and.reduce(probs, axis=None):  # p log p -> 0 as p -> 0: a probability
        log_probs[probs == 0.0] = 0.0  # 0 adds 0 to H and its gradient
    entropy = -np.add.reduce(probs * log_probs, axis=-1)
    loss = np.add.reduce(policy + hyper.value_coef * adv ** 2 - hyper.entropy_coef * entropy, -1)

    # d/dlogits of the policy term (advantage constant) plus entropy term
    dlogits = adv[..., None] * probs
    np.subtract(dlogits, adv[..., None], out=dlogits, where=taken)
    dlogits += hyper.entropy_coef * probs * (log_probs + entropy[..., None])
    dvalue = -2.0 * hyper.value_coef * adv

    gw, gb = grads.weights, grads.biases
    weights = params.weights
    # Each layer's activations are dropped once the pass down has used them, and
    # the gradient at its pre-activation is formed in place, so that a stack of K
    # models keeps less memory alive at once.
    h = post.pop()
    np.matmul(dlogits.swapaxes(-1, -2), h, out=gw[-2])
    np.add.reduce(dlogits, axis=-2, out=gb[-2])
    np.matmul(dvalue[..., None, :], h, out=gw[-1])
    np.add.reduce(dvalue, axis=-1, keepdims=True, out=gb[-1])
    dh = dlogits @ weights[-2] + dvalue[..., None] * weights[-1]
    for i in range(params.n_hidden - 1, -1, -1):
        dh *= h > 0  # now the gradient at layer i's pre-activation
        h = post.pop()  # layer i's input
        np.matmul(dh.swapaxes(-1, -2), h, out=gw[i])
        np.add.reduce(dh, axis=-2, out=gb[i])
        if i > 0:
            dh = dh @ weights[i]
    _clip_global_norm(grads, hyper.clip_norm)
    return loss


def _clip_global_norm(grads: Gradients, max_norm: float) -> None:
    """Scale each model's gradient to norm at most `max_norm` (0: off); a gradient
    that is not finite stays so."""
    if max_norm == 0:
        return
    sq, add = grads.flat * grads.flat, np.add.reduce
    # Summed layer by layer, weights [s:m] then biases [m:e], each chain from its first
    # term (a sum of squares is never -0.0, so 0 + it is it): the order fixes the rounding.
    bounds = grads.layout.bounds
    total = np.sqrt(reduce(np.add, (add(sq[..., s:m], axis=-1) for s, m, _ in bounds))
                    + reduce(np.add, (add(sq[..., m:e], axis=-1) for _, m, e in bounds)))
    if np.logical_or.reduce(total > max_norm, axis=None):  # a row in bound scales by 1.0
        grads.flat *= (max_norm / np.maximum(total, max_norm))[..., None]


def apply_update(params: ModelParams, grads: Gradients, lr: float) -> None:
    """SGD step in place, over the last axis (one model or a (K, n) stack). DivergenceError,
    after the step, if an entry is not finite."""
    if grads.layout != params.layout:
        raise NetError("gradient shape mismatch")
    params.flat -= lr * grads.flat
    if not np.logical_and.reduce(np.isfinite(params.flat), axis=None):
        raise DivergenceError("non-finite update")


def sgd_step(models: ModelParams, grads: Gradients, losses: np.ndarray, lr: float,
             frozen_layers: int = 0) -> None:
    """SGD step of the (K, n) `grads` on the (K, n) stack `models`. The losses and whole
    gradient are checked, then `zero_frozen` makes `grads` the clients' upload and every
    row is stepped (a finite entry less `lr * 0.0` keeps its bits); DivergenceError names
    (as `row`) the first row whose loss or gradient, or else whose update, is not finite."""
    if grads.layout != models.layout:
        raise NetError("gradient shape mismatch")
    grad_ok = np.isfinite(losses) & np.logical_and.reduce(np.isfinite(grads.flat), axis=1)
    zero_frozen(grads, frozen_layers)
    models.flat -= lr * grads.flat
    ok = grad_ok & np.logical_and.reduce(np.isfinite(models.flat), axis=1)
    if not np.logical_and.reduce(ok):
        i = int(ok.argmin())
        raise DivergenceError(f"non-finite {'update' if grad_ok[i] else 'loss or gradient'}", i)


def zero_frozen(grads: Gradients, frozen_layers: int) -> None:
    """Zero the first `frozen_layers` layers in place: the step of a frozen layer is zero."""
    n = len(grads.layout.shapes)
    if not 0 <= frozen_layers <= n:
        raise NetError(f"cannot freeze {frozen_layers} of {n} layers")
    grads.flat[..., :grads.layout.offsets[frozen_layers]] = 0.0


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write `params` to `path` as named: `np.savez` given a name would add `.npz` to it."""
    arrays = {"version": np.array(CHECKPOINT_VERSION),
              "n_layers": np.array(params.n_layers),
              "activations": np.array(("relu",) * params.n_hidden)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a `save_checkpoint` file; one that cannot be read as such raises NetError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        version, n = int(arrays["version"]), int(arrays["n_layers"])
        activations = [str(a) for a in arrays["activations"]]
        weights = [arrays[f"w{i}"] for i in range(n)]
        biases = [arrays[f"b{i}"] for i in range(n)]
    except KeyError as e:
        raise NetError(f"checkpoint {path} has no array {e}") from None
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise NetError(f"cannot read checkpoint {path}: {e}") from None
    if version != CHECKPOINT_VERSION:
        raise NetError(f"unsupported checkpoint version {version}")
    if activations != ["relu"] * (n - 2):
        raise NetError(f"checkpoint activations {activations}: every hidden layer "
                       "must be relu")
    for i, layer in enumerate(zip(weights, biases)):
        for kind, a in zip("wb", layer):
            if a.dtype.kind != "f":
                raise NetError(f"checkpoint {path}: {kind}{i} holds {a.dtype} values, not floats")
            if not np.isfinite(a).all():
                raise NetError(f"checkpoint {path} has a non-finite value in {kind}{i}")
    return ModelParams.from_layers(weights, biases)
