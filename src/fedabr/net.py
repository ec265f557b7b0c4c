"""Actor-critic network with explicit forward pass and analytic gradients.

Parameters are one float64 vector with per-layer views: a stack of ReLU
hidden layers followed by a policy head (one logit per ladder rate) and a
scalar value head. Updates are plain SGD so that averaging gradients across clients
and stepping equals stepping on the averaged gradient.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np


class NetError(ValueError):
    pass


class DivergenceError(FloatingPointError):
    """Non-finite value encountered; the caller should reduce the learning rate."""


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

    def views(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-layer views; a (K, n) stack gives (K, out, in) weights, (K, out) biases."""
        lead = flat.shape[:-1]
        weights, biases = [], []
        for (out_dim, in_dim), start in zip(self.shapes, self.offsets):
            mid = start + out_dim * in_dim
            weights.append(flat[..., start:mid].reshape(*lead, out_dim, in_dim))
            biases.append(flat[..., mid:mid + out_dim])
        return tuple(weights), tuple(biases)


class ModelParams:
    """One float64 vector; `weights`/`biases` are tuples of per-layer views into it.

    Layers are ordered hidden layers first, then policy head, then value head.
    Gradients share the class, since they have the same layout.
    """

    def __init__(self, flat: np.ndarray, layout: Layout):
        self.flat = flat
        self.layout = layout
        self.weights, self.biases = layout.views(flat)

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
        return len(self.weights)

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 2

    @property
    def hidden(self) -> tuple[int, ...]:
        """Widths of the hidden layers."""
        return tuple(w.shape[0] for w in self.weights[:-2])

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def ladder_size(self) -> int:
        return self.weights[-2].shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layout)


Gradients = ModelParams


def _frozen_end(layout: Layout, frozen_layers: int) -> int:
    """Offset where the trainable part starts when the first `frozen_layers` are fixed."""
    if not 0 <= frozen_layers <= len(layout.shapes):
        raise NetError(f"cannot freeze {frozen_layers} of {len(layout.shapes)} layers")
    return layout.offsets[frozen_layers]


@dataclass(frozen=True)
class Trajectory:
    states: list[np.ndarray]
    actions: list[int]
    rewards: list[float]
    bootstrap_value: float

    def __post_init__(self):
        if not self.states:
            raise NetError("empty trajectory")
        if not len(self.states) == len(self.actions) == len(self.rewards):
            raise NetError("trajectory field lengths differ")
        if not all(np.isfinite(self.rewards)):
            raise NetError("non-finite reward in trajectory")


@dataclass(frozen=True)
class TrainHyper:
    gamma: float = 0.99
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    lr: float = 1e-3
    rollout_len: int = 16
    clip_norm: float = 40.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise NetError("gamma must be in (0, 1]")
        if self.lr <= 0:
            raise NetError("lr must be positive")


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


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_full(params: ModelParams, x: np.ndarray):
    """Forward pass keeping intermediates for backprop.

    `x` is one state or a (T, d) matrix of states, one per row. For one
    state, `x @ W.T` rounds exactly as `W @ x`.
    """
    pre, post = [], [x]
    h = x
    for w, b in zip(params.weights[:-2], params.biases[:-2]):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        post.append(h)
    logits = h @ params.weights[-2].T + params.biases[-2]
    value = (h @ params.weights[-1].T + params.biases[-1])[..., 0]
    return pre, post, logits, _softmax(logits), value


def forward(params: ModelParams, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (policy probabilities, value estimate) for one state."""
    state = np.asarray(state, dtype=float)
    if state.shape != (params.input_dim,):
        raise NetError(f"state shape {state.shape} != ({params.input_dim},)")
    if not np.all(np.isfinite(state)):
        raise NetError("non-finite state input")
    _, _, _, probs, value = _forward_full(params, state)
    return probs, float(value)


def sample_actions(probs: np.ndarray, draws) -> np.ndarray:
    """Inverse-CDF sample of each row of the (K, A) `probs` from its draw in [0, 1):
    the count of the row's first A - 1 cumulative sums below the draw."""
    below = np.cumsum(probs, axis=1)[:, :-1] < np.asarray(draws)[:, None]
    return below.sum(axis=1)


def discounted_returns(rewards: list[float], bootstrap: float, gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = bootstrap
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(np.zeros_like(params.flat), params.layout)


def a3c_gradients(params: ModelParams, traj: Trajectory,
                  hyper: TrainHyper) -> tuple[Gradients, float]:
    """Analytic gradients of the rollout loss -sum log pi(a)*A + c_v*(R-V)^2 - beta*H,
    with the advantage A = R - V held constant in the policy term. Clips the
    global gradient norm at hyper.clip_norm.

    One batched forward and backward pass over the (T, d) matrix of rollout
    states; each layer's gradient sums its per-step outer products as one
    matrix product.
    """
    try:
        x = np.asarray(traj.states, dtype=float)
    except ValueError:
        raise NetError("rollout states differ in shape") from None
    if x.shape[1:] != (params.input_dim,):
        raise NetError(f"state shape {x.shape[1:]} != ({params.input_dim},)")
    returns = discounted_returns(traj.rewards, traj.bootstrap_value, hyper.gamma)
    pre, post, _, probs, values = _forward_full(params, x)
    steps = np.arange(len(x))
    actions = np.asarray(traj.actions)
    log_probs = np.log(probs)
    adv = returns - values
    entropy = -np.sum(probs * log_probs, axis=1)
    loss = np.sum(-log_probs[steps, actions] * adv
                  + hyper.value_coef * adv ** 2
                  - hyper.entropy_coef * entropy)

    # d/dlogits of the policy term (advantage constant) plus entropy term
    dlogits = adv[:, None] * probs
    dlogits[steps, actions] -= adv
    dlogits += hyper.entropy_coef * probs * (log_probs + entropy[:, None])
    dvalue = -2.0 * hyper.value_coef * adv

    grads = zero_gradients(params)
    gw, gb = grads.weights, grads.biases
    feat = post[-1]
    gw[-2][:] = dlogits.T @ feat
    gb[-2][:] = dlogits.sum(axis=0)
    gw[-1][:] = dvalue @ feat
    gb[-1][:] = dvalue.sum()
    dh = dlogits @ params.weights[-2] + dvalue[:, None] * params.weights[-1][0]
    for i in range(params.n_hidden - 1, -1, -1):
        dz = dh * (pre[i] > 0)
        gw[i][:] = dz.T @ post[i]
        gb[i][:] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ params.weights[i]
    if not np.isfinite(loss) or not np.all(np.isfinite(grads.flat)):
        raise DivergenceError("non-finite loss or gradient")
    _clip_global_norm(grads, hyper.clip_norm)
    return grads, float(loss)


def _clip_global_norm(grads: Gradients, max_norm: float) -> None:
    if max_norm <= 0:
        return
    # Summed layer by layer, weights then biases: the order fixes the rounding.
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.weights)
                    + sum(float(np.sum(g * g)) for g in grads.biases))
    if total > max_norm:
        grads.flat *= max_norm / total


def apply_update(params: ModelParams, grads: Gradients, lr: float,
                 frozen_layers: int = 0) -> ModelParams:
    """SGD step; the first `frozen_layers` layers are copied bit-identically."""
    if grads.layout != params.layout:
        raise NetError("gradient shape mismatch")
    k = _frozen_end(params.layout, frozen_layers)
    out = params.flat.copy()
    out[k:] -= lr * grads.flat[k:]
    if not np.all(np.isfinite(out[k:])):
        raise DivergenceError("non-finite update")
    return ModelParams(out, params.layout)


def mean_gradients(grad_list: list[Gradients]) -> Gradients:
    if not grad_list:
        raise NetError("no gradients to average")
    total = grad_list[0].flat.copy()
    for g in grad_list[1:]:
        total += g.flat
    total /= len(grad_list)
    return Gradients(total, grad_list[0].layout)


def zero_frozen(grads: Gradients, frozen_layers: int) -> Gradients:
    """Zero the first `frozen_layers` layers (aggregation payloads carry zeros there)."""
    out = grads.copy()
    out.flat[:_frozen_end(grads.layout, frozen_layers)] = 0.0
    return out


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    arrays = {"version": np.array(CHECKPOINT_VERSION),
              "n_layers": np.array(params.n_layers),
              "activations": np.array(("relu",) * params.n_hidden)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


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
    return ModelParams.from_layers(weights, biases)
