"""Minimal differentiable blocks: stacked MLPs, Adam, pointwise embedding.

Reverse mode is hand-rolled for the one fixed composite this library needs;
each forward call returns the cache its backward companion consumes.  One
MLP code path serves a single net and a stack of nets on a leading axis; its
cache holds post-activations only, and its backward pass spends them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    out_dim: int
    hidden: tuple = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_dim < 1 or self.out_dim < 1 or any(w < 1 for w in self.hidden):
            raise ValueError(f"invalid layer widths: {self.widths}")

    @property
    def widths(self) -> tuple:
        return (self.in_dim,) + tuple(self.hidden) + (self.out_dim,)


@dataclass
class MlpParams:
    """Trainable layers plus an optional fixed per-input multiplier.

    A stack of ``N`` nets (:func:`stack_mlps`) has weights ``(N, widths[l],
    widths[l+1])`` and biases ``(N, 1, widths[l+1])``; net ``n`` is slice ``[n]``.
    ``input_scale`` (shape ``(in_dim,)``) rescales the input before the
    first affine layer; it is not trainable and not in :meth:`parameters`.
    """

    spec: MlpSpec
    weights: list            # weights[l]: (widths[l], widths[l+1]), or stacked
    biases: list             # biases[l]: (widths[l+1],), or stacked
    input_scale: np.ndarray | None = None

    @property
    def stack(self) -> tuple:
        """``(N,)`` for a stack of ``N`` nets, ``()`` for a single net."""
        return self.weights[0].shape[:-2]

    def parameters(self) -> list:
        """Flat parameter list, weights interleaved with biases."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]


def init_mlp(spec: MlpSpec, seed: int, zero_output: bool = True,
             input_scale: np.ndarray | None = None) -> MlpParams:
    """He-uniform fan-in initialisation; the output layer starts at zero.

    A zero last layer makes every approximator's initial output vanish,
    which keeps degenerate (zero-volatility) runs exact from iteration one.
    Pass ``zero_output=False`` to randomise the full stack.
    """
    rng = np.random.default_rng(seed)
    widths = spec.widths
    weights, biases = [], []
    for l in range(len(widths) - 1):
        if zero_output and l == len(widths) - 2:
            weights.append(np.zeros((widths[l], widths[l + 1])))
        else:
            bound = np.sqrt(6.0 / widths[l])  # fan-in
            weights.append(rng.uniform(-bound, bound, size=(widths[l], widths[l + 1])))
        biases.append(np.zeros(widths[l + 1]))
    return MlpParams(spec, weights, biases, input_scale)


def stack_mlps(nets: list) -> MlpParams:
    """One stack of nets that share the spec and input scale of ``nets[0]``."""
    return MlpParams(nets[0].spec,
                     [np.stack(ws) for ws in zip(*(p.weights for p in nets))],
                     [np.stack(bs)[:, None] for bs in zip(*(p.biases for p in nets))],
                     nets[0].input_scale)


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Affine/activation chain; returns ``(output, cache)``.

    A single net takes ``x`` with arbitrary leading batch axes over the
    input width; a stack of ``N`` nets takes ``(N, B, in_dim)`` and applies
    net ``n`` to ``x[n]``, after multiplying by ``params.input_scale`` (when
    set).  The cache holds post-activations only; relu runs in place.
    """
    spec, stack = params.spec, params.stack
    if x.shape[-1] != spec.in_dim or stack and (x.ndim != 3 or x.shape[:1] != stack):
        raise ValueError(f"input shape {x.shape} does not fit in_dim {spec.in_dim}, stack {stack}")
    h = x if params.input_scale is None else x * params.input_scale
    post = [h]
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if l != last and spec.activation == "relu":
            np.maximum(h, 0.0, out=h)
        post.append(h)
    return h, post


def mlp_backward(params: MlpParams, cache, cotangent: np.ndarray,
                 need_input_grad: bool):
    """Exact reverse pass; returns ``(grads, input_grad)``.

    ``grads`` aligns with :meth:`MlpParams.parameters`.  Gradients are summed
    over the batch axes of the cotangent, per net of a stack.  ``input_grad``
    is taken with respect to the unscaled input ``x`` of :func:`mlp_forward`;
    it is ``None`` unless ``need_input_grad``, which skips the layer-0
    product.  The relu mask ``post > 0`` equals ``pre > 0``.  The pass spends
    the cache.
    """
    post = cache
    if cotangent.shape != post[-1].shape:
        raise ValueError(
            f"cotangent shape {cotangent.shape} does not match output {post[-1].shape}")
    k = len(params.stack)
    grads: list = [None] * (2 * len(params.weights))
    g = cotangent
    for l in range(len(params.weights) - 1, -1, -1):
        flat_in = post[l].reshape(post[l].shape[:k] + (-1, post[l].shape[-1]))
        flat_g = g.reshape(g.shape[:k] + (-1, g.shape[-1]))
        grads[2 * l] = flat_in.swapaxes(-1, -2) @ flat_g
        grads[2 * l + 1] = flat_g.sum(axis=-2).reshape(params.biases[l].shape)
        if not (l or need_input_grad):
            return grads, None
        # post[l > 0] is spent once masked and takes the cotangent; post[0] may be x
        mask = post[l] > 0.0 if l and params.spec.activation == "relu" else True
        g = np.matmul(g, params.weights[l].swapaxes(-1, -2), out=post[l] if l else None)
        g *= mask
    if params.input_scale is not None:
        g = g * params.input_scale
    return grads, g


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter list."""

    lr: float
    m: list
    v: list
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: list, lr: float = 1e-3) -> AdamState:
    return AdamState(lr=lr,
                     m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: list, grads: list):
    """Standard bias-corrected Adam update, applied in place; returns both."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return state, params


@dataclass
class EmbeddingParams:
    """Pointwise linear map applied to every node of a value stream.

    It has no bias, which would cancel in the increments signatures see.
    ``input_scale`` (shape ``(d,)``) is a fixed, non-trainable per-channel
    multiplier applied before the linear map; ``None`` leaves the stream as
    it is.  It is folded into the weight, so the stream is never copied.
    """

    weight: np.ndarray   # (d, d_out)
    input_scale: np.ndarray | None = None

    def parameters(self) -> list:
        return [self.weight]


def init_embedding(in_dim: int, out_dim: int, seed: int,
                   input_scale: np.ndarray | None = None) -> EmbeddingParams:
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / in_dim)
    return EmbeddingParams(rng.uniform(-bound, bound, size=(in_dim, out_dim)),
                           input_scale)


def embed_stream(params: EmbeddingParams, stream: np.ndarray):
    """Map a ``(..., n+1, d)`` stream nodewise to ``(..., n+1, d_out)``.

    Returns ``(embedded, cache)``; the cache is ``stream`` itself.
    """
    if stream.shape[-1] != params.weight.shape[0]:
        raise ValueError(
            f"stream has {stream.shape[-1]} channels, embedding expects "
            f"{params.weight.shape[0]}")
    weight = params.weight
    if params.input_scale is not None:
        weight = params.input_scale[:, None] * weight
    return stream @ weight, stream


def embed_backward(params: EmbeddingParams, cache, cotangent: np.ndarray) -> list:
    """Reverse of :func:`embed_stream`; returns the parameter gradients ``[dW]``."""
    stream = cache
    flat_in = stream.reshape(-1, stream.shape[-1])
    flat_g = cotangent.reshape(-1, cotangent.shape[-1])
    grad = flat_in.T @ flat_g
    if params.input_scale is not None:
        grad *= params.input_scale[:, None]
    return [grad]
