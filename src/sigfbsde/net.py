"""Minimal differentiable blocks: stacked MLPs, Adam, pointwise embedding.

Reverse mode is hand-rolled for the one fixed composite this library needs;
each forward call returns the cache its backward companion consumes.  One
MLP code path serves a single net and a stack of nets on a leading axis; its
cache holds post-activations only, and its backward pass spends them.

Net ``n`` of a stack only reads date ``n``, so a large stack runs on
contiguous blocks of its dates, one per core, side by side: numpy releases
the interpreter lock inside the products.  The calling thread allocates
every cache layer and gradient, and each thread fills its own dates with
the same calls on the same data, so every bit is the same whatever the
thread count.  The threads are made per call and call no public function
of this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import sde

ACTIVATIONS = ("relu", "identity")

# A stack is split into contiguous blocks of dates, one per core, but into no
# more blocks than it holds PARALLEL_MIN_ROWS rows (dates times paths): below
# that, starting a thread and passing the interpreter lock back and forth
# cost more than the products a thread takes over.
PARALLEL_MIN_ROWS = 2048
# The backward pass masks a stack's relu layers a few dates at a time, at most
# MASK_ROWS rows (or one date), so that no thread holds a large mask.
MASK_ROWS = 1024


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


def _date_blocks(params: MlpParams, x: np.ndarray) -> list:
    """Contiguous blocks of a stack's dates, one per thread and per
    :data:`PARALLEL_MIN_ROWS` rows; a single net is one block."""
    if not params.stack:
        return [(None, None)]
    n_dates, rows = x.shape[:2]
    return sde._blocks(n_dates, min(sde.thread_count(), n_dates * rows // PARALLEL_MIN_ROWS))


def _forward_dates(params: MlpParams, x: np.ndarray, post: list, a, b):
    """Fill dates ``a:b`` of every cache layer (all of them for a single net)."""
    d = slice(a, b)
    if params.input_scale is not None:
        np.multiply(x[d], params.input_scale, out=post[0][d])
    last = len(params.weights) - 1
    for l, (w, bias) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(post[l][d], w[d], out=post[l + 1][d])
        h += bias[d]
        if l != last and params.spec.activation == "relu":
            np.maximum(h, 0.0, out=h)


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Affine/activation chain; returns ``(output, cache)``.

    A single net takes ``x`` with arbitrary leading batch axes over the
    input width; a stack of ``N`` nets takes ``(N, B, in_dim)`` and applies
    net ``n`` to ``x[n]``, after multiplying by ``params.input_scale`` (when
    set).  The cache holds post-activations only; relu runs in place.  A
    stack runs on contiguous blocks of its dates side by side.
    """
    spec, stack = params.spec, params.stack
    if x.shape[-1] != spec.in_dim or stack and (x.ndim != 3 or x.shape[:1] != stack):
        raise ValueError(f"input shape {x.shape} does not fit in_dim {spec.in_dim}, stack {stack}")
    # the scaled input keeps the memory layout of x, as x * input_scale does:
    # a strided dot product's last bit can depend on it
    post = [x if params.input_scale is None else np.empty_like(x, dtype=float)]
    post += [np.empty(x.shape[:-1] + (w,)) for w in spec.widths[1:]]
    sde._run_blocks(functools.partial(_forward_dates, params, x, post),
                    _date_blocks(params, x))
    return post[-1], post


def _backward_dates(params: MlpParams, post: list, cotangent: np.ndarray, grads: list,
                    input_grad: np.ndarray | None, a, b):
    """Spend dates ``a:b`` of the cache (all of it for a single net); fill
    their parameter gradients and, unless it is ``None``, input gradient."""
    d = slice(a, b)
    k = len(params.stack)
    g = cotangent[d]
    for l in range(len(params.weights) - 1, -1, -1):
        flat_in = post[l][d].reshape(g.shape[:k] + (-1, post[l].shape[-1]))
        flat_g = g.reshape(g.shape[:k] + (-1, g.shape[-1]))
        np.matmul(flat_in.swapaxes(-1, -2), flat_g, out=grads[2 * l][d])
        np.sum(flat_g, axis=-2, out=grads[2 * l + 1][d].reshape(g.shape[:k] + g.shape[-1:]))
        w_t = params.weights[l][d].swapaxes(-1, -2)
        if not l:
            if input_grad is not None:
                g = np.matmul(g, w_t, out=input_grad[d])
                if params.input_scale is not None:
                    g *= params.input_scale
            return
        # post[l] is spent and takes the cotangent; the relu mask post > 0
        # (equal to pre > 0) is taken over at most MASK_ROWS rows at a time
        out = post[l][d]
        if params.spec.activation != "relu":
            g = np.matmul(g, w_t, out=out)
            continue
        parts = [...]
        if k:
            step = max(1, MASK_ROWS // max(1, out.shape[1]))
            parts = [slice(n, n + step) for n in range(0, len(out), step)]
        for part in parts:
            mask = out[part] > 0.0
            np.matmul(g[part], w_t[part], out=out[part])
            out[part] *= mask
        g = out


def mlp_backward(params: MlpParams, cache, cotangent: np.ndarray,
                 need_input_grad: bool):
    """Exact reverse pass; returns ``(grads, input_grad)``.

    ``grads`` aligns with :meth:`MlpParams.parameters`.  Gradients are summed
    over the batch axes of the cotangent, per net of a stack.  ``input_grad``
    is taken with respect to the unscaled input ``x`` of :func:`mlp_forward`;
    it is ``None`` unless ``need_input_grad``, which skips the layer-0
    product.  The pass spends the cache; it never reads the cache's output
    array, which may hold ``cotangent`` itself.  A stack runs on contiguous
    blocks of its dates side by side.
    """
    post = cache
    if cotangent.shape != post[-1].shape:
        raise ValueError(
            f"cotangent shape {cotangent.shape} does not match output {post[-1].shape}")
    grads = [np.empty(p.shape) for p in params.parameters()]
    input_grad = np.empty(post[0].shape) if need_input_grad else None
    sde._run_blocks(functools.partial(_backward_dates, params, post, cotangent, grads,
                                      input_grad),
                    _date_blocks(params, cotangent))
    return grads, input_grad


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
    """Reverse of :func:`embed_stream`; returns the parameter gradients ``[dW]``.

    ``dW`` is one product over every node of the batch, taken as
    ``(flat_gᵀ flat_in)ᵀ``: the same sums as ``flat_inᵀ flat_g``, and faster
    for a long stream and a narrow embedding.
    """
    stream = cache
    flat_in = stream.reshape(-1, stream.shape[-1])
    flat_g = cotangent.reshape(-1, cotangent.shape[-1])
    grad = (flat_g.T @ flat_in).T
    if params.input_scale is not None:
        grad *= params.input_scale[:, None]
    return [grad]
