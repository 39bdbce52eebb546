"""Minimal differentiable blocks: stacked MLPs, Adam, pointwise embedding.

Reverse mode is hand-rolled for the one fixed composite this library needs;
each forward call returns the cache its backward companion consumes.  One
MLP code path serves a single net and a stack of nets on a leading axis.

Net ``n`` of a stack only reads date ``n``, so a large stack runs on
contiguous blocks of its dates, one per core, side by side: numpy releases
the interpreter lock inside the products.  Each block runs its dates a few
at a time through layer buffers of a bounded number of rows, and the MLP
keeps no activation of the whole stack: the backward pass recomputes each
sub-block's hidden layers, all but the last, into the buffers (the
recomputation of Chen et al., "Training deep nets with sublinear memory
cost", 2016).  The calling thread allocates every buffer and gradient, and
each thread runs its own dates with the same calls on the same data, so
every bit is the same whatever the thread count and the sub-block size.
The threads are made per call and call no public function of this package.
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
# Each date block runs through layer buffers of a few whole dates, never fewer
# than one: the buffers of all blocks together hold at most SUB_BLOCK_ROWS rows
# when one date fits, so a stack's working memory does not grow with its dates
# or with the number of threads.  The backward pass recomputes every
# sub-block but the last; a stack of at most SUB_BLOCK_ROWS rows recomputes
# nothing.
SUB_BLOCK_ROWS = 2048


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


def _layer_buffers(params: MlpParams, shape: tuple) -> list:
    """C-contiguous buffers for the input and hidden layers of an input of
    ``shape``; ``None`` for an unscaled input, which is read from ``x``.

    Every date of a buffer has the same strides whatever its date count: a
    strided dot product's last bit can depend on them.
    """
    bufs = [None if params.input_scale is None else np.empty(shape)]
    return bufs + [np.empty(shape[:-1] + (w,)) for w in params.spec.hidden]


def _sub_blocks(x: np.ndarray, bufs: list, a, b) -> list:
    """``(dates, layers)`` of each sub-block of dates ``a:b``, as many dates
    as ``bufs`` hold (all of them for a single net): the slice of its dates
    and its views of the input and hidden layers."""
    if a is None:
        spans = [(slice(None), slice(None))]
    else:
        size = max((len(buf) for buf in bufs if buf is not None), default=b - a)
        spans = [(slice(n, min(n + size, b)), slice(0, min(size, b - n)))
                 for n in range(a, b, size)]
    return [(d, [x[d] if buf is None else buf[rows] for buf in bufs]) for d, rows in spans]


def _hidden(params: MlpParams, x: np.ndarray, layers: list, d: slice):
    """Compute the (scaled) input and hidden layers of dates ``d`` into ``layers``."""
    if params.input_scale is not None:
        np.multiply(x[d], params.input_scale, out=layers[0])
    for l in range(1, len(layers)):
        h = np.matmul(layers[l - 1], params.weights[l - 1][d], out=layers[l])
        h += params.biases[l - 1][d]
        if params.spec.activation == "relu":
            np.maximum(h, 0.0, out=h)


def _forward_dates(params: MlpParams, x: np.ndarray, out: np.ndarray, buffers: dict,
                   a, b):
    """Write the output of dates ``a:b`` (all of them for a single net), one
    sub-block at a time through the block's buffers, which are left holding
    the last sub-block."""
    for d, layers in _sub_blocks(x, buffers[a, b], a, b):
        _hidden(params, x, layers, d)
        h = np.matmul(layers[-1], params.weights[-1][d], out=out[d])
        h += params.biases[-1][d]


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Affine/activation chain; returns ``(output, cache)``.

    A single net takes ``x`` with arbitrary leading batch axes over the
    input width; a stack of ``N`` nets takes ``(N, B, in_dim)`` and applies
    net ``n`` to ``x[n]``, after multiplying by ``params.input_scale`` (when
    set).  A stack runs on contiguous blocks of its dates side by side, and
    each block runs through buffers of a few dates (see
    :data:`SUB_BLOCK_ROWS`).  The cache is ``(x, buffers)``: the buffers
    hold each block's last sub-block.
    """
    spec, stack = params.spec, params.stack
    if x.shape[-1] != spec.in_dim or stack and (x.ndim != 3 or x.shape[:1] != stack):
        raise ValueError(f"input shape {x.shape} does not fit in_dim {spec.in_dim}, stack {stack}")
    blocks = _date_blocks(params, x)
    if stack:
        size = max(1, SUB_BLOCK_ROWS // (len(blocks) * max(1, x.shape[1])))
        buffers = {(a, b): _layer_buffers(params, (min(size, b - a),) + x.shape[1:])
                   for a, b in blocks}
    else:
        buffers = {(None, None): _layer_buffers(params, x.shape)}
    out = np.empty(x.shape[:-1] + (spec.out_dim,))
    sde._run_blocks(functools.partial(_forward_dates, params, x, out, buffers), blocks)
    return out, (x, buffers)


def _backward_dates(params: MlpParams, x: np.ndarray, buffers: dict, cotangent: np.ndarray,
                    grads: list, input_grad: np.ndarray | None, a, b):
    """Fill the parameter gradients of dates ``a:b`` (all of them for a
    single net) and, unless it is ``None``, their input gradient, one
    sub-block at a time from the last.  Every sub-block but the last is
    first recomputed into the buffers, by the same calls on the same data."""
    k = len(params.stack)
    for i, (d, layers) in enumerate(reversed(_sub_blocks(x, buffers[a, b], a, b))):
        if i:
            _hidden(params, x, layers, d)
        g = cotangent[d]
        for l in range(len(params.weights) - 1, -1, -1):
            flat_in = layers[l].reshape(g.shape[:k] + (-1, layers[l].shape[-1]))
            flat_g = g.reshape(g.shape[:k] + (-1, g.shape[-1]))
            np.matmul(flat_in.swapaxes(-1, -2), flat_g, out=grads[2 * l][d])
            np.sum(flat_g, axis=-2,
                   out=grads[2 * l + 1][d].reshape(g.shape[:k] + g.shape[-1:]))
            w_t = params.weights[l][d].swapaxes(-1, -2)
            if not l:
                if input_grad is not None:
                    g = np.matmul(g, w_t, out=input_grad[d])
                    if params.input_scale is not None:
                        g *= params.input_scale
                break
            # layer l is spent and takes the cotangent, after its relu mask
            # post > 0 (equal to pre > 0) is taken
            mask = layers[l] > 0.0 if params.spec.activation == "relu" else None
            g = np.matmul(g, w_t, out=layers[l])
            if mask is not None:
                g *= mask


def mlp_backward(params: MlpParams, cache, cotangent: np.ndarray,
                 need_input_grad: bool, out: list | None = None):
    """Exact reverse pass; returns ``(grads, input_grad)``.

    ``grads`` aligns with :meth:`MlpParams.parameters`: the arrays of
    ``out`` when given (C-contiguous, of the parameters' shapes), which
    are written in place, else new ones.  Gradients are summed
    over the batch axes of the cotangent, per net of a stack.  ``input_grad``
    is taken with respect to the unscaled input ``x`` of :func:`mlp_forward`;
    it is ``None`` unless ``need_input_grad``, which skips the layer-0
    product.  The pass spends the cache's buffers and writes nothing else
    but its results, so ``cotangent`` may be the forward pass's output.  A
    stack runs on the same date blocks as its forward pass, side by side.
    """
    x, buffers = cache
    if cotangent.shape != x.shape[:-1] + (params.spec.out_dim,):
        raise ValueError(f"cotangent shape {cotangent.shape} does not match output "
                         f"{x.shape[:-1] + (params.spec.out_dim,)}")
    if out is None:
        grads = [np.empty(p.shape) for p in params.parameters()]
    elif len(out) != len(params.parameters()) or any(
            g.shape != p.shape or not g.flags.c_contiguous
            for g, p in zip(out, params.parameters())):
        raise ValueError("gradient outputs must be C-contiguous arrays of the "
                         "parameters' shapes")
    else:
        grads = out
    input_grad = np.empty(x.shape) if need_input_grad else None
    sde._run_blocks(functools.partial(_backward_dates, params, x, buffers, cotangent, grads,
                                      input_grad),
                    list(buffers))
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
    """Standard bias-corrected Adam update, applied in place; returns both.

    Each array takes ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, one
    operation at a time in that order, through two scratch arrays.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        s, t = np.empty_like(p), np.empty_like(p)
        np.multiply(1.0 - b1, g, out=s)
        m *= b1
        m += s
        np.square(g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s
        np.divide(m, c1, out=s)
        s *= state.lr
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += state.eps
        s /= t
        p -= s
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
