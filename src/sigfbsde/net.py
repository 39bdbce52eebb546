"""Minimal differentiable blocks: stacked relu MLPs, Adam, pointwise embedding.

Reverse mode is hand-rolled for the one fixed composite this library needs:
:func:`mlp_forward` returns the cache :func:`mlp_backward` consumes, and
:func:`embed_backward` reads the stream that was embedded.  An MLP is
always a stack of nets on a leading date axis, a single net being a stack
of one, and Adam steps one flat array.

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
from dataclasses import dataclass

import numpy as np

from . import sde

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

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1 or any(w < 1 for w in self.hidden):
            raise ValueError(f"invalid layer widths: {self.widths}")

    @property
    def widths(self) -> tuple:
        return (self.in_dim,) + tuple(self.hidden) + (self.out_dim,)


@dataclass
class MlpParams:
    """A stack of ``N`` nets' trainable layers; net ``n`` is slice ``[n]``
    of every layer."""

    spec: MlpSpec
    weights: list            # weights[l]: (N, widths[l], widths[l+1])
    biases: list             # biases[l]: (N, 1, widths[l+1])

    def parameters(self) -> list:
        """Flat parameter list, weights interleaved with biases."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]


def init_mlp(spec: MlpSpec, seeds, zero_output: bool = True) -> MlpParams:
    """A stack of one net per seed, He-uniform fan-in initialised; the
    output layer starts at zero.

    Net ``n`` draws its layers in order from ``default_rng(seeds[n])``, so
    it does not depend on the other seeds.  A zero last layer makes every
    approximator's initial output vanish, which keeps degenerate
    (zero-volatility) runs exact from iteration one.  Pass
    ``zero_output=False`` to randomise every layer.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    widths = spec.widths
    weights, biases = [], []
    for l in range(len(widths) - 1):
        size = (widths[l], widths[l + 1])
        if zero_output and l == len(widths) - 2:
            weights.append(np.zeros((len(rngs),) + size))
        else:
            bound = np.sqrt(6.0 / widths[l])  # fan-in
            weights.append(np.stack([rng.uniform(-bound, bound, size=size) for rng in rngs]))
        biases.append(np.zeros((len(rngs), 1, widths[l + 1])))
    return MlpParams(spec, weights, biases)


def _date_blocks(x: np.ndarray) -> list:
    """Contiguous blocks of a stack's dates, one per thread and per
    :data:`PARALLEL_MIN_ROWS` rows."""
    n_dates, rows = x.shape[:2]
    return sde._blocks(n_dates, min(sde.thread_count(), n_dates * rows // PARALLEL_MIN_ROWS))


def _layer_buffers(params: MlpParams, shape: tuple) -> list:
    """C-contiguous buffers for the hidden layers of an input of ``shape``.

    Every date of a buffer has the same strides whatever its date count: a
    strided dot product's last bit can depend on them.
    """
    return [np.empty(shape[:-1] + (w,)) for w in params.spec.hidden]


def _sub_blocks(x: np.ndarray, bufs: list, a, b) -> list:
    """``(dates, layers)`` of each sub-block of dates ``a:b``, as many dates
    as ``bufs`` hold: the slice of its dates and its views of the input,
    which is read from ``x``, and of the hidden layers."""
    size = len(bufs[0]) if bufs else b - a
    spans = [(slice(n, min(n + size, b)), slice(0, min(size, b - n)))
             for n in range(a, b, size)]
    return [(d, [x[d]] + [buf[rows] for buf in bufs]) for d, rows in spans]


def _hidden(params: MlpParams, layers: list, d: slice):
    """Compute the hidden layers of dates ``d`` into ``layers``."""
    for l in range(1, len(layers)):
        h = np.matmul(layers[l - 1], params.weights[l - 1][d], out=layers[l])
        h += params.biases[l - 1][d]
        np.maximum(h, 0.0, out=h)


def _forward_dates(params: MlpParams, x: np.ndarray, out: np.ndarray, buffers: dict,
                   a, b):
    """Write the output of dates ``a:b``, one sub-block at a time through
    the block's buffers, which are left holding the last sub-block."""
    for d, layers in _sub_blocks(x, buffers[a, b], a, b):
        _hidden(params, layers, d)
        h = np.matmul(layers[-1], params.weights[-1][d], out=out[d])
        h += params.biases[-1][d]


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Affine/relu chain; returns ``(output, cache)``.

    A stack of ``N`` nets takes ``(N, B, in_dim)`` and applies net ``n`` to
    ``x[n]``.  It runs on contiguous blocks of its dates side by side, and
    each block runs through buffers of a few dates (see
    :data:`SUB_BLOCK_ROWS`).  The cache is ``(x, buffers)``: the buffers
    hold each block's last sub-block.
    """
    spec, stack = params.spec, len(params.weights[0])
    if x.ndim != 3 or x.shape[0] != stack or x.shape[-1] != spec.in_dim:
        raise ValueError(f"input shape {x.shape} does not fit in_dim {spec.in_dim}, stack {stack}")
    blocks = _date_blocks(x)
    size = max(1, SUB_BLOCK_ROWS // (len(blocks) * max(1, x.shape[1])))
    buffers = {(a, b): _layer_buffers(params, (min(size, b - a),) + x.shape[1:])
               for a, b in blocks}
    out = np.empty(x.shape[:-1] + (spec.out_dim,))
    sde._run_blocks(functools.partial(_forward_dates, params, x, out, buffers), blocks)
    return out, (x, buffers)


def _backward_dates(params: MlpParams, x: np.ndarray, buffers: dict, cotangent: np.ndarray,
                    grads: list, input_grad: np.ndarray | None, a, b):
    """Fill the parameter gradients of dates ``a:b`` and, unless it is
    ``None``, their input gradient, one sub-block at a time from the last.
    Every sub-block but the last is first recomputed into the buffers, by
    the same calls on the same data."""
    for i, (d, layers) in enumerate(reversed(_sub_blocks(x, buffers[a, b], a, b))):
        if i:
            _hidden(params, layers, d)
        g = cotangent[d]
        for l in range(len(params.weights) - 1, -1, -1):
            np.matmul(layers[l].swapaxes(-1, -2), g, out=grads[2 * l][d])
            np.sum(g, axis=1, keepdims=True, out=grads[2 * l + 1][d])
            w_t = params.weights[l][d].swapaxes(-1, -2)
            if not l:
                if input_grad is not None:
                    np.matmul(g, w_t, out=input_grad[d])
                break
            # layer l is spent and takes the cotangent, after its relu mask
            # post > 0 (equal to pre > 0) is taken
            mask = layers[l] > 0.0
            g = np.matmul(g, w_t, out=layers[l])
            g *= mask


def mlp_backward(params: MlpParams, cache, cotangent: np.ndarray,
                 need_input_grad: bool, out: list | None = None):
    """Exact reverse pass; returns ``(grads, input_grad)``.

    ``grads`` aligns with :meth:`MlpParams.parameters`: the arrays of
    ``out`` when given (C-contiguous, of the parameters' shapes), which
    are written in place, else new ones.  Gradients are summed over the
    batch axis of the cotangent, per net.  ``input_grad`` is taken with
    respect to the input ``x`` of :func:`mlp_forward`; it is ``None`` unless
    ``need_input_grad``, which skips the layer-0 product.
    The pass spends the cache's buffers and writes nothing else but its
    results, so ``cotangent`` may be the forward pass's output.  It runs on
    the same date blocks as the forward pass, side by side.
    """
    x, buffers = cache
    if cotangent.shape != x.shape[:-1] + (params.spec.out_dim,):
        raise ValueError(f"cotangent shape {cotangent.shape} does not match output "
                         f"{x.shape[:-1] + (params.spec.out_dim,)}")
    if out is None:
        out = [np.empty(p.shape) for p in params.parameters()]
    elif len(out) != len(params.parameters()) or any(
            g.shape != p.shape or not g.flags.c_contiguous
            for g, p in zip(out, params.parameters())):
        raise ValueError("gradient outputs must be C-contiguous arrays of the "
                         "parameters' shapes")
    input_grad = np.empty(x.shape) if need_input_grad else None
    sde._run_blocks(functools.partial(_backward_dates, params, x, buffers, cotangent, out,
                                      input_grad),
                    list(buffers))
    return out, input_grad


@dataclass
class AdamState:
    """First/second moment accumulators of one flat parameter array."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(param: np.ndarray, lr: float = 1e-3) -> AdamState:
    return AdamState(lr=lr, m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray):
    """Standard bias-corrected Adam update of ``param``, in place.

    It takes ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, one operation
    at a time in that order, through two scratch arrays.
    """
    state.step += 1
    b1, b2, m, v = state.beta1, state.beta2, state.m, state.v
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    s, t = np.empty_like(param), np.empty_like(param)
    np.multiply(1.0 - b1, grad, out=s)
    m *= b1
    m += s
    np.square(grad, out=s)
    s *= 1.0 - b2
    v *= b2
    v += s
    np.divide(m, c1, out=s)
    s *= state.lr
    np.divide(v, c2, out=t)
    np.sqrt(t, out=t)
    t += state.eps
    s /= t
    param -= s


def init_embedding(in_dim: int, out_dim: int, seed: int) -> np.ndarray:
    """Weight ``(in_dim, out_dim)`` of a pointwise linear map, applied to
    every node of a value stream.

    It has no bias, which would cancel in the increments signatures see.
    """
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


def embed_stream(weight: np.ndarray, stream: np.ndarray) -> np.ndarray:
    """Map a ``(..., n+1, d)`` stream nodewise to ``(..., n+1, d_out)``."""
    if stream.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"stream has {stream.shape[-1]} channels, embedding expects "
            f"{weight.shape[0]}")
    return stream @ weight


def embed_backward(stream: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Reverse of :func:`embed_stream` on ``stream``; returns ``dW``.

    ``dW`` is one product over every node of the batch, taken as
    ``(flat_gᵀ flat_in)ᵀ``: the same sums as ``flat_inᵀ flat_g``, and faster
    for a long stream and a narrow embedding.
    """
    flat_in = stream.reshape(-1, stream.shape[-1])
    flat_g = cotangent.reshape(-1, cotangent.shape[-1])
    return (flat_g.T @ flat_in).T
