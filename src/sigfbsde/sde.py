"""Batch simulation of state paths on a fine grid with coarse increments.

Brownian increments come from counter-based per-path streams (Philox keyed
by ``(seed, path index)``), so a path is bit-identical for a given key no
matter the batch size or the order paths are generated in.

One ``(B, n_fine+1, d)`` buffer per batch serves every fine-grid stage: the
increments are drawn into its rows ``1..n_fine``, summed per coarse segment,
and then turned into states in place (geometric paths by the exact
log-normal step), so the buffer ends up holding the states.  A batch keeps
only the states and the coarse increments.

Paths never interact, so a batch of long streams is split into contiguous
row blocks, one per core, that threads draw, sum and step side by side:
numpy releases the interpreter lock while it fills a stream and inside
large ufuncs.  The threads are made per batch and call no public function
of this module; every bit is the same whatever the thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Grid parameters are inconsistent."""


class ModelError(ValueError):
    """Model parameters are invalid."""


MODEL_KINDS = ("geometric", "arithmetic-unit")

# simulate_batch hands a block of paths to a thread only when the block
# draws at least PARALLEL_MIN_NORMALS normals per path (``n_fine * d``) and
# PARALLEL_MIN_STEP_NORMALS per fine step (``rows * d``).  Rekeying a path
# and dispatching a step of the unit-diffusion loop hold the interpreter
# lock, so below either cut a second thread slows the batch down instead of
# halving its draws.  The geometric step is whole-block ufuncs; the cuts stay.
# With this cut at 0 (2 cores), two threads took 2.2-2.7x as long as one at
# n_fine*d = 20 (8192 paths), 1.7-2.0x at 64 (d=16), 1.35-1.4x at 200 (4096
# paths), 0.93x at 400 (d=2, 2048 paths) and 0.57-0.70x at 800-1000.  The
# benchmark sits at 200 and 400, both under the row cut too, and at 10,000.
PARALLEL_MIN_NORMALS = 1024
PARALLEL_MIN_STEP_NORMALS = 2048


@dataclass(frozen=True)
class GridSpec:
    """Dual simulation grid: ``n_fine`` fine steps, ``n_coarse`` segments."""

    horizon: float
    n_fine: int
    n_coarse: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise GridError(f"horizon must be positive, got {self.horizon}")
        if self.n_fine < 1 or self.n_coarse < 1:
            raise GridError(
                f"step counts must be positive, got n_fine={self.n_fine}, "
                f"n_coarse={self.n_coarse}")
        if self.n_fine % self.n_coarse != 0:
            raise GridError(
                f"n_coarse={self.n_coarse} does not divide n_fine={self.n_fine}")

    @property
    def h(self) -> float:
        return self.horizon / self.n_fine

    @property
    def fine_per_segment(self) -> int:
        return self.n_fine // self.n_coarse

    @property
    def dt(self) -> float:
        return self.horizon / self.n_coarse


@dataclass(frozen=True)
class ModelSpec:
    """State dynamics: per-asset geometric Brownian motion or unit-diffusion.

    ``geometric``: dX_i = rate * X_i dt + sigma_i * X_i dW_i.
    ``arithmetic-unit``: dX = dW (rate and sigma ignored).
    Brownian components are independent, one per asset.
    """

    kind: str
    x0: tuple
    rate: float = 0.0
    sigma: tuple = ()

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}; expected {MODEL_KINDS}")
        if len(self.x0) < 1:
            raise ModelError("x0 must have at least one component")
        if self.kind == "geometric":
            if len(self.sigma) != len(self.x0):
                raise ModelError(
                    f"need one sigma per asset: got {len(self.sigma)} "
                    f"for {len(self.x0)} assets")
            if any(s < 0 for s in self.sigma):
                raise ModelError("volatilities must be nonnegative")

    @classmethod
    def geometric(cls, x0, rate, sigma, dim: int = 1) -> "ModelSpec":
        """Equal-parameter basket helper; scalars broadcast to ``dim`` assets."""
        x0s = tuple(float(x0) for _ in range(dim)) if np.isscalar(x0) else tuple(x0)
        sig = tuple(float(sigma) for _ in range(len(x0s))) if np.isscalar(sigma) else tuple(sigma)
        return cls("geometric", x0s, float(rate), sig)

    @classmethod
    def arithmetic_unit(cls, x0, dim: int = 1) -> "ModelSpec":
        x0s = tuple(float(x0) for _ in range(dim)) if np.isscalar(x0) else tuple(x0)
        return cls("arithmetic-unit", x0s)

    @property
    def dim(self) -> int:
        return len(self.x0)


@dataclass
class PathBatch:
    """Simulated fine-grid states plus the per-segment Brownian increments
    that drove them."""

    states: np.ndarray             # (B, n_fine+1, d)
    coarse_increments: np.ndarray  # (B, n_coarse, d)
    grid: GridSpec

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]


def _step_states(model: ModelSpec, h: float, states: np.ndarray) -> np.ndarray:
    """Turn the increments in rows ``1..n`` of ``states`` into states, in place.

    Geometric paths take the exact log-normal step
    ``X_i = x0·exp(σ·W_i + (r − σ²/2)·t_i)`` over the whole contiguous block:
    a cumulative sum from a zeroed row 0, ``× σ``, the drift, ``exp``, ``× x0``.
    Unit-diffusion paths add each increment to the state before it.
    """
    if model.kind == "arithmetic-unit":
        states[:, 0, :] = model.x0
        for i in range(states.shape[1] - 1):
            states[:, i + 1, :] += states[:, i, :]
        return states
    sig = np.asarray(model.sigma, dtype=float)
    states[:, 0, :] = 0.0
    np.cumsum(states, axis=1, out=states)
    states *= sig
    states += (h * np.arange(states.shape[1]))[:, None] * (model.rate - 0.5 * sig * sig)
    np.exp(states, out=states)
    states *= model.x0
    return states


def _draw(grid: GridSpec, seed: int, path_ids: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Fill ``out[row]`` with path ``path_ids[row]``'s N(0, h) increments.

    One bit generator is rekeyed per path by writing the id into the key of
    one state dict of plain ints, which the setter reads faster than numpy
    arrays; the counter stays zero and the buffer empty, so every path
    matches a freshly keyed
    ``Philox(key=np.array([seed, path_id], dtype=np.uint64))`` bit for bit.
    """
    bit_gen = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bit_gen)
    key = [int(seed), 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, pid in enumerate(path_ids.tolist()):
        key[1] = pid
        bit_gen.state = state
        gen.standard_normal(out=out[row])
    out *= np.sqrt(grid.h)
    return out


def thread_count() -> int:
    """Cores this process may run on: the most threads a batch is split over."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(size: int, parts: int) -> list:
    """Contiguous ``(start, stop)`` blocks of ``range(size)`` of near-equal
    size: ``parts`` of them, but no more than ``size`` and at least one."""
    parts = max(1, min(parts, size))
    cuts = [size * k // parts for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_blocks(work, blocks: list):
    """Call ``work(start, stop)`` for every block, one thread per block.

    The calling thread runs the first block; the others go to threads of a
    pool made for this call, since a module-level one would reach the
    harness's forked worker processes with its threads dead.  The pool's
    module is imported here, so a process that never splits never loads it.
    A worker's error is raised here.  ``work`` calls no public function of
    the package, so every traced call stays on the calling thread.
    """
    if len(blocks) == 1:
        work(*blocks[0])
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=len(blocks) - 1) as pool:
        futures = [pool.submit(work, a, b) for a, b in blocks[1:]]
        work(*blocks[0])
        for future in futures:
            future.result()


def _row_blocks(batch_size: int, n_fine: int, dim: int) -> list:
    """Contiguous ``(start, stop)`` row blocks, one per thread, of near-equal size."""
    blocks = 1
    if n_fine * dim >= PARALLEL_MIN_NORMALS:
        blocks = min(thread_count(), batch_size * dim // PARALLEL_MIN_STEP_NORMALS)
    return _blocks(batch_size, blocks)


def _simulate_rows(model: ModelSpec, grid: GridSpec, seed: int, path_ids: np.ndarray,
                   states: np.ndarray, coarse_increments: np.ndarray):
    """Draw, sum per segment and step one contiguous block of paths in place."""
    _draw(grid, seed, path_ids, states[:, 1:])
    np.sum(states[:, 1:].reshape(len(path_ids), grid.n_coarse, grid.fine_per_segment,
                                 model.dim), axis=2, out=coarse_increments)
    _step_states(model, grid.h, states)


def simulate_batch(model: ModelSpec, grid: GridSpec, batch_size: int,
                   seed: int, path_offset: int = 0) -> PathBatch:
    """Simulate ``batch_size`` paths with ids ``path_offset..path_offset+B-1``.

    The increments are drawn into the state buffer, summed per coarse
    segment, and then overwritten by the states.  A batch of long
    streams is split into contiguous row blocks that threads simulate side
    by side (see :data:`PARALLEL_MIN_NORMALS`); every path's bits are the
    same either way.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    path_ids = np.arange(path_offset, path_offset + batch_size)
    states = np.empty((batch_size, grid.n_fine + 1, model.dim))
    coarse_increments = np.empty((batch_size, grid.n_coarse, model.dim))

    def rows(a, b):
        _simulate_rows(model, grid, seed, path_ids[a:b], states[a:b], coarse_increments[a:b])

    _run_blocks(rows, _row_blocks(batch_size, grid.n_fine, model.dim))
    return PathBatch(states, coarse_increments, grid)


def running_integral(batch: PathBatch, weights) -> np.ndarray:
    """Left-endpoint Riemann sums of ``sum_i w_i X^i`` along the fine grid.

    Entry 0 is 0; entry ``n_fine`` approximates the integral over the full
    horizon.  Shape ``(B, n_fine+1)``.
    """
    out = np.empty(batch.states.shape[:2])
    out[:, 0] = 0.0
    # in the one buffer: the weighted states written one step to the right,
    # times h and summed from entry 1, which takes no 0 + x step (a -0.0
    # stays -0.0); the product is scaled whole, as a strided view is buffered
    np.matmul(batch.states[:, :-1], np.asarray(weights, dtype=float), out=out[:, 1:])
    out *= batch.grid.h
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out
