"""Signatures of discretised paths: forward computation and reverse mode."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, lyndon
from .tensor import (DomainError, ShapeMismatchError, TruncatedTensorSeries,
                     sig_dim)


class GridError(ValueError):
    """Fine and coarse grids are inconsistent."""


@dataclass(frozen=True)
class AugmentedPath:
    """A discretised path with time adjoined as channel 0.

    ``values`` has shape ``(n+1, d+1)``; column 0 repeats ``times`` so the
    signature of a constant path still moves through the time channel.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.times.ndim != 1:
            raise ShapeMismatchError("times must be (n+1,), values (n+1, d+1)")
        if self.times.shape[0] != self.values.shape[0]:
            raise ShapeMismatchError(
                f"{self.times.shape[0]} times vs {self.values.shape[0]} value rows")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("node times must be strictly increasing")
        if not np.array_equal(self.values[:, 0], self.times):
            raise DomainError("channel 0 must equal the node time exactly")

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def time_augment(times, values) -> AugmentedPath:
    """Adjoin time as channel 0 of a value stream."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if times.ndim != 1 or times.shape[0] != values.shape[0]:
        raise ShapeMismatchError(
            f"got {times.shape[0] if times.ndim == 1 else times.shape} times "
            f"for {values.shape[0]} value rows")
    if np.any(np.diff(times) <= 0):
        raise DomainError("node times must be strictly increasing")
    return AugmentedPath(times, np.concatenate([times[:, None], values], axis=1))


def _path_nodes(path) -> np.ndarray:
    if isinstance(path, AugmentedPath):
        return path.values
    nodes = np.asarray(path, dtype=float)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    if nodes.ndim != 2 or nodes.shape[0] < 1:
        raise DomainError(f"a path needs at least one node, got shape {nodes.shape}")
    return nodes


def path_signature(path, depth: int) -> TruncatedTensorSeries:
    """Signature of a piecewise-linear path through the given nodes."""
    nodes = _path_nodes(path)
    d = nodes.shape[1]
    if nodes.shape[0] == 1:
        return TruncatedTensorSeries.identity(d, depth)
    levels = engine.signature_scan(np.diff(nodes, axis=0), depth)
    return TruncatedTensorSeries(d, depth, 1.0, tuple(levels))


def checkpoint_signature_stream(path, fine_per_segment: int,
                                depth: int) -> list[TruncatedTensorSeries]:
    """Prefix signatures sampled every ``fine_per_segment`` fine steps.

    Entry ``n`` is the signature of the path restricted to fine nodes
    ``0..n*fine_per_segment``; entry 0 is the identity.  Consecutive entries
    are chained by the truncated product, so each fine segment is folded in
    exactly once.
    """
    nodes = _path_nodes(path)
    n = nodes.shape[0] - 1
    d = nodes.shape[1]
    if fine_per_segment < 1 or n % fine_per_segment != 0:
        raise GridError(
            f"{n} fine steps do not split into segments of {fine_per_segment}")
    stacked = engine.checkpoint_scan(np.diff(nodes, axis=0), fine_per_segment, depth)
    out = []
    for seg in range(n // fine_per_segment + 1):
        levels = tuple(lvl[seg] for lvl in stacked)
        out.append(TruncatedTensorSeries(d, depth, 1.0, levels))
    return out


@dataclass(frozen=True)
class LogSignatureVector:
    """Log-signature coefficients in the Lyndon-word basis.

    Coordinates are ordered length-major then lexicographically, matching
    :func:`sigfbsde.sigcore.lyndon.lyndon_words`.
    """

    channels: int
    depth: int
    coefficients: np.ndarray

    def __post_init__(self):
        expected = lyndon.lyndon_count(self.channels, self.depth)
        if self.coefficients.shape != (expected,):
            raise ShapeMismatchError(
                f"expected {expected} Lyndon coefficients for "
                f"(channels={self.channels}, depth={self.depth}), "
                f"got shape {self.coefficients.shape}")

    def words(self) -> list:
        return lyndon.lyndon_words(self.channels, self.depth)

    def to_tensor(self) -> TruncatedTensorSeries:
        """Expand back to Lie-like tensor coordinates."""
        levels = lyndon.expand(self.coefficients, self.channels, self.depth)
        return TruncatedTensorSeries(self.channels, self.depth, 0.0, tuple(levels))


def log_signature(path, depth: int) -> LogSignatureVector:
    """Lyndon coordinates of the tensor logarithm of the path signature."""
    sig = path_signature(path, depth)
    log_levels = engine.log_of_group(list(sig.levels))
    coeffs = lyndon.project(log_levels, sig.channels, depth)
    return LogSignatureVector(sig.channels, depth, coeffs)


def signature_pullback(nodes, depth: int, cotangent) -> np.ndarray:
    """Gradient of ``<cotangent, path_signature(nodes)>`` w.r.t. every node.

    ``cotangent`` is either a :class:`TruncatedTensorSeries` or a flat vector
    of ``sig_dim`` coefficients shaped like the signature of ``nodes``.
    The reverse pass is :func:`engine.block_signatures_vjp` with the whole
    path as one block, so ``depth`` is at most 3.
    """
    nodes = _path_nodes(nodes)
    d = nodes.shape[1]
    if isinstance(cotangent, TruncatedTensorSeries):
        if cotangent.channels != d or cotangent.depth != depth:
            raise ShapeMismatchError(
                f"cotangent is for (channels={cotangent.channels}, "
                f"depth={cotangent.depth}), path has (channels={d}, depth={depth})")
        cot_levels = list(cotangent.levels)
    else:
        cot = np.asarray(cotangent, dtype=float)
        if cot.shape != (sig_dim(d, depth),):
            raise ShapeMismatchError(
                f"cotangent has shape {cot.shape}, expected ({sig_dim(d, depth)},)")
        cot_levels = engine.split_flat(cot, d, depth)
    grad_inc = engine.block_signatures_vjp(np.diff(nodes, axis=0), depth, cot_levels)
    return engine.increments_to_nodes_grad(grad_inc)
