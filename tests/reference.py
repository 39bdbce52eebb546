"""Reference kernels that the training kernels are tested against: the
sequential Chen scan, the general truncated product and its VJP, and the
enumerated Lyndon words.  They use the library's level layout and outer
product, so a product here has the bits of the same product made there.
"""

from __future__ import annotations

import numpy as np

from sigfbsde.sigcore import engine, lyndon
from sigfbsde.sigcore.engine import Levels


def identity_levels(batch_shape: tuple, channels: int, depth: int) -> Levels:
    """Levels of the identity series (all zero; unit scalar 1 held by caller)."""
    return [np.zeros(batch_shape + (channels ** k,)) for k in range(1, depth + 1)]


def segment_exp(inc: np.ndarray, depth: int) -> Levels:
    """Signature levels of a straight segment with increment ``inc``.

    Level ``k`` equals ``inc^{⊗k} / k!``; exact for linear segments.
    """
    levels = [inc]
    for k in range(2, depth + 1):
        levels.append(engine._outer(levels[-1], inc) / k)
    return levels


def product(a: Levels, b: Levels, unit_a: float = 1.0, unit_b: float = 1.0) -> Levels:
    """Graded truncated product of two coefficient lists.

    ``out_k = unit_b * a_k + unit_a * b_k + sum_{i=1..k-1} a_i ⊗ b_{k-i}``,
    with each unit term whose unit is 0 left out; the resulting unit scalar
    ``unit_a * unit_b`` is the caller's to track.
    """
    out = []
    for k in range(1, len(a) + 1):
        units = [unit * c[k - 1] for unit, c in ((unit_b, a), (unit_a, b)) if unit]
        acc = sum(units[1:], units[0]) if units else None
        for i in range(1, k):
            term = engine._outer(a[i - 1], b[k - i - 1])
            acc = term if acc is None else acc + term
        out.append(np.zeros_like(a[0]) if acc is None else acc)
    return out


def _step_major(increments: np.ndarray) -> np.ndarray:
    """Copy to step-major layout so per-step slices are contiguous."""
    return np.ascontiguousarray(np.moveaxis(increments, -2, 0))


def signature_scan(increments: np.ndarray, depth: int) -> Levels:
    """Signature levels of a piecewise-linear path given segment increments.

    ``increments`` has shape ``(..., n, d)``; the scan runs over axis ``-2``.
    """
    levels = identity_levels(increments.shape[:-2], increments.shape[-1], depth)
    for step in _step_major(increments):
        levels = product(levels, segment_exp(step, depth))
    return levels


def product_vjp(a: Levels, b: Levels, cot: Levels,
                unit_a: float = 1.0, unit_b: float = 1.0) -> tuple[Levels, Levels]:
    """Cotangents of :func:`product` with respect to both factors' levels."""
    m = len(a)
    d = int(round(a[0].shape[-1]))
    grad_a = [unit_b * cot[k - 1] for k in range(1, m + 1)]
    grad_b = [unit_a * cot[k - 1] for k in range(1, m + 1)]
    for k in range(1, m + 1):
        for i in range(1, k):
            j = k - i
            grad_a[i - 1] += engine._contract_right(cot[k - 1], b[j - 1], d, i, j)
            grad_b[j - 1] += engine._contract_left(cot[k - 1], a[i - 1], d, i, j)
    return grad_a, grad_b


def lyndon_words(channels: int, max_len: int) -> list:
    """All Lyndon words of length <= ``max_len``, length-major then lexicographic."""
    return [word for length in range(1, max_len + 1)
            for word in lyndon._lyndon_words_of_length(channels, length)]
