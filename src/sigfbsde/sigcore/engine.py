"""Array-level kernels for the truncated tensor algebra over paths.

Coefficients of a depth-``m`` series over ``d`` channels are stored as a
list of ``m`` arrays, where entry ``k-1`` has trailing dimension ``d**k``
and holds the level-``k`` block in lexicographic multi-index order
(index ``(i_1, ..., i_k)`` sits at offset ``sum((i_j - 1) * d**(k-j))``).
Leading axes are arbitrary batch axes shared by every level; all kernels
broadcast over them.  The level-0 scalar is carried separately by callers
(1 for group-like series, 0 for Lie-like ones).

Everything here is pure-numpy and allocation-only; reverse-mode companions
(`*_vjp`) return cotangents with the same layout.  Up to depth 3 the
checkpoint scan is one pass of cumulative sums over the whole path, and its
VJP is that pass run in reverse; the sequential Chen scan
(:func:`signature_scan`) is the reference both are tested against.
"""

from __future__ import annotations

import math

import numpy as np

Levels = list  # list[np.ndarray], one entry per tensor level 1..m


def sig_width(channels: int, depth: int) -> int:
    """Number of stored coefficients (unit excluded) of a depth-``depth`` series."""
    if channels < 1 or depth < 1:
        raise ValueError(f"channels and depth must be positive, got ({channels}, {depth})")
    if channels == 1:
        return depth
    return (channels ** (depth + 1) - channels) // (channels - 1)


def level_sizes(channels: int, depth: int) -> list[int]:
    return [channels ** k for k in range(1, depth + 1)]


def identity_levels(batch_shape: tuple, channels: int, depth: int) -> Levels:
    """Levels of the identity series (all zero; unit scalar 1 held by caller)."""
    return [np.zeros(batch_shape + (channels ** k,)) for k in range(1, depth + 1)]


def copy_levels(levels: Levels) -> Levels:
    return [lvl.copy() for lvl in levels]


def flatten_levels(levels: Levels) -> np.ndarray:
    """Concatenate level blocks along the trailing axis."""
    return np.concatenate(levels, axis=-1)


def split_flat(flat: np.ndarray, channels: int, depth: int) -> Levels:
    """Inverse of :func:`flatten_levels`."""
    sizes = level_sizes(channels, depth)
    if flat.shape[-1] != sum(sizes):
        raise ValueError(
            f"flat coefficient vector has length {flat.shape[-1]}, "
            f"expected {sum(sizes)} for (channels={channels}, depth={depth})"
        )
    offsets = np.cumsum([0] + sizes)
    return [flat[..., offsets[k]:offsets[k + 1]] for k in range(depth)]


# Products of at most this many words take _outer_columns (see _outer).
_COLUMN_WORDS = 4


def _outer_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_outer` made one word at a time: word ``i·nb + j`` is one
    ``np.multiply`` of columns ``a[..., i]`` and ``b[..., j]`` over all
    leading axes."""
    na, nb = a.shape[-1], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (na * nb,),
                   np.result_type(a, b))
    for i in range(na):
        for j in range(nb):
            np.multiply(a[..., i], b[..., j], out=out[..., i * nb + j])
    return out


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Graded outer product of two flattened blocks, flattened again.

    Each word is one multiply in either kernel, so both give the same bits.
    ``einsum`` loops over the words innermost: with few words that is a
    loop of a few entries per path and step.  A product of at most
    ``_COLUMN_WORDS`` words therefore goes to :func:`_outer_columns`, whose
    loops run over all leading axes.  Timed with 1 BLAS thread at leading
    axes (33, 380) and (1000, 21), the columns took 0.27-0.31x of
    ``einsum``'s time at 2x2 words, 0.55-1.55x at 4x2 and 2x4, and 2.9-5x
    at 4x4 and 6x6.
    """
    na, nb = a.shape[-1], b.shape[-1]
    if na * nb <= _COLUMN_WORDS:
        return _outer_columns(a, b)
    out = np.einsum("...i,...j->...ij", a, b)
    return out.reshape(a.shape[:-1] + (na * nb,))


def segment_exp(inc: np.ndarray, depth: int) -> Levels:
    """Signature levels of a straight segment with increment ``inc``.

    Level ``k`` equals ``inc^{⊗k} / k!``; exact for linear segments.
    """
    levels = [inc]
    for k in range(2, depth + 1):
        levels.append(_outer(levels[-1], inc) / k)
    return levels


def product(a: Levels, b: Levels, unit_a: float = 1.0, unit_b: float = 1.0) -> Levels:
    """Graded truncated product of two coefficient lists.

    ``out_k = unit_b * a_k + unit_a * b_k + sum_{i=1..k-1} a_i ⊗ b_{k-i}``;
    the resulting unit scalar ``unit_a * unit_b`` is the caller's to track.
    """
    m = len(a)
    out = []
    for k in range(1, m + 1):
        acc = unit_b * a[k - 1] + unit_a * b[k - 1]
        for i in range(1, k):
            acc = acc + _outer(a[i - 1], b[k - i - 1])
        out.append(acc)
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


def checkpoint_scan(increments: np.ndarray, fine_per_segment: int, depth: int) -> Levels:
    """Prefix signatures sampled every ``fine_per_segment`` fine steps.

    ``increments`` has shape ``(..., n, d)`` with ``n = N * fine_per_segment``.
    Returns levels with an extra axis: entry ``k-1`` has shape
    ``(..., N+1, d**k)``; slot ``n`` holds the signature of fine steps
    ``0..n*fine_per_segment`` (slot 0 is the identity, i.e. ``+0.0``).
    Each level is allocated with its ``N+1`` slots when it is first
    written, and its later slots are written in place.

    Depths up to 3 take all prefixes from one pass of cumulative sums over
    the whole path, with no product chain, contract them per block of
    ``every = fine_per_segment`` steps with one batched matmul and sum over
    blocks.  With ``x_s`` the increment of step ``s``, ``S1``/``S2`` the
    level-1/level-2 cumulative sums and ``mid_s = S1_s - x_s/2``, level 2
    sums ``mid_s⊗x_s`` and level 3 sums ``a_s⊗x_s`` over the flattened rows
    ``a_s = S2_s - mid_s⊗x_s/2 - x_s⊗x_s/12``, which expands to the exact
    gain ``S2_{s-1}⊗x_s + S1_{s-1}⊗x_s⊗x_s/2 + x_s^{⊗3}/6``.  Deeper
    truncations sample the sequential Chen scan at the checkpoints.
    """
    *batch, n, d = increments.shape
    every = fine_per_segment
    if every <= 0 or n % every != 0:
        raise ValueError(f"fine step count {n} is not a multiple of {every}")

    def slots(k):  # level k with its N+1 slots, slot 0 the identity (+0.0)
        lvl = np.empty(tuple(batch) + (n // every + 1, d ** k))
        lvl[..., 0, :] = 0.0
        return lvl

    if n == 0:  # an empty path has one prefix, the identity
        return [slots(k) for k in range(1, depth + 1)]
    if depth > 3:
        out = [slots(k) for k in range(1, depth + 1)]
        levels = identity_levels(tuple(batch), d, depth)
        for s, step in enumerate(_step_major(increments), 1):
            levels = product(levels, segment_exp(step, depth))
            if s % every == 0:
                for lvl, level in zip(out, levels):
                    lvl[..., s // every, :] = level
        return out
    blocks = tuple(batch) + (n // every, every)

    def contract(a, k):  # sum_s a_s⊗x_s per block, flattened, summed over blocks
        per_block = np.matmul(np.swapaxes(a.reshape(blocks + a.shape[-1:]), -1, -2),
                              increments.reshape(blocks + (d,)))
        lvl = slots(k)
        np.cumsum(per_block.reshape(per_block.shape[:-2] + (-1,)), axis=-2,
                  out=lvl[..., 1:, :])
        return lvl

    cum = np.cumsum(increments, axis=-2)
    lvl1 = slots(1)
    lvl1[..., 1:, :] = cum[..., every - 1::every, :]
    if depth == 1:
        return [lvl1]
    mid = cum
    mid -= 0.5 * increments
    if depth == 2:
        return [lvl1, contract(mid, 2)]
    step2 = _outer(mid, increments)
    a = np.cumsum(step2, axis=-2)
    lvl2 = slots(2)
    lvl2[..., 1:, :] = a[..., every - 1::every, :]
    step2 *= 0.5
    a -= step2
    sq = _outer(increments, increments)
    sq /= 12.0
    a -= sq
    return [lvl1, lvl2, contract(a, 3)]


def log_of_group(s: Levels) -> Levels:
    """Tensor logarithm of a group-like series (unit 1); result is Lie-like."""
    m = len(s)
    acc = copy_levels(s)
    power = s  # (s - 1)^{⊗1}: same level blocks, unit 0
    for n in range(2, m + 1):
        power = product(power, s, 0.0, 0.0)
        coeff = (-1.0) ** (n + 1) / n
        for k in range(n, m + 1):
            acc[k - 1] = acc[k - 1] + coeff * power[k - 1]
    return acc


def exp_of_lie(v: Levels) -> Levels:
    """Tensor exponential of a Lie-like series (unit 0); result is group-like."""
    m = len(v)
    acc = copy_levels(v)
    power = v
    for n in range(2, m + 1):
        power = product(power, v, 0.0, 0.0)
        inv_fact = 1.0 / math.factorial(n)
        for k in range(n, m + 1):
            acc[k - 1] = acc[k - 1] + inv_fact * power[k - 1]
    return acc


# ---------------------------------------------------------------------------
# reverse-mode companions
# ---------------------------------------------------------------------------

def _contract_right(cot: np.ndarray, b: np.ndarray, d: int, i: int, j: int) -> np.ndarray:
    """d<cot, X ⊗ b>/dX for X at level ``i``, ``b`` at level ``j``."""
    mat = cot.reshape(cot.shape[:-1] + (d ** i, d ** j))
    return np.einsum("...ij,...j->...i", mat, b)


def _contract_left(cot: np.ndarray, a: np.ndarray, d: int, i: int, j: int) -> np.ndarray:
    """d<cot, a ⊗ X>/dX for ``a`` at level ``i``, X at level ``j``."""
    mat = cot.reshape(cot.shape[:-1] + (d ** i, d ** j))
    return np.einsum("...ij,...i->...j", mat, a)


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
            grad_a[i - 1] += _contract_right(cot[k - 1], b[j - 1], d, i, j)
            grad_b[j - 1] += _contract_left(cot[k - 1], a[i - 1], d, i, j)
    return grad_a, grad_b


def log_of_group_vjp(s: Levels, cot: Levels) -> Levels:
    """Cotangent of :func:`log_of_group` with respect to the input levels.

    ``log(s) = s + sum_{n=2..m} (-1)**(n+1) / n * u_n`` with the product chain
    ``u_1 = s``, ``u_n = u_{n-1} ⊗ s`` (units 0); the chain is walked back
    from ``u_m`` with :func:`product_vjp`.
    """
    m = len(s)
    powers = [s]
    for _ in range(2, m):
        powers.append(product(powers[-1], s, 0.0, 0.0))
    grad = copy_levels(cot)
    carry = [np.zeros_like(c) for c in cot]  # cotangent of u_n from u_{n+1}
    for n in range(m, 1, -1):
        coeff = (-1.0) ** (n + 1) / n
        g_power = [coeff * c + g for c, g in zip(cot, carry)]
        carry, g_s = product_vjp(powers[n - 2], s, g_power, 0.0, 0.0)
        grad = [g + h for g, h in zip(grad, g_s)]
    return [g + h for g, h in zip(grad, carry)]


def _revcumsum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum over axes ``(-3, -2)`` read as one, from the last entry back."""
    rows = a.reshape(a.shape[:-3] + (-1, a.shape[-1]))
    return np.cumsum(rows[..., ::-1, :], axis=-2)[..., ::-1, :].reshape(a.shape)


def checkpoint_scan_vjp(increments: np.ndarray, fine_per_segment: int,
                        cot: Levels) -> np.ndarray:
    """Cotangent of :func:`checkpoint_scan` with respect to ``increments``.

    ``cot`` has the scan's shapes (the depth is ``len(cot)``); slot 0, the
    identity, is inert.  The one-pass forward of :func:`checkpoint_scan` runs in
    reverse for depths 1-3, with ``mid`` and ``a`` recomputed.  Block ``b``
    enters every checkpoint after it, so its level cotangent ``G_k`` sums
    ``cot[k]`` over slots ``b+1..N``.  With ``G_k`` read at each step's block
    and ``rev`` a cumulative sum over the whole path from the last step
    back: depth 3 gives ``g_a = x G3ᵀ`` (``G3`` as ``(d², d)``) and
    ``g_x += a G3``, then ``rev(g_a) - g_a/2 + G2`` flows through ``mid⊗x``
    and ``-g_a/12`` through ``x⊗x``; depth 2 gives ``g_mid = x G2ᵀ`` and
    ``g_x += mid G2``; every depth ends with ``g_x += rev(g_mid) - g_mid/2 + G1``.
    """
    depth, d = len(cot), increments.shape[-1]
    if depth > 3:
        raise ValueError(f"no closed-form checkpoint scan VJP at depth {depth} > 3")
    if increments.shape[-2] == 0:  # an empty path: nothing to pull back
        return np.zeros_like(increments)
    x = increments.reshape(increments.shape[:-2] + (-1, fine_per_segment, d))
    g = [_revcumsum(c[..., 1:, None, :]) for c in cot]  # (..., N, 1, d**k)
    g_x = np.repeat(g[0], fine_per_segment, axis=-2)
    if depth == 1:
        return g_x.reshape(increments.shape)
    mid = np.cumsum(increments, axis=-2).reshape(x.shape)
    mid -= 0.5 * x
    if depth == 2:
        g2 = g[1].reshape(g[1].shape[:-2] + (d, d))
        g_mid = x @ np.swapaxes(g2, -1, -2)
        g_x += mid @ g2
    else:
        step2 = _outer(mid, x)
        a = np.cumsum(step2.reshape(increments.shape[:-1] + (-1,)), axis=-2)
        a = a.reshape(step2.shape)
        a -= 0.5 * step2
        a -= _outer(x, x) / 12.0
        g3 = g[2].reshape(g[2].shape[:-2] + (d * d, d))
        g_a = x @ np.swapaxes(g3, -1, -2)
        g_x += a @ g3
        per_step = x.shape + (d,)
        g_step2 = (_revcumsum(g_a) - 0.5 * g_a + g[1]).reshape(per_step)
        g_sq = g_a.reshape(per_step) / 12.0
        g_mid = (g_step2 @ x[..., None])[..., 0]
        g_x += (mid[..., None, :] @ g_step2)[..., 0, :]
        g_x -= ((g_sq + np.swapaxes(g_sq, -1, -2)) @ x[..., None])[..., 0]
    g_x += _revcumsum(g_mid)
    g_x -= 0.5 * g_mid
    return g_x.reshape(increments.shape)


def increments_to_nodes_grad(grad_inc: np.ndarray) -> np.ndarray:
    """Convert a gradient w.r.t. segment increments into one w.r.t. path nodes."""
    batch = grad_inc.shape[:-2]
    n, d = grad_inc.shape[-2:]
    grad_nodes = np.zeros(batch + (n + 1, d))
    grad_nodes[..., 1:, :] += grad_inc
    grad_nodes[..., :-1, :] -= grad_inc
    return grad_nodes
