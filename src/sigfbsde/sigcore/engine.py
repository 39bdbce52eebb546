"""Array-level kernels for the truncated tensor algebra over paths.

Coefficients of a depth-``m`` series over ``d`` channels are stored as a
list of ``m`` arrays, where entry ``k-1`` has trailing dimension ``d**k``
and holds the level-``k`` block in lexicographic multi-index order
(index ``(i_1, ..., i_k)`` sits at offset ``sum((i_j - 1) * d**(k-j))``).
Leading axes are arbitrary batch axes shared by every level; all kernels
broadcast over them.  The level-0 scalar is carried separately by callers
(1 for group-like series, 0 for Lie-like ones).

Everything here is pure-numpy and allocation-only; reverse-mode companions
(`*_vjp`) return cotangents with the same layout.  At every depth the
checkpoint scan is one pass of cumulative sums over the whole path: the
prefix up to a step is the one before it times ``exp(x)``, so level ``k``
gains ``T_k⊗x``, one Horner recursion in the lower levels' sums (the fused
multiply-exponentiate of Signatory, Kidger & Lyons 2021).  Its VJP runs the
recursion backwards.
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


def _horner(x: np.ndarray, depth: int, read=lambda s: None) -> list:
    """Chains of levels ``2..depth`` over the steps ``x`` of shape ``(..., n, d)``.

    Level ``k``'s chain ``C_1 = S^1 - x/k``, ``C_j = S^j - C_{j-1}⊗x/(k-j+1)``
    runs over the inclusive cumulative sums ``S^j`` of the levels below it
    and ends in ``T_k``.  ``read`` sees each sum when it is made, since the
    top chain, the sums' last reader, spends them in place.
    """
    sums, chains = [np.cumsum(x, axis=-2)], []
    read(sums[0])
    for k in range(2, depth + 1):
        chain = []
        for j, s in enumerate(sums, 1):
            term = x * (1 / (k - j + 1))  # a multiply: dividing takes 3x as long
            chain.append(np.subtract(s, _outer(chain[-1], term) if j > 1 else term,
                                     out=s if k == depth else None))
        chains.append(chain)
        if k < depth:
            gain = _outer(chain[-1], x)
            sums.append(np.cumsum(gain, axis=-2, out=gain))
            read(gain)
    return chains


def checkpoint_scan(increments: np.ndarray, fine_per_segment: int, depth: int) -> Levels:
    """Prefix signatures sampled every ``fine_per_segment`` fine steps.

    ``increments`` has shape ``(..., n, d)`` with ``n = N * fine_per_segment``.
    Returns levels with an extra axis: entry ``k-1`` has shape
    ``(..., N+1, d**k)``; slot ``n`` holds the signature of fine steps
    ``0..n*fine_per_segment`` (slot 0 is the identity, i.e. ``+0.0``).
    Each level is allocated with its ``N+1`` slots when it is first written.

    One pass over the whole path at every depth: the prefix ``S`` up to a
    step is the one before it times ``exp(x)``, so the step adds ``T_k⊗x``
    to level ``k``, with the Horner recursion (:func:`_horner`)
    ``T_k = S^{k-1} - (S^{k-2} - (... (S^1 - x/k)⊗x/(k-1) ...)⊗x/3)⊗x/2``.
    Levels below ``depth`` are the cumulative sums of their gains, read at
    the block ends; the top level contracts ``T_depth`` with ``x`` per block
    by one batched matmul and sums over blocks.
    """
    *batch, n, d = increments.shape
    every = fine_per_segment
    if every <= 0 or n % every != 0:
        raise ValueError(f"fine step count {n} is not a multiple of {every}")
    out = []

    def slots(width):  # a level with its N+1 slots, slot 0 the identity (+0.0)
        lvl = np.empty(tuple(batch) + (n // every + 1, width))
        lvl[..., 0, :] = 0.0
        out.append(lvl)
        return lvl

    if n == 0:  # an empty path has one prefix, the identity
        return [slots(d ** k) for k in range(1, depth + 1)]

    def read(s):  # a level below the top, at the block ends
        slots(s.shape[-1])[..., 1:, :] = s[..., every - 1::every, :]

    chains = _horner(increments, depth, read)
    if chains:  # the top level; at depth 1 it is the sum S^1
        blocks = tuple(batch) + (n // every, every, -1)
        per_block = np.matmul(np.swapaxes(chains[-1][-1].reshape(blocks), -1, -2),
                              increments.reshape(blocks))
        np.cumsum(per_block.reshape(per_block.shape[:-2] + (-1,)), axis=-2,
                  out=slots(d ** depth)[..., 1:, :])
    return out


def _add(acc: Levels, k: int, term: np.ndarray) -> None:
    """Add ``term`` to level ``k`` of ``acc``, where ``None`` is an empty sum."""
    acc[k - 1] = term if acc[k - 1] is None else acc[k - 1] + term


def _next_power(power: Levels, s: Levels, n: int) -> Levels:
    """``(s-1)^{⊗n}`` from ``power = (s-1)^{⊗(n-1)}``, both with unit 0.

    Levels below ``n`` of the result are zero, and so are levels below
    ``n-1`` of ``power``: only levels ``k ≥ n`` are made, each the sum of
    the blocks ``power_i ⊗ s_{k-i}`` with ``i ≥ n-1`` in ascending ``i``,
    and the levels below are ``None``.
    """
    out: Levels = [None] * len(s)
    for k in range(n, len(s) + 1):
        for i in range(n - 1, k):
            _add(out, k, _outer(power[i - 1], s[k - i - 1]))
    return out


def _power_series(s: Levels, coeff) -> Levels:
    """``s + sum_{n=2..m} coeff(n) * (s-1)^{⊗n}``, the powers made by :func:`_next_power`."""
    acc, power = copy_levels(s), s  # (s - 1)^{⊗1}: same level blocks, unit 0
    for n in range(2, len(s) + 1):
        power = _next_power(power, s, n)
        for k in range(n, len(s) + 1):
            acc[k - 1] = acc[k - 1] + coeff(n) * power[k - 1]
    return acc


def log_of_group(s: Levels) -> Levels:
    """Tensor logarithm of a group-like series (unit 1); result is Lie-like."""
    return _power_series(s, lambda n: (-1.0) ** (n + 1) / n)


def exp_of_lie(v: Levels) -> Levels:
    """Tensor exponential of a Lie-like series (unit 0); result is group-like."""
    return _power_series(v, lambda n: 1.0 / math.factorial(n))


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


def log_of_group_vjp(s: Levels, cot: Levels) -> Levels:
    """Cotangent of :func:`log_of_group` with respect to the input levels.

    ``log(s) = s + sum_{n=2..m} (-1)**(n+1) / n * u_n`` with :func:`_next_power`'s
    chain ``u_1 = s``, ``u_n = u_{n-1} ⊗ s``, walked back from ``u_m`` over only
    the blocks it multiplied, in ascending ``k``, then ascending ``i``.
    """
    m, d = len(s), s[0].shape[-1]
    powers = [s]
    for n in range(2, m):
        powers.append(_next_power(powers[-1], s, n))
    grad, carry = copy_levels(cot), [None] * m  # carry: u_n's cotangent from u_{n+1}
    for n in range(m, 1, -1):
        coeff = (-1.0) ** (n + 1) / n
        g_u = [coeff * c if h is None else coeff * c + h  # u_n's levels n..m
               for c, h in zip(cot[n - 1:], carry[n - 1:])]
        carry, g_s = [None] * m, [None] * m
        for k in range(n, m + 1):
            for i in range(n - 1, k):
                _add(carry, i, _contract_right(g_u[k - n], s[k - i - 1], d, i, k - i))
                _add(g_s, k - i, _contract_left(g_u[k - n], powers[n - 2][i - 1], d, i, k - i))
        grad = [g if h is None else g + h for g, h in zip(grad, g_s)]
    return [g if h is None else g + h for g, h in zip(grad, carry)]


def _revcumsum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum over axes ``(-3, -2)`` read as one, from the last entry back."""
    rows = a.reshape(a.shape[:-3] + (-1, a.shape[-1]))
    return np.cumsum(rows[..., ::-1, :], axis=-2)[..., ::-1, :].reshape(a.shape)


def checkpoint_scan_vjp(increments: np.ndarray, fine_per_segment: int,
                        cot: Levels) -> np.ndarray:
    """Cotangent of :func:`checkpoint_scan` with respect to ``increments``.

    ``cot`` has the scan's shapes (the depth is ``len(cot)``); slot 0, the
    identity, is inert.  The scan's recursion runs backwards, top level
    first, on recomputed chains.  Block ``b`` enters every checkpoint after
    it, so the level-``k`` gains ``T_k⊗x`` of its steps get ``G_k``,
    ``cot[k]`` summed over slots ``b+1..N``, plus the cotangents that the
    chains above put on ``S^k``, summed from the last step back.  The top
    level has no chain above it: one matmul per block pulls it back.  Each
    ``C_j = S^j - C_{j-1}⊗x/q`` passes its cotangent to ``S^j``, ``C_{j-1}``
    and ``x``.
    """
    depth, d = len(cot), increments.shape[-1]
    if increments.shape[-2] == 0:  # an empty path: nothing to pull back
        return np.zeros_like(increments)
    x = increments.reshape(increments.shape[:-2] + (-1, fine_per_segment, d))
    chains = _horner(increments, depth)
    g = [_revcumsum(c[..., 1:, None, :]) for c in cot]  # G_k, (..., N, 1, d**k)
    # per-step cotangents of the gains below the top; level 1 gains x itself
    g_x = np.repeat(g[0], fine_per_segment, axis=-2)
    g_gain = [g_x] + [np.repeat(gk, fine_per_segment, axis=-2) for gk in g[1:-1]]

    def pull(a, g_ax):  # cotangents of a and x in the per-step a⊗x
        gm = g_ax.reshape(g_ax.shape[:-1] + (-1, d))
        return (gm @ x[..., None])[..., 0], (a.reshape(gm.shape[:-2] + (1, -1)) @ gm)[..., 0, :]

    for k in range(depth, 1, -1):
        chain = chains[k - 2]
        if k == depth:
            top = g[-1].reshape(g[-1].shape[:-2] + (-1, d))
            g_c = x @ np.swapaxes(top, -1, -2)
            g_x += chain[-1].reshape(x.shape[:-1] + (-1,)) @ top
        else:
            g_c, g_dx = pull(chain[-1], g_gain[k - 1])
            g_x += g_dx
        for j in range(k - 1, 0, -1):  # g_c is the cotangent of C_j
            g_gain[j - 1] += _revcumsum(g_c)
            g_dx = g_c
            if j > 1:
                g_c, g_dx = pull(chain[j - 2], g_c)
                g_c *= -1 / (k - j + 1)
            g_x -= g_dx * (1 / (k - j + 1))
    return g_x.reshape(increments.shape)


def increments_to_nodes_grad(grad_inc: np.ndarray) -> np.ndarray:
    """Convert a gradient w.r.t. segment increments into one w.r.t. path nodes."""
    batch = grad_inc.shape[:-2]
    n, d = grad_inc.shape[-2:]
    grad_nodes = np.zeros(batch + (n + 1, d))
    grad_nodes[..., 1:, :] += grad_inc
    grad_nodes[..., :-1, :] -= grad_inc
    return grad_nodes
