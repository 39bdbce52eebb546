"""Lyndon-word coordinates for Lie-like tensor series.

A Lyndon word is strictly smaller than every proper rotation of itself.
The standard bracketing of a Lyndon word ``w``, expanded into tensor
coordinates, is ``w`` plus a combination of lexicographically larger
anagrams of ``w``.  So a Lie series is determined by its coefficients at
the Lyndon words alone: they are its bracket-basis coordinates times a
unit-triangular matrix.  The coordinates used here are those coefficients,
read off the tensor levels by a gather (the ``"words"`` log-signature of
Signatory, Kidger & Lyons 2021).  The matrix is the identity at every
depth up to 2, and up to depth 4 with two channels, so there they equal
the bracket-basis coordinates too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import engine

Word = tuple  # tuple[int, ...] of 1-based letters


def _lyndon_words_of_length(channels: int, length: int) -> list[Word]:
    # Duval's generation yields words in lexicographic order.
    out = []
    w = [0]
    while w:
        if len(w) == length:
            out.append(tuple(x + 1 for x in w))
        # extend periodically to the target length, then increment
        w = w * (length // len(w)) + w[: length % len(w)]
        while w and w[-1] == channels - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def lyndon_count(channels: int, max_len: int) -> int:
    """Number of Lyndon words of length <= ``max_len``.  A word of length ``k``
    is a power of one of the ``e`` rotations of a Lyndon word of length ``e | k``,
    so the counts ``L_e`` solve ``sum_{e|k} e * L_e = channels**k``."""
    counts = [0]
    for k in range(1, max_len + 1):
        below = sum(e * counts[e] for e in range(1, k) if k % e == 0)
        counts.append((channels ** k - below) // k)
    return sum(counts)


def _word_offset(word: Word, channels: int) -> int:
    off = 0
    for letter in word:
        off = off * channels + (letter - 1)
    return off


@dataclass(frozen=True)
class _LevelBasis:
    words: list
    positions: np.ndarray        # tensor offsets of the Lyndon words, lex order


@lru_cache(maxsize=None)
def basis(channels: int, depth: int) -> tuple[_LevelBasis, ...]:
    levels = []
    for k in range(1, depth + 1):
        words = _lyndon_words_of_length(channels, k)
        positions = np.array([_word_offset(w, channels) for w in words], dtype=np.intp)
        levels.append(_LevelBasis(words, positions))
    return tuple(levels)


def project(levels: engine.Levels, channels: int, depth: int) -> np.ndarray:
    """Coefficients of a Lie-like series at the Lyndon words, concatenated per level."""
    data = basis(channels, depth)
    return np.concatenate([levels[k][..., data[k].positions] for k in range(depth)],
                          axis=-1)


def project_vjp(cot: np.ndarray, channels: int, depth: int) -> engine.Levels:
    """Cotangent of :func:`project` as tensor-level blocks: a scatter to the
    Lyndon positions, zero elsewhere."""
    grads = []
    offset = 0
    for k, level in enumerate(basis(channels, depth)):
        n_w = len(level.words)
        block = np.zeros(cot.shape[:-1] + (channels ** (k + 1),))
        block[..., level.positions] = cot[..., offset:offset + n_w]
        grads.append(block)
        offset += n_w
    return grads
