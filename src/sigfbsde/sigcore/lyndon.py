"""Lyndon-word coordinates for Lie-like tensor series.

A Lyndon word is strictly smaller than every proper rotation of itself;
the bracketings of Lyndon words form a basis of the free Lie algebra.
Expanded into tensor coordinates, the bracketing of a word ``w`` equals
``w`` plus a combination of lexicographically larger anagrams of ``w``,
so reading Lie coefficients off the tensor expansion is a unit-triangular
solve against the coefficients at the Lyndon positions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import engine

Word = tuple  # tuple[int, ...] of 1-based letters


def is_lyndon(word: Word) -> bool:
    n = len(word)
    if n == 0:
        return False
    return all(word < word[s:] + word[:s] for s in range(1, n))


def lyndon_words(channels: int, max_len: int) -> list[Word]:
    """All Lyndon words of length <= ``max_len``, length-major then lexicographic."""
    out: list[Word] = []
    for length in range(1, max_len + 1):
        out.extend(_lyndon_words_of_length(channels, length))
    return out


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
    return [wd for wd in out if len(wd) == length]


def _mobius(n: int) -> int:
    result, p, nn = 1, 2, n
    while p * p <= nn:
        if nn % p == 0:
            nn //= p
            if nn % p == 0:
                return 0
            result = -result
        p += 1
    if nn > 1:
        result = -result
    return result


def lyndon_count(channels: int, max_len: int) -> int:
    """Witt formula: number of Lyndon words of length <= ``max_len``."""
    total = 0
    for k in range(1, max_len + 1):
        acc = 0
        for e in range(1, k + 1):
            if k % e == 0:
                acc += _mobius(e) * channels ** (k // e)
        total += acc // k
    return total


def _word_offset(word: Word, channels: int) -> int:
    off = 0
    for letter in word:
        off = off * channels + (letter - 1)
    return off


def _concat_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = wa + wb
            out[key] = out.get(key, 0) + ca * cb
    return out


def _bracket_expansion(word: Word, cache: dict) -> dict:
    """Tensor expansion of the standard Lyndon bracketing of ``word``."""
    if word in cache:
        return cache[word]
    if len(word) == 1:
        exp = {word: 1}
    else:
        # standard factorisation: the longest proper Lyndon suffix
        for s in range(1, len(word)):
            if is_lyndon(word[s:]):
                left, right = word[:s], word[s:]
                break
        el = _bracket_expansion(left, cache)
        er = _bracket_expansion(right, cache)
        exp = _concat_product(el, er)
        for key, coeff in _concat_product(er, el).items():
            exp[key] = exp.get(key, 0) - coeff
            if exp[key] == 0:
                del exp[key]
    cache[word] = exp
    return exp


@dataclass(frozen=True)
class _LevelBasis:
    words: list
    positions: np.ndarray        # tensor offsets of the Lyndon words, lex order
    solve_matrix: np.ndarray     # maps coefficients-at-positions rows to Lie rows
    # nonzeros of the (d**k, n_words) bracketing expansions: tensor offset,
    # word index and coefficient; the dense block is built only by expand
    expansion: tuple             # (rows, cols, vals)


@lru_cache(maxsize=None)
def basis(channels: int, depth: int) -> tuple[_LevelBasis, ...]:
    cache: dict = {}
    levels = []
    for k in range(1, depth + 1):
        words = _lyndon_words_of_length(channels, k)
        n_w = len(words)
        positions = np.array([_word_offset(w, channels) for w in words], dtype=np.intp)
        tri = np.zeros((n_w, n_w))
        rows, cols, vals = [], [], []
        index = {w: i for i, w in enumerate(words)}
        for c, w in enumerate(words):
            for v, coeff in _bracket_expansion(w, cache).items():
                rows.append(_word_offset(v, channels))
                cols.append(c)
                vals.append(float(coeff))
                if v in index:
                    tri[index[v], c] = coeff
        if not np.allclose(np.triu(tri, 1), 0.0) or not np.allclose(np.diag(tri), 1.0):
            raise AssertionError("Lyndon change of basis lost unit triangularity")
        expansion = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                     np.array(vals))
        # rows transform: lie = coeffs_at_positions @ inv(tri).T
        inv_tri = np.linalg.inv(tri)
        levels.append(_LevelBasis(words, positions, inv_tri.T.copy(), expansion))
    return tuple(levels)


def project(levels: engine.Levels, channels: int, depth: int) -> np.ndarray:
    """Lyndon coefficients of a Lie-like series, concatenated per level."""
    data = basis(channels, depth)
    parts = [levels[k][..., data[k].positions] @ data[k].solve_matrix
             for k in range(depth)]
    return np.concatenate(parts, axis=-1)


def project_vjp(cot: np.ndarray, channels: int, depth: int) -> engine.Levels:
    """Cotangent of :func:`project` as tensor-level blocks."""
    data = basis(channels, depth)
    grads = []
    offset = 0
    for k in range(depth):
        n_w = len(data[k].words)
        piece = cot[..., offset:offset + n_w] @ data[k].solve_matrix.T
        block = np.zeros(cot.shape[:-1] + (channels ** (k + 1),))
        block[..., data[k].positions] = piece
        grads.append(block)
        offset += n_w
    return grads


def expand(coefficients: np.ndarray, channels: int, depth: int) -> engine.Levels:
    """Tensor-level blocks of a Lie series given in Lyndon coordinates."""
    data = basis(channels, depth)
    out = []
    offset = 0
    for k in range(depth):
        n_w = len(data[k].words)
        piece = coefficients[..., offset:offset + n_w]
        rows, cols, vals = data[k].expansion
        dense = np.zeros((channels ** (k + 1), n_w))
        dense[rows, cols] = vals
        # the product reads the block column-major, through a transposed
        # view: a product's last bits can depend on its operand's layout
        out.append(piece @ dense.T)
        offset += n_w
    return out
