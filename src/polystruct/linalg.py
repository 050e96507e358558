"""Dense exact linear algebra over F_p, sized for desk-scale systems.

Pivoting is deterministic: within each column the pivot is the first
(lowest-index) row with a nonzero entry.
"""

from __future__ import annotations

import numpy as np


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column indices)."""
    a = [[v % p for v in row] for row in rows]
    if not a:
        return a, []
    m, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                fac = a[i][c]
                a[i] = [(vi - fac * vr) % p for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(rows: list[list[int]], p: int) -> int:
    return len(rref(rows, p)[1])


def ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """rank(matrix, p) of every matrix in a (B, rows, cols) stack of ints in [0, p), by
    one elimination over the stack, inverses from a length-p table (int64: p < 2^31).
    Rows above the rank so far are never read again, so the pivot row is not stored."""
    a = np.array(stack, dtype=np.int64)
    inverse = np.array([0, *(pow(v, p - 2, p) for v in range(1, p))], dtype=np.int64)
    rank, lines = np.zeros(len(a), dtype=np.int64), np.arange(a.shape[1])
    for c in range(a.shape[2]):
        free = (a[:, :, c] != 0) & (lines >= rank[:, None])
        has = np.flatnonzero(free.any(axis=1))
        if len(has):
            sub, top, at, row = a[has], rank[has], np.arange(len(has)), free[has].argmax(axis=1)
            pivot = sub[at, row] * inverse[sub[at, row, c]][:, None] % p
            sub[at, row] = sub[at, top]
            factors = np.where(lines > top[:, None], sub[:, :, c], 0)
            a[has] = (sub - factors[:, :, None] * pivot[:, None, :]) % p
            rank[has] += 1
    return rank


def solve(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """One solution of A x = rhs over F_p (free variables 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [row + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, p)
    for i, row in enumerate(red):
        if all(v == 0 for v in row[:ncols]) and row[ncols] % p:
            return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            x[c] = red[r][ncols]
    return x

