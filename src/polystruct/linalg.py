"""Dense exact linear algebra over F_p, sized for desk-scale systems.

Matrices are 2-D numpy arrays of residues: int64 while (p - 1)^2 < 2^63, else
exact object ints.  A column's pivot is its first nonzero entry at or below the
current row.
"""

from __future__ import annotations

import numpy as np


def rref(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a 2-D int sequence (list of lists or array; [] is
    one empty row); returns (array, pivot column indices)."""
    a = np.array(rows, dtype=np.int64 if (p - 1) ** 2 < 2**63 else object, ndmin=2) % p
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == len(a):
            break
        below = a[r:, c].nonzero()[0]
        if not len(below):
            continue
        i = r + below[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a -= factors[:, None] * a[r]
        a %= p
        pivots.append(c)
    return a, pivots


def rank(rows, p: int) -> int:
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


def solve(rows, rhs, p: int) -> list[int] | None:
    """One solution of A x = rhs over F_p as Python ints (free variables 0), or None:
    inconsistent iff the rhs column of the augmented rows holds a pivot."""
    if len(rows) == 0:
        return None
    n = len(rows[0])
    augmented = np.column_stack([np.array(rows, dtype=object), np.array(rhs, dtype=object)])
    red, pivots = rref(augmented, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=red.dtype)
    x[pivots] = red[:len(pivots), n]
    return x.tolist()
