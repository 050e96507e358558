"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive and shares no arithmetic helpers
with the main modules beyond the field context: disagreement between an
oracle and its counterpart fails the build.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InputError
from .ffpoly import FieldCtx, MultiPoly


@dataclass(frozen=True)
class TruthTable:
    """Values of a function F_p^n -> F_p in lexicographic point order."""

    p: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.p ** self.n:
            raise InputError(
                f"table length {len(self.values)} != p^n = {self.p ** self.n}"
            )


def _points(p: int, n: int):
    return itertools.product(range(p), repeat=n)


def table_of(f: MultiPoly, caps: Caps = DEFAULT_CAPS) -> TruthTable:
    """Pointwise evaluation with its own term-by-term arithmetic."""
    p, n = f.p, f.n
    if p ** n > caps.enum_cap:
        raise CapExceeded(f"p^n = {p ** n} exceeds enumeration cap")
    values = []
    for x in _points(p, n):
        acc = 0
        for exps, coeff in f.terms.items():
            term = coeff
            for xi, ei in zip(x, exps):
                for _ in range(ei):
                    term = (term * xi) % p
            acc = (acc + term) % p
        values.append(acc)
    return TruthTable(p, n, tuple(values))


def interpolate(table: TruthTable) -> MultiPoly:
    """The unique reduced polynomial (all exponents < p) with these values.

    Solves the full evaluation system by naive Gauss-Jordan elimination.
    """
    p, n = table.p, table.n
    monomials = list(_points(p, n))  # exponent vectors with entries < p
    size = p ** n
    rows = []
    for x in _points(p, n):
        row = []
        for e in monomials:
            v = 1
            for xi, ei in zip(x, e):
                for _ in range(ei):
                    v = (v * xi) % p
            row.append(v)
        rows.append(row)
    aug = [row + [val % p] for row, val in zip(rows, table.values)]
    r = 0
    for c in range(size):
        pivot = None
        for i in range(r, size):
            if aug[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(size):
            if i != r and aug[i][c] % p:
                fac = aug[i][c]
                aug[i] = [(a - fac * b) % p for a, b in zip(aug[i], aug[r])]
        r += 1
    coeffs = [0] * size
    col = 0
    for i in range(r):
        while col < size and aug[i][col] % p == 0:
            col += 1
        if col < size:
            coeffs[col] = aug[i][size]
            col += 1
    ctx = FieldCtx(p)
    terms = {e: c for e, c in zip(monomials, coeffs) if c % p}
    return MultiPoly(ctx, n, terms)


def oracle_bias(table: TruthTable) -> complex:
    total = 0j
    for v in table.values:
        total += cmath.exp(2j * math.pi * v / table.p)
    return total / len(table.values)


def oracle_plurality(keys, values) -> tuple[dict, int, bool]:
    """Most frequent value per key over the votes (keys[j], values[j]), ties to
    the smallest value: the winners in the order keys first occur, the number
    of votes they reproduce, and whether every key received a single value."""
    tallies: dict = {}
    for key, value in zip(keys, values):
        tally = tallies.setdefault(tuple(int(v) for v in key), {})
        tally[int(value)] = tally.get(int(value), 0) + 1
    entries = {key: min(t, key=lambda v: (-t[v], v)) for key, t in tallies.items()}
    hits = sum(tallies[key][v] for key, v in entries.items())
    return entries, hits, all(len(t) == 1 for t in tallies.values())


def oracle_count_zeros(tables: list[TruthTable]) -> int:
    if not tables:
        raise InputError("need at least one table")
    size = len(tables[0].values)
    count = 0
    for i in range(size):
        if all(t.values[i] == 0 for t in tables):
            count += 1
    return count


def oracle_list_decode(
    p: int, n: int, d: int, center_values, radius, caps: Caps = DEFAULT_CAPS
) -> list[tuple[int, ...]]:
    """Truth tables of all degree <= d codewords within the radius, sorted."""
    monomials = [
        e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d
    ]
    if p ** len(monomials) > caps.codeword_cap:
        raise CapExceeded("codeword count exceeds cap")
    size = p ** n
    center = tuple(int(v) % p for v in center_values)
    if len(center) != size:
        raise InputError("center table length mismatch")
    points = list(_points(p, n))
    hits = []
    for coeffs in itertools.product(range(p), repeat=len(monomials)):
        values = []
        for x in points:
            acc = 0
            for e, c in zip(monomials, coeffs):
                term = c
                for xi, ei in zip(x, e):
                    for _ in range(ei):
                        term = (term * xi) % p
                acc = (acc + term) % p
            values.append(acc)
        disagree = sum(1 for a, b in zip(values, center) if a != b)
        if disagree / size <= radius + 1e-12:
            hits.append(tuple(values))
    return sorted(hits)
