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

    Sums value(a) * prod_i (1 - (x_i - a_i)^(p-1)), the indicator of a, over
    every point a; the x^k coefficient of one factor is [k = 0] - C(p-1, k) (-a)^(p-1-k).
    """
    p, n = table.p, table.n

    def unit(k: int, a: int) -> int:
        return (k == 0) - math.comb(p - 1, k) * pow(-a, p - 1 - k, p)

    points = list(_points(p, n))
    return MultiPoly(FieldCtx(p), n, {
        e: sum(v * math.prod(map(unit, e, x)) for x, v in zip(points, table.values))
        for e in points
    })


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
