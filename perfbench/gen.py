"""Seeded instance generator for the benchmark.

Every instance is plain data (p, n, and term dicts) so that a job builds its
polynomials afresh each time it runs.  Monomials of total degree <= d are
enumerated directly, never by filtering the (d+1)^n exponent grid, which at
n = 16 has 43 million entries.
"""

from __future__ import annotations

import numpy as np


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors in n variables of total degree <= d, graded order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), budget - e)

    rec((), d)
    return sorted(out, key=lambda e: (sum(e), e))


def random_terms(rng: np.random.Generator, p: int, n: int, d: int) -> dict:
    """Uniform coefficients over every monomial of degree <= d."""
    mons = monomials(n, d)
    coeffs = rng.integers(0, p, size=len(mons))
    return {e: int(c) for e, c in zip(mons, coeffs) if c}


def random_full_degree(rng: np.random.Generator, p: int, n: int, d: int) -> dict:
    """random_terms redrawn until the top degree d is present."""
    while True:
        terms = random_terms(rng, p, n, d)
        if any(sum(e) == d for e in terms):
            return terms


def terms_add(p: int, *parts: tuple[int, dict]) -> dict:
    """sum_i c_i * terms_i with coefficients reduced mod p."""
    out: dict = {}
    for c, terms in parts:
        for e, v in terms.items():
            out[e] = (out.get(e, 0) + c * v) % p
    return {e: v for e, v in out.items() if v}


def terms_mul(p: int, a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: v for e, v in out.items() if v}


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row rank over F_p by plain Gaussian elimination."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [(v * inv) % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def independent_forms(
    rng: np.random.Generator, p: int, n: int, count: int, support: int
) -> list[list[int]]:
    """count linearly independent linear forms, each on `support` variables."""
    while True:
        forms = []
        for _ in range(count):
            row = [0] * n
            for i in rng.choice(n, size=support, replace=False):
                row[int(i)] = int(rng.integers(1, p))
            forms.append(row)
        if rank_mod_p(forms, p) == count:
            return forms


def planted_quadratic(rng: np.random.Generator, p: int, forms: list[list[int]]) -> dict:
    """sum_i d_i * l_i(x)^2 + c over independent linear forms l_i (p odd).

    With m forms the symmetric matrix has rank exactly m, its row space is
    the span of the forms, and the linear part is zero, so
    |bias| = p^(-m/2) and ||e(f)||_{U^2}^4 = p^(-m).
    """
    n = len(forms[0])
    parts = []
    for row in forms:
        lin = {}
        for i, a in enumerate(row):
            if a:
                e = [0] * n
                e[i] = 1
                lin[tuple(e)] = a
        parts.append((int(rng.integers(1, p)), terms_mul(p, lin, lin)))
    terms = terms_add(p, *parts)
    const = int(rng.integers(0, p))
    if const:
        terms[(0,) * n] = const
    return terms


def values(p: int, n: int, terms: dict) -> np.ndarray:
    """Values at all p^n points in lexicographic order (numpy, for selection)."""
    pts = np.indices((p,) * n).reshape(n, -1).T if n else np.zeros((1, 0), int)
    out = np.zeros(len(pts), dtype=np.int64)
    for e, c in terms.items():
        term = np.full(len(pts), c, dtype=np.int64)
        for i, k in enumerate(e):
            if k:
                term = term * pts[:, i] ** k % p
        out = (out + term) % p
    return out


def bias_magnitude(p: int, n: int, terms: dict) -> float:
    phases = np.exp(2j * np.pi * values(p, n, terms) / p)
    return float(abs(phases.mean()))
