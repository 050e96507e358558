"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from polystruct.ffpoly import FieldCtx, MultiPoly


def random_poly(rng: np.random.Generator, ctx: FieldCtx, n: int, max_degree: int,
                ensure_degree: int | None = None) -> MultiPoly:
    """Uniform coefficients over all monomials of total degree <= max_degree."""
    monomials = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=n)
        if sum(e) <= max_degree
    ]
    while True:
        terms = {e: int(rng.integers(0, ctx.p)) for e in monomials}
        f = MultiPoly(ctx, n, terms)
        if ensure_degree is None or f.degree() == ensure_degree:
            return f


def random_point(rng: np.random.Generator, p: int, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, p, size=n))


def naive_value(f: MultiPoly, x) -> int:
    """f(x) term by term with Python ints: the per-point reference for batched evaluation."""
    total = 0
    for e, c in f.terms.items():
        term = c
        for v, ei in zip(x, e):
            term = term * pow(int(v) % f.p, ei, f.p) % f.p
        total += term
    return total % f.p
