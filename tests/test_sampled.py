"""Batched sampled estimators against per-point reference loops.

Each reference below draws from the same seeded generator in the same order
as the estimator once did, evaluates one point at a time with its own
arithmetic, and accumulates in sample order; a character average counts the
values and sums count * e(v/p) over ascending v.  Outputs must be equal.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from polystruct import decompose as decompose_mod
from polystruct import oracle
from polystruct.bias import gowers_norm, sampled_bias
from polystruct.config import Caps
from polystruct.decompose import Decomposition, decomposition_error
from polystruct.factor import PolynomialFactor, atom_histogram, parallelepiped_check
from polystruct.ffpoly import FieldCtx, LookupTable, MultiPoly, parse_poly
from util import naive_value, random_poly

ABOVE = Caps(enum_cap=1)  # p^n > 1 unless n = 0


def _phase(v, p):
    return cmath.exp(2j * math.pi * v / p)


def _counts_mean(values, p):
    """(1/len) sum_v N_v e(v/p) from a Counter of the values, over ascending v."""
    counter = Counter(values)
    total = 0j
    for v in sorted(counter):
        total += counter[v] * _phase(v, p)
    return total / len(values)


def _sequential_mean(values, p):
    total = 0j
    for v in values:
        total += _phase(v, p)
    return total / len(values)


def _cube(rng, p, n, k):
    x = rng.integers(0, p, size=n)
    ys = rng.integers(0, p, size=(k, n))
    for mask in range(1 << k):
        pt = x.copy()
        for j in range(k):
            if mask >> j & 1:
                pt = (pt + ys[j]) % p
        yield pt


def _random_poly(rng, p, n, terms=6, max_exp=7):
    return MultiPoly(FieldCtx(p), n, {
        tuple(int(v) for v in rng.integers(0, max_exp + 1, size=n)): int(rng.integers(1, p))
        for _ in range(terms)
    })


CASES = [(2, 3), (3, 4), (5, 2), (7, 3), (3, 0), (2**61 - 1, 2)]


@pytest.mark.parametrize("p,n", CASES)
def test_sampled_bias_matches_a_per_point_loop(p, n):
    rng = np.random.default_rng(p + n)
    for seed in range(4):
        f = _random_poly(rng, p, n)
        samples = 1 + 97 * seed
        pts = np.random.default_rng(seed).integers(0, p, size=(samples, n))
        values = [naive_value(f, row) for row in pts]
        ours = sampled_bias(f, samples, seed)
        assert ours.sample_count == samples
        assert ours.as_complex() == _counts_mean(values, p)
        # the sequential sum of the per-point loop: within 1e-12
        assert abs(ours.as_complex() - _sequential_mean(values, p)) <= 1e-12


# (p, n, order, samples); the last two span two batches of cube corners
CUBE_CASES = [(p, n, 1, 50) for p, n in CASES] + [(p, n, 3, 120) for p, n in CASES] + [
    (3, 4, 2, 4097), (3, 4, 3, 2049),
]


@pytest.mark.parametrize("p,n,d,samples", CUBE_CASES)
def test_sampled_gowers_matches_a_per_point_loop(p, n, d, samples):
    f = _random_poly(np.random.default_rng(d + p), p, n)
    rng = np.random.default_rng(d)
    sums = []
    for _ in range(samples):
        val = 0
        for m, pt in enumerate(_cube(rng, p, n, d)):
            val += (-1) ** (d - bin(m).count("1")) * naive_value(f, pt)
        sums.append(val % p)
    mean = _counts_mean(sums, p).real
    want = max(mean, 0.0) ** (1.0 / (1 << d))
    assert gowers_norm(f, d, mode="sampled", samples=samples, seed=d) == want
    # the sequential sum of the per-cube loop: within 1e-12
    assert abs(mean - _sequential_mean(sums, p).real) <= 1e-12


def test_sampled_gowers_sums_corners_exactly_over_a_62_bit_field():
    # U^8 of a quadratic is 1, while its signed corner sums pass 2^63; this
    # prime is about 3 * 2^60, so a sum wrapped mod 2^64 moves by about p/3
    f = parse_poly("x1^2 + x2", 3 * 2**60 + 5)
    assert gowers_norm(f, 8, mode="sampled", samples=40, seed=1) == 1.0


def _factor(rng, p, n, c):
    return PolynomialFactor([random_poly(rng, FieldCtx(p), n, 2) for _ in range(c)])


@pytest.mark.parametrize("p,n", CASES)
def test_sampled_atoms_match_a_per_point_loop(p, n):
    rng = np.random.default_rng(7)
    for c in (1, 3):
        factor = _factor(rng, p, n, c)
        pts = np.random.default_rng(c).integers(0, p, size=(400, n))
        want = Counter(tuple(naive_value(g, row) for g in factor.polys) for row in pts)
        got = atom_histogram(factor, ABOVE, samples=400, seed=c)
        assert got == dict(want) and list(got) == list(want)


@pytest.mark.parametrize("p,n,k,samples", [case for case in CUBE_CASES if case[2] > 2])
def test_parallelepiped_check_matches_a_per_point_loop(p, n, k, samples):
    factor = _factor(np.random.default_rng(k), p, n, 2)
    rng = np.random.default_rng(k + 1)
    want = Counter(
        tuple(tuple(naive_value(g, pt) for g in factor.polys) for pt in _cube(rng, p, n, k))
        for _ in range(samples)
    )
    report = parallelepiped_check(factor, k, samples, seed=k + 1)
    assert report.counts == dict(want) and list(report.counts) == list(want)
    assert report.support_size == len(want)
    predicted = report.predicted_frequency
    assert report.max_deviation == max(abs(cnt / samples - predicted) for cnt in want.values())


def _votes_table(f, polys, pts):
    keys = [tuple(naive_value(g, x) for g in polys) for x in pts]
    entries, hits, _ = oracle.oracle_plurality(keys, [naive_value(f, x) for x in pts])
    return LookupTable(f.p, len(polys), entries, default=0), 1.0 - hits / len(pts)


@pytest.mark.parametrize("p,n", [case for case in CASES if case[1]])
def test_sampled_fit_table_matches_a_per_point_loop(p, n):
    rng = np.random.default_rng(3)
    f = _random_poly(rng, p, n)
    for c in (0, 1, 3):
        polys = list(_factor(rng, p, n, c).polys)
        table, err = decompose_mod._fit_table(f, polys, ABOVE, 500, np.random.default_rng(c))
        pts = np.random.default_rng(c).integers(0, p, size=(500, n))
        want_table, want_err = _votes_table(f, polys, pts)
        assert (table.entries, table.default, err) == (
            want_table.entries, want_table.default, want_err
        )
        assert list(table.entries) == list(want_table.entries)


@pytest.mark.parametrize("p,n", CASES)
def test_sampled_decomposition_error_matches_a_per_point_loop(p, n):
    rng = np.random.default_rng(5)
    f = _random_poly(rng, p, n)
    for c in (0, 2):
        polys = list(_factor(rng, p, n, c).polys)
        gamma, _ = _votes_table(f, polys, rng.integers(0, p, size=(50, n)))
        dec = Decomposition(polys, gamma, None, 0.0, False)
        pts = np.random.default_rng(c).integers(0, p, size=(600, n))
        misses = sum(
            1 for x in pts if gamma(tuple(naive_value(g, x) for g in polys)) != naive_value(f, x)
        )
        got = decomposition_error(f, dec, mode="sampled", samples=600, seed=c)
        assert got == misses / 600

