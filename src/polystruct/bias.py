"""Polynomial bias and Gowers uniformity norms via the additive character.

Exact biases come from integer value counts, (1/p^n) sum_v N_v e(v/p)
summed over ascending v, so they do not depend on point order or chunking
and repeated runs are bit-for-bit identical.  Sampled estimators use the
seeded pcg64 generator and are deterministic given (seed, sample count).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import InputError
from .ffpoly import MultiPoly, cube_corners, points_lex

RNG_ALGORITHM = "pcg64"

BIAS_TOL = 1e-9  # slack when comparing a bias magnitude with a threshold p^-s


def _phase(v: int, p: int) -> complex:
    return cmath.exp(2j * math.pi * v / p)


def unit_phases(p: int) -> tuple[complex, ...]:
    return tuple(_phase(v, p) for v in range(p))


@dataclass(frozen=True)
class CharacterSum:
    """An averaged character value; sample_count 0 marks an exact average."""

    re: float
    im: float
    sample_count: int = 0

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def bias_from_counts(values, counts, p: int, size: int) -> CharacterSum:
    """The exact average (1/size) sum_v N_v e(v/p), summed over ascending v.

    values ascend and counts[i] is the number of points taking values[i];
    values with no points may be left out, as they add exactly nothing.
    """
    total = 0j
    for v, count in zip(values, counts):
        if count:
            total += int(count) * _phase(int(v), p)
    mean = total / size
    return CharacterSum(mean.real, mean.imag, 0)


def exact_bias(f: MultiPoly, caps: Caps = DEFAULT_CAPS) -> CharacterSum:
    """E_x[e(f(x))] over the full domain, from the count of each value."""
    size = f.p ** f.n
    caps.require("enum_cap", size)
    values, counts = np.unique(np.array(f.eval_table()), return_counts=True)
    return bias_from_counts(values, counts, f.p, size)


def sampled_bias(f: MultiPoly, samples: int, seed: int, caps: Caps = DEFAULT_CAPS) -> CharacterSum:
    """Unbiased Monte Carlo estimate of exact_bias, deterministic given seed."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, f.p, size=(samples, f.n))
    phases = np.array(unit_phases(f.p))
    if f.p ** f.n <= caps.enum_cap:
        table = np.array(f.eval_table())
        radix = f.p ** np.arange(f.n - 1, -1, -1, dtype=np.int64)
        idx = pts @ radix
        mean = phases[table[idx]].mean() if f.n else phases[table[0]] + 0j
    else:
        total = 0j
        for row in pts:
            total += phases[f.eval(tuple(int(v) for v in row))]
        mean = total / samples
    return CharacterSum(float(mean.real), float(mean.imag), samples)


def _shift_index_table(p: int, n: int) -> np.ndarray:
    """SHIFT[a, b] = index of point_a + point_b; used by exact Gowers sums."""
    size = p ** n
    pts = np.array(list(points_lex(p, n)), dtype=np.int64).reshape(size, n)
    radix = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.empty((size, size), dtype=np.int64)
    for a in range(size):
        table[a] = ((pts[a] + pts) % p) @ radix
    return table


def gowers_norm(
    f: MultiPoly,
    d: int,
    mode: str = "exact",
    samples: int = 4096,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """U^d norm of e(f), computed as the 2^d-th root of the derivative average.

    Exact mode enumerates all (x, y_1..y_d) tuples; its p^{n(d+1)} size must
    stay within the enumeration cap.  Sampled mode evaluates f at the 2^d
    corners of each sampled cube, so it charges samples * 2^d to that cap.
    """
    if d < 1:
        raise InputError("d must be >= 1")
    p, n = f.p, f.n
    if mode == "exact":
        caps.require_power("enum_cap", p, n * (d + 1))
        size = p ** n
        table = np.array(f.eval_table(), dtype=np.int64)
        shift = _shift_index_table(p, n)
        phases = np.array(unit_phases(p))
        signs_and_masks = [
            ((-1) ** (d - bin(m).count("1")), m) for m in range(1 << d)
        ]
        total = 0j
        for ys in points_lex(size, d):
            # index of sum over the subset of directions, per mask
            subset_idx = []
            for _, m in signs_and_masks:
                acc = 0
                mm = m
                j = 0
                while mm:
                    if mm & 1:
                        acc = shift[acc, ys[j]]
                    mm >>= 1
                    j += 1
                subset_idx.append(acc)
            vals = np.zeros(size, dtype=np.int64)
            for (sign, _), si in zip(signs_and_masks, subset_idx):
                vals += sign * table[shift[si]]
            total += phases[vals % p].sum()
        mean = total / p ** (n * (d + 1))
    elif mode == "sampled":
        if samples < 1:
            raise InputError("samples must be >= 1")
        caps.require_power("enum_cap", 2, d, samples)  # cube corners visited
        rng = np.random.default_rng(seed)
        phases = unit_phases(p)
        total = 0j
        for _ in range(samples):
            val = 0
            for m, pt in enumerate(cube_corners(rng, p, n, d)):
                sign = (-1) ** (d - bin(m).count("1"))
                val += sign * f.eval(pt)
            total += phases[val % p]
        mean = total / samples
    else:
        raise InputError(f"unknown mode {mode!r}")
    base = max(mean.real, 0.0)
    return base ** (1.0 / (1 << d))
