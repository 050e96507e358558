"""Polynomial bias and Gowers uniformity norms via the additive character.

Biases, exact or sampled, and sampled Gowers norms sum N_v e(v/p) over ascending v
from integer counts of the values (or signed cube-corner sums), so no result depends
on point order or chunking; sampling uses the seeded pcg64 generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import InputError
from .ffpoly import MultiPoly, cube_corners, sample_points

RNG_ALGORITHM = "pcg64"

BIAS_TOL = 1e-9  # slack when comparing a bias magnitude with a threshold p^-s


def _phase(v: int, p: int) -> complex:
    return cmath.exp(2j * math.pi * v / p)


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
    values, counts = np.unique(f.eval_table(), return_counts=True)
    return bias_from_counts(values, counts, f.p, size)


def sampled_bias(f: MultiPoly, samples: int, seed: int) -> CharacterSum:
    """Unbiased Monte Carlo estimate of exact_bias, deterministic given seed."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    pts = sample_points(np.random.default_rng(seed), f.p, f.n, samples)
    values, counts = np.unique(f.eval_points(pts), return_counts=True)
    return replace(bias_from_counts(values, counts, f.p, samples), sample_count=samples)


def gowers_norm(
    f: MultiPoly,
    d: int,
    mode: str = "exact",
    samples: int = 4096,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """U^d norm of e(f): the 2^d-th root of E_{x,y_1..y_d}[e(D_{y_1..y_d} f(x))].

    Exact mode takes U^1 as |exact_bias|.  For d >= 2 it averages
    ||g||_{U^2}^4 = sum_xi |g^(xi)|^4 over g = e(D_{h_1..h_{d-2}} f) for all
    h_j in F_p^n, with g^ = p^-n * FFT(g); the derivative tables are gathers
    of the value table, so the work is about p^{n(d-1)}, while the cap is
    still charged the p^{n(d+1)} tuples of the average.  Sampled mode
    evaluates f at the 2^d corners of each sampled cube, so it charges
    samples * 2^d to that cap.
    """
    if d < 1:
        raise InputError("d must be >= 1")
    p, n = f.p, f.n
    if mode == "exact":
        caps.require_power("enum_cap", p, n * (d + 1))
        if d == 1:
            return exact_bias(f, caps).magnitude
        size = p ** n
        tables = f.eval_table().reshape(1, size)
        if d >= 3:  # the derivative loop below reads shift[h, x] = index of x + h
            shift = np.zeros((size, size), dtype=np.int64)
            for coord in np.indices((p,) * n).reshape(n, size):
                shift = shift * p + (coord[:, None] + coord) % p
        for _ in range(d - 2):  # one row per direction tuple (h_1..h_j)
            tables = ((tables[:, shift] - tables[:, None, :]) % p).reshape(-1, size)
        values, inverse = np.unique(tables.ravel(), return_inverse=True)
        phases = np.array([_phase(int(v), p) for v in values])[inverse]
        axes = tuple(range(1, n + 1))
        hats = np.fft.fftn(phases.reshape((-1,) + (p,) * n), axes=axes) / size
        mean = float((np.abs(hats) ** 4).sum(axis=axes).mean())
    elif mode == "sampled":
        if samples < 1:
            raise InputError("samples must be >= 1")
        caps.require_power("enum_cap", 2, d, samples)  # cube corners visited
        signs = np.array([(-1) ** (d - bin(m).count("1")) for m in range(1 << d)])
        dtype = np.int64 if (1 << d) * p < 2**63 else object  # signed corner sums stay exact
        sums = np.concatenate([
            f.eval_points(c).reshape(-1, 1 << d).astype(dtype) @ signs % p
            for c in cube_corners(np.random.default_rng(seed), p, n, d, samples)])
        values, counts = np.unique(sums, return_counts=True)
        mean = bias_from_counts(values, counts, p, samples).re
    else:
        raise InputError(f"unknown mode {mode!r}")
    return max(mean, 0.0) ** (1.0 / (1 << d))
