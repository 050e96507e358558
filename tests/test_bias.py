"""Bias and Gowers norms against direct enumeration."""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st

from polystruct import oracle
from polystruct.bias import exact_bias, gowers_norm, sampled_bias
from polystruct.config import Caps
from polystruct.errors import CapExceeded, InputError
from polystruct.ffpoly import FieldCtx, MultiPoly, parse_poly, points_lex
from test_ffpoly import small_polys
from util import random_poly

TOL = 1e-9


def test_exact_bias_examples():
    zero = MultiPoly.zero(FieldCtx(3), 2)
    cs = exact_bias(zero)
    assert abs(cs.re - 1.0) < TOL and abs(cs.im) < TOL

    lin = parse_poly("x1", 5, n=1)
    assert exact_bias(lin).magnitude < TOL

    cs2 = exact_bias(parse_poly("x1*x2", 3))
    assert abs(cs2.re - 1 / 3) < TOL and abs(cs2.im) < TOL


def test_exact_bias_matches_naive_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        f = random_poly(rng, FieldCtx(p), n, 2)
        total = sum(
            cmath.exp(2j * math.pi * f.eval(x) / p) for x in points_lex(p, n)
        )
        mean = total / p**n
        cs = exact_bias(f)
        assert abs(cs.as_complex() - mean) < TOL


def test_exact_bias_cap_and_reproducibility():
    f = parse_poly("x1*x2", 3)
    with pytest.raises(CapExceeded):
        exact_bias(f, Caps(enum_cap=8))
    a, b = exact_bias(f), exact_bias(f)
    assert (a.re, a.im) == (b.re, b.im)


def test_bias_phase_shift_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_poly(rng, FieldCtx(5), 2, 2)
        shifted = f + int(rng.integers(1, 5))
        assert abs(exact_bias(f).magnitude - exact_bias(shifted).magnitude) < TOL


def test_sampled_bias_examples():
    zero = MultiPoly.zero(FieldCtx(3), 2)
    cs = sampled_bias(zero, 100, seed=42)
    assert cs.re == 1.0 and cs.im == 0.0 and cs.sample_count == 100

    f = parse_poly("x1*x2", 3)
    est = sampled_bias(f, 10**5, seed=7)
    assert abs(est.magnitude - 1 / 3) < 0.02

    once = sampled_bias(f, 1000, seed=9)
    twice = sampled_bias(f, 1000, seed=9)
    assert (once.re, once.im) == (twice.re, twice.im)
    with pytest.raises(InputError):
        sampled_bias(f, 0, seed=1)


def test_gowers_norm_examples():
    lin = parse_poly("x1 + 2*x2", 3)
    assert gowers_norm(lin, 1) < TOL

    const = MultiPoly.constant(FieldCtx(3), 1, 2)
    for d in (1, 2, 3):
        assert abs(gowers_norm(const, d) - 1.0) < TOL

    # quadratic over F_3: the exhaustive average of the second derivative
    # character is 1/9, so U^2 = (1/9)^(1/4) = 3^(-1/2)
    f = parse_poly("x1*x2", 3)
    assert abs(gowers_norm(f, 2) - 3 ** -0.5) < TOL
    # one past the degree: all iterated derivatives vanish
    assert abs(gowers_norm(f, 3) - 1.0) < TOL


def _derivative_average(f, d):
    p, n = f.p, f.n
    total = 0j
    for tup in itertools.product(points_lex(p, n), repeat=d + 1):
        x, ys = tup[0], tup[1:]
        val = 0
        for mask in range(1 << d):
            pt = list(x)
            for j in range(d):
                if mask >> j & 1:
                    pt = [(a + b) % p for a, b in zip(pt, ys[j])]
            sign = (-1) ** (d - bin(mask).count("1"))
            val += sign * f.eval(pt)
        total += cmath.exp(2j * math.pi * (val % p) / p)
    return total / p ** (n * (d + 1))


def test_gowers_literal_identity_on_exhaustive_instances():
    # gowers_norm(f, d)^(2^d) equals E[e(D_{y_1..y_d} f(x))] exactly
    rng = np.random.default_rng(13)
    for _ in range(6):
        f = random_poly(rng, FieldCtx(3), 1, 2)
        for d in (1, 2):
            direct = _derivative_average(f, d)
            assert abs(direct.imag) < 1e-7
            val = gowers_norm(f, d)
            assert abs(val ** (1 << d) - max(direct.real, 0.0)) < 1e-7


@settings(max_examples=60, deadline=None)
@given(small_polys(primes=(2, 3, 5), n_range=(0, 2)), st.integers(1, 3))
@example(MultiPoly.constant(FieldCtx(3), 0, 2), 3)
def test_exact_gowers_matches_the_literal_derivative_average(f, d):
    # the Fourier route (U^1 from the bias, U^d from sum |g^|^4 over
    # derivative tables) against the average over all (x, y_1..y_d) tuples
    assume(f.p ** (f.n * (d + 1)) <= 2 * 10**4)
    direct = _derivative_average(f, d)
    assert abs(gowers_norm(f, d) ** (1 << d) - direct.real) <= 1e-12


def test_exact_u3_of_a_cubic_over_f3_4_is_fast():
    f = parse_poly("x1*x2*x3 + x4", 3)
    start = time.perf_counter()
    value = gowers_norm(f, 3, caps=Caps(enum_cap=10**8))
    assert time.perf_counter() - start < 2.0
    assert abs(value - 0.7688344053705295) <= 1e-12


def test_gowers_u1_equals_bias_and_monotonicity():
    rng = np.random.default_rng(21)
    for _ in range(15):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        f = random_poly(rng, FieldCtx(p), n, 2)
        if p ** (n * 3) > 10**6:
            continue
        u1 = gowers_norm(f, 1)
        assert abs(u1 - exact_bias(f).magnitude) < TOL
        assert u1 <= gowers_norm(f, 2) + TOL


def test_gowers_cap_and_sampled_mode():
    f = parse_poly("x1*x2", 5)
    with pytest.raises(CapExceeded):
        gowers_norm(f, 2, caps=Caps(enum_cap=100))
    a = gowers_norm(f, 2, mode="sampled", samples=2000, seed=3)
    b = gowers_norm(f, 2, mode="sampled", samples=2000, seed=3)
    assert a == b
    exact = gowers_norm(f, 2)
    assert abs(a - exact) < 0.1
    with pytest.raises(InputError):
        gowers_norm(f, 0)


@settings(max_examples=100, deadline=None)
@given(small_polys(primes=(2, 3, 5, 7), n_range=(0, 4), max_exp=9))
def test_exact_bias_matches_oracle(f):
    ours = exact_bias(f).as_complex()
    assert abs(ours - oracle.oracle_bias(oracle.table_of(f))) <= 1e-12


def test_exact_bias_of_a_constant_over_a_61_bit_field():
    big = 2**61 - 1
    f = MultiPoly.constant(FieldCtx(big), 0, 12345)
    assert abs(exact_bias(f).as_complex() - oracle.oracle_bias(oracle.table_of(f))) <= 1e-12


def test_cube_corners_are_charged_to_the_enumeration_cap():
    f = parse_poly("x1", 3)
    # samples * 2^d corners: 1 * 2^3 = 8 fits a cap of 8, 2 * 2^3 does not
    gowers_norm(f, 3, mode="sampled", samples=1, caps=Caps(enum_cap=8))
    with pytest.raises(CapExceeded, match="enum_cap: 16 exceeds limit 8"):
        gowers_norm(f, 3, mode="sampled", samples=2, caps=Caps(enum_cap=8))
    with pytest.raises(CapExceeded, match="enum_cap: 1073741824 exceeds"):
        gowers_norm(f, 30, mode="sampled", samples=1)


def test_huge_gowers_order_fails_on_the_cap_without_the_power():
    f = parse_poly("x1", 3)
    # 3^(10^8 + 1) has about 1.6 * 10^8 bits; only a lower bound is reported
    with pytest.raises(CapExceeded, match=r"enum_cap: 2\^100000001\+ exceeds"):
        gowers_norm(f, 10**8)
    with pytest.raises(CapExceeded, match=r"enum_cap: 2\^100000000\+ exceeds"):
        gowers_norm(f, 10**8, mode="sampled", samples=1)
