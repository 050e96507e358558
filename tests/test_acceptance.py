"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is pinned here, nothing is
deferred to later calibration.
"""

import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from polystruct import oracle
from polystruct.bias import exact_bias
from polystruct.config import DecomposeConfig, RegularizeConfig
from polystruct.decompose import approx_decompose, exact_decompose
from polystruct.factor import (
    PolynomialFactor,
    atom_histogram,
    regularize,
    semantic_refines,
)
from polystruct.ffpoly import (
    FieldCtx,
    MultiPoly,
    derivative,
    functional_reduce,
    parse_poly,
    points_lex,
)
from polystruct.nullstellensatz import (
    IdealSpec,
    find_certificate,
    radical_membership,
    vanishes_on_variety,
)
from polystruct.rmcode import (
    CentersSpec,
    RMParams,
    SimplexFunction,
    enumerate_codewords,
    fourier_reconstruct,
    johnson_bound,
    list_decode_brute,
    list_size_profile,
    min_distance_empirical,
    simplex_fourier,
    weak_regularity,
)
from polystruct.variety import (
    count_points_exact,
    count_points_regularized,
    solution_profile,
)
from util import random_poly


def criterion(idx, name, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget_s is not None:
                    assert elapsed < budget_s, (
                        f"time budget {budget_s}s exceeded ({elapsed:.3f}s)"
                    )
            except BaseException:
                print(f"ACCEPTANCE {idx:02d} {name}: FAIL "
                      f"({time.perf_counter() - t0:.3f}s)")
                raise
            print(f"ACCEPTANCE {idx:02d} {name}: PASS ({elapsed:.3f}s)")
        return wrapper
    return deco


@criterion(1, "bias-correctness", budget_s=5.0)
def test_01_bias_correctness():
    f = parse_poly("x1*x2", 3)
    t0 = time.perf_counter()
    cs = exact_bias(f)
    elapsed = time.perf_counter() - t0
    assert abs(cs.magnitude - 1 / 3) <= 1e-9
    reference = oracle.oracle_bias(oracle.table_of(f))
    assert abs(cs.as_complex() - reference) <= 1e-9
    assert elapsed < 1e-3, f"bias computation took {elapsed * 1e3:.3f} ms"


@criterion(2, "approx-decompose-pipeline", budget_s=1.0)
def test_02_approx_decompose_pipeline():
    f = parse_poly("x1*x2", 5)
    target = 2 * 5.0**-2
    for seed in range(50):
        dec = approx_decompose(f, s=1, t=2, seed=seed, retries=16)
        assert dec.claimed_error <= target + 1e-12
        assert dec.attempts <= 16
        assert all(g.degree() <= 1 for g in dec.polys)
        for g, h in zip(dec.polys, dec.directions):
            assert g == functional_reduce(derivative(f, [h]))


@criterion(3, "exact-decompose-trivially-verified", budget_s=1.0)
def test_03_exact_decompose():
    f = parse_poly("x1*x2 + x3*x4", 3)
    dec = exact_decompose(f, 2)
    assert dec.exact
    assert all(g.degree() == 1 for g in dec.polys)
    for x in points_lex(3, 4):
        assert dec.gamma(tuple(g.eval(x) for g in dec.polys)) == f.eval(x)


@criterion(4, "regularity-equidistribution", budget_s=30.0)
def test_04_regularity_equidistribution():
    rng = np.random.default_rng(2024)
    ctx = FieldCtx(3)
    size = 3**4
    for trial in range(20):
        c = int(rng.integers(1, 4))
        polys = [random_poly(rng, ctx, 4, 2) for _ in range(c)]
        if not any(g.degree() == 2 for g in polys):
            polys[0] = random_poly(rng, ctx, 4, 2, ensure_degree=2)
        factor = PolynomialFactor(polys)
        config = RegularizeConfig(decompose=DecomposeConfig(seed=trial))
        regular = regularize(factor, 2, config)
        assert semantic_refines(regular, factor)
        if regular.c == 0:
            continue
        hist = atom_histogram(regular)
        bound = 3.0**-2 + 1e-12
        for count in hist.values():
            assert abs(count / size - 3.0**-regular.c) <= bound


def _nss_instances(rng, total):
    instances = []
    kinds = ["combo"] * 40 + ["power"] * 30 + ["random"] * 30
    for kind in kinds[:total]:
        for _ in range(200):  # rejection budget per slot
            p = int(rng.choice([3, 5]))
            ctx = FieldCtx(p)
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 3))
            gens = [random_poly(rng, ctx, n, 2) for _ in range(c)]
            if all(g.is_zero() for g in gens):
                continue
            if kind == "combo":
                q = MultiPoly.zero(ctx, n)
                for g in gens:
                    q = q + g * int(rng.integers(0, p))
                q = functional_reduce(q)
            elif kind == "power":
                lin = random_poly(rng, ctx, n, 1)
                if lin.degree() != 1:
                    continue
                gens[0] = functional_reduce(lin * lin)
                q = lin
            else:
                q = random_poly(rng, ctx, n, 2)
            spec = IdealSpec(gens, q)
            if vanishes_on_variety(spec):
                instances.append(spec)
                break
        else:
            raise RuntimeError("instance generation stalled")
    return instances


@criterion(5, "nullstellensatz-soundness", budget_s=60.0)
def test_05_nullstellensatz_soundness():
    rng = np.random.default_rng(77)
    instances = _nss_instances(rng, 100)
    assert len(instances) == 100
    found = 0
    cap_limited = []
    for i, spec in enumerate(instances):
        cert = find_certificate(spec, d_max=4, r_max=3)
        if cert is None:
            cap_limited.append(i)
            continue
        found += 1
        # exact functional re-verification of every returned certificate
        lhs = functional_reduce(spec.query ** cert.r)
        rhs = MultiPoly.zero(spec.query.ctx, spec.query.n)
        for cof, gen in zip(cert.cofactors, spec.generators):
            rhs = rhs + cof * gen
        assert functional_reduce(lhs - rhs).is_zero()
    if cap_limited:
        print(f"  cap-limited instances (no certificate within r<=3, D<=4): "
              f"{cap_limited}")
    assert found >= 90, f"only {found}/100 certificates found"


@criterion(6, "radical-membership-agreement", budget_s=60.0)
def test_06_radical_agreement():
    rng = np.random.default_rng(99)
    disagreements = 0
    for _ in range(200):
        p = int(rng.choice([3, 5]))
        ctx = FieldCtx(p)
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(c)]
        q = random_poly(rng, ctx, n, 2)
        report = radical_membership(IdealSpec(gens, q), d_max=2)
        if not report.oracle_agrees:
            disagreements += 1
    assert disagreements == 0


@criterion(7, "point-counting-accuracy", budget_s=60.0)
def test_07_point_counting():
    rng = np.random.default_rng(123)
    ctx = FieldCtx(3)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(c)]
        exact = count_points_exact(gens, ctx, n).exact_count
        config = RegularizeConfig(decompose=DecomposeConfig(seed=trial))
        reg = count_points_regularized(gens, s=4, config=config, ctx=ctx, n=n)
        assert reg.empty == (exact == 0)
        if exact == 0:
            assert reg.approx_count == 0
        else:
            assert abs(reg.approx_count - exact) <= exact / 3


@criterion(8, "chevalley-warning-strengthening", budget_s=60.0)
def test_08_chevalley_warning():
    rng = np.random.default_rng(321)
    ctx = FieldCtx(3)
    checked = 0
    for trial in range(60):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(d + 1, 5))
        max_c = max(1, (n - 1) // d)
        c = int(rng.integers(1, max_c + 1))
        assert d * c < n
        gens = [random_poly(rng, ctx, n, d) for _ in range(c)]
        config = RegularizeConfig(decompose=DecomposeConfig(seed=trial))
        prof = solution_profile(gens, s=2, config=config)
        if prof.exact_count == 0:
            continue
        assert prof.cw_holds, (
            f"count {prof.exact_count} below p^(n-c')(1-p^-s) = {prof.cw_bound}"
        )
        checked += 1
    assert checked >= 20


@criterion(9, "rm-minimum-distance", budget_s=10.0)
def test_09_rm_minimum_distance():
    for p, n, d in [(3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 1)]:
        params = RMParams(p, n, d)
        assert min_distance_empirical(params) == Fraction(p - d, p)


@criterion(10, "johnson-consistency", budget_s=60.0)
def test_10_johnson_consistency():
    params = RMParams(3, 2, 1)
    radius, list_cap = johnson_bound(3, 0.04)
    assert radius == pytest.approx(2 / 3 - 0.2)
    assert list_cap == pytest.approx(625.0)
    _, tables = enumerate_codewords(params)
    size = 3**2
    rng = np.random.default_rng(555)
    centers = []
    for _ in range(250):
        centers.append(tuple(int(v) for v in rng.integers(0, 3, size=size)))
    for _ in range(250):
        base = tables[int(rng.integers(0, len(tables)))]
        centers.append(tuple(
            int(rng.integers(0, 3)) if rng.random() < 0.3 else v for v in base
        ))
    threshold = radius + 1e-12
    worst = 0
    for center in centers:
        count = sum(
            1 for table in tables
            if sum(1 for a, b in zip(table, center) if a != b) <= threshold * size
        )
        worst = max(worst, count)
    assert worst <= list_cap


@criterion(11, "simplex-fourier", budget_s=10.0)
def test_11_simplex_fourier():
    # all 27 functions F_3 -> F_3
    for table in itertools.product(range(3), repeat=3):
        alphas = simplex_fourier(table, p=3, n=1)
        rec = fourier_reconstruct(alphas, 3, 1)
        target = SimplexFunction.embed(3, 1, table=table).centered()
        assert np.abs(rec.values - target.values).max() <= 1e-9
    # 500 random functions F_3^2 -> F_3
    rng = np.random.default_rng(888)
    for _ in range(500):
        table = tuple(int(v) for v in rng.integers(0, 3, size=9))
        alphas = simplex_fourier(table, p=3, n=2)
        rec = fourier_reconstruct(alphas, 3, 2)
        target = SimplexFunction.embed(3, 2, table=table).centered()
        assert np.abs(rec.values - target.values).max() <= 1e-9
    # exact three-case inner-product table over F_3, n = 1
    p, size = 3, 3

    def line(a, b):
        return [(a * x + b) % p for x in range(p)]

    def inner(t1, t2):
        agree = sum(1 for u, v in zip(t1, t2) if u == v)
        return Fraction(agree, size) - Fraction(1, p)

    for a, b, a2, b2 in itertools.product(range(p), repeat=4):
        val = inner(line(a, b), line(a2, b2))
        if a != a2:
            assert val == 0
        elif b == b2:
            assert val == Fraction(p - 1, p)
        else:
            assert val == Fraction(-1, p)


@criterion(12, "weak-regularity", budget_s=10.0)
def test_12_weak_regularity():
    # hand-derived single-step example
    f0 = parse_poly("x1", 3, n=1)
    family = [f0, parse_poly("x1+1", 3, n=1), parse_poly("2*x1", 3, n=1)]
    phi = SimplexFunction.embed(3, 1, table=f0.eval_table())
    terms, residual = weak_regularity(phi, family, eps=0.5)
    assert len(terms) == 1 and terms[0][0] == 0
    assert terms[0][1] == pytest.approx(2 / 3, abs=1e-9)
    qf0 = SimplexFunction.embed(3, 1, table=f0.eval_table()).centered()
    assert residual.inner(qf0) == pytest.approx(2 / 9, abs=1e-9)

    rng = np.random.default_rng(2718)
    ctx = FieldCtx(3)
    for _ in range(100):
        eps = float(rng.choice([0.3, 0.5, 0.8]))
        n = int(rng.integers(1, 3))
        raw = rng.random((3**n, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        phi = SimplexFunction(3, n, raw, "delta")
        family = [random_poly(rng, ctx, n, 1) for _ in range(int(rng.integers(1, 5)))]
        terms, residual = weak_regularity(phi, family, eps)
        assert len(terms) <= math.ceil(1 / eps**2)
        for g in family:
            qg = SimplexFunction.embed(3, n, table=g.eval_table()).centered()
            assert abs(residual.inner(qg)) <= eps + 1e-9


@criterion(13, "list-size-profile-exhaustive", budget_s=10.0)
def test_13_list_size_profile():
    params = RMParams(5, 1, 2)
    rho = 1 - 2 / 5 - 1 / 5
    prof = list_size_profile(
        params, s=1,
        centers=CentersSpec(random_count=0, noisy_count=0, all_codewords=True),
        seed=0,
    )
    assert len([r for r in prof.rows if r.center_kind == "codeword"]) == 2 * 125
    key = min(prof.max_by_radius, key=lambda r: abs(r - rho))
    assert abs(key - rho) < 1e-9
    reported = prof.max_by_radius[key]

    # independent oracle over the same 125 centers
    _, tables = enumerate_codewords(params)
    oracle_max = 0
    argmax_center = None
    for center in tables:
        hits = oracle.oracle_list_decode(5, 1, 2, center, rho)
        if len(hits) > oracle_max:
            oracle_max = len(hits)
            argmax_center = center
    assert reported == oracle_max

    # the full list at the worst center is reported distance-sorted
    worst = list_decode_brute(params, argmax_center, rho)
    dists = [d for _, d in worst.entries]
    assert dists == sorted(dists)
    assert len(worst) == oracle_max


@criterion(14, "dual-implementation-agreement", budget_s=120.0)
def test_14_dual_agreement():
    rng = np.random.default_rng(4242)
    ctx = FieldCtx(3)
    # bias pair
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, ctx, n, 2)
        ours = exact_bias(f).as_complex()
        theirs = oracle.oracle_bias(oracle.table_of(f))
        assert abs(ours - theirs) <= 1e-9
    # zero-count pair
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        ours = count_points_exact(gens, ctx, n).exact_count
        theirs = oracle.oracle_count_zeros([oracle.table_of(g) for g in gens])
        assert ours == theirs
    # list-decoding pair
    params = RMParams(3, 1, 1)
    for _ in range(1000):
        center = tuple(int(v) for v in rng.integers(0, 3, size=3))
        radius = float(rng.choice([0.0, 1 / 3, 2 / 3, 1.0]))
        ours = sorted(
            tuple(f.eval_table().tolist())
            for f in list_decode_brute(params, center, radius).polys()
        )
        theirs = oracle.oracle_list_decode(3, 1, 1, center, radius)
        assert ours == theirs
