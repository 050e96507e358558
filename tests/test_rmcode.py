"""Reed-Muller enumeration, list decoding, and the simplex toolkit."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polystruct import linalg, oracle, rmcode
from polystruct.config import Caps
from polystruct.decompose import quadratic_rank
from polystruct.errors import CapExceeded, InputError, UnsupportedError
from polystruct.ffpoly import FieldCtx, MultiPoly, monomials_upto, parse_poly, points_lex
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
    rank_graph_reduction,
    simplex_fourier,
    weak_regularity,
)


def test_rm_params_validation():
    params = RMParams(3, 2, 1)
    assert params.codeword_count() == 27
    assert params.min_distance_formula() == Fraction(2, 3)
    with pytest.raises(UnsupportedError):
        RMParams(3, 1, 3)
    with pytest.raises(InputError):
        RMParams(4, 1, 1)


def test_min_distance_examples():
    assert min_distance_empirical(RMParams(3, 1, 1)) == Fraction(2, 3)
    assert min_distance_empirical(RMParams(5, 1, 2)) == Fraction(3, 5)
    assert min_distance_empirical(RMParams(3, 2, 1)) == Fraction(2, 3)


def test_min_distance_matches_formula_generally():
    for p, n, d in [(3, 1, 1), (3, 2, 1), (5, 1, 1), (5, 1, 2), (3, 1, 2), (7, 1, 1)]:
        params = RMParams(p, n, d)
        assert min_distance_empirical(params) == params.min_distance_formula()


def test_list_decode_examples():
    params = RMParams(3, 1, 1)
    zero = [0, 0, 0]
    at_zero = list_decode_brute(params, zero, 0)
    assert len(at_zero) == 1 and at_zero.polys()[0].is_zero()

    third = list_decode_brute(params, zero, Fraction(1, 3))
    assert len(third) == 1

    two_thirds = list_decode_brute(params, zero, Fraction(2, 3))
    assert len(two_thirds) == 7
    dists = [d for _, d in two_thirds.entries]
    assert dists == sorted(dists)
    assert all(float(d) <= 2 / 3 + 1e-12 for d in dists)

    with pytest.raises(CapExceeded):
        list_decode_brute(RMParams(3, 2, 2), zero * 3, 0.5, caps=Caps(codeword_cap=100))


def test_johnson_bound_examples():
    radius, cap = johnson_bound(3, 0.04)
    assert radius == pytest.approx(2 / 3 - 0.2)
    assert cap == pytest.approx(625.0)
    radius2, cap2 = johnson_bound(5, 0.01)
    assert radius2 == pytest.approx(0.7)
    assert cap2 == pytest.approx(10000.0)
    with pytest.raises(InputError):
        johnson_bound(3, 1.0)
    with pytest.raises(InputError):
        johnson_bound(3, 0.0)


def test_simplex_basis_inner_product_table_exact():
    # <q(l_{a,b}), q(l_{a',b'})> is (1 - 1/p), (-1/p), or 0, exactly
    p, n = 3, 1
    size = p**n

    def line_table(a, b):
        return [(a * x + b) % p for x in range(p)]

    def exact_inner(t1, t2):
        agree = sum(1 for u, v in zip(t1, t2) if u == v)
        return Fraction(agree, size) - Fraction(1, p)

    for a in range(p):
        for b in range(p):
            for a2 in range(p):
                for b2 in range(p):
                    val = exact_inner(line_table(a, b), line_table(a2, b2))
                    if a != a2:
                        assert val == 0
                    elif b == b2:
                        assert val == Fraction(p - 1, p)
                    else:
                        assert val == Fraction(-1, p)


def test_simplex_fourier_line_and_constant():
    alphas = simplex_fourier(parse_poly("x1+1", 3, n=1))
    nonzero = {k: v for k, v in alphas.items() if abs(v) > 1e-12}
    assert set(nonzero) == {((1,), 1)}
    assert nonzero[((1,), 1)] == pytest.approx(1.0)

    # constant 0: only the a = 0 block carries weight and reconstruction is exact
    alphas0 = simplex_fourier((0, 0, 0), p=3, n=1)
    assert all(abs(v) < 1e-12 for (a, _), v in alphas0.items() if a != (0,))
    rec = fourier_reconstruct(alphas0, 3, 1)
    target = SimplexFunction.embed(3, 1, table=(0, 0, 0)).centered()
    assert np.abs(rec.values - target.values).max() < 1e-9


def test_simplex_fourier_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        table = tuple(int(v) for v in rng.integers(0, 3, size=9))
        alphas = simplex_fourier(table, p=3, n=2)
        rec = fourier_reconstruct(alphas, 3, 2)
        target = SimplexFunction.embed(3, 2, table=table).centered()
        assert np.abs(rec.values - target.values).max() < 1e-9
        assert all(-1 - 1e-12 <= v <= 1 + 1e-12 for v in alphas.values())


def _fourier_from_the_definition(table, p, n):
    """alpha[a, b] = <q(g), q(l_{a,b})> - <q(g), q(l_{a,0})> in exact arithmetic."""
    size = p ** n
    pts = list(points_lex(p, n))

    def q(v, w):  # p times the centered one-hot entry [v = w] - 1/p
        return p * (v == w) - 1

    def inner(a, b):
        lines = [(sum(ai * xi for ai, xi in zip(a, x)) + b) % p for x in pts]
        total = sum(q(v, g) * q(v, line) for g, line in zip(table, lines) for v in range(p))
        return Fraction(total, p * p * size)

    return {(a, b): inner(a, b) - inner(a, 0) for a in pts for b in range(1, p)}


def test_simplex_fourier_equals_the_exact_inner_products():
    rng = np.random.default_rng(8)
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            for _ in range(3):
                table = tuple(int(v) for v in rng.integers(0, p, size=p**n))
                alphas = simplex_fourier(table, p=p, n=n)
                reference = _fourier_from_the_definition(table, p, n)
                assert list(alphas) == list(reference)
                assert all(alphas[k] == float(reference[k]) for k in reference)
                rec = fourier_reconstruct(alphas, p, n)
                target = SimplexFunction.embed(p, n, table=table).centered()
                assert np.abs(rec.values - target.values).max() < 1e-12


def test_weak_regularity_hand_example():
    f0 = parse_poly("x1", 3, n=1)
    family = [f0, parse_poly("x1+1", 3, n=1), parse_poly("2*x1", 3, n=1)]
    phi = SimplexFunction.embed(3, 1, table=f0.eval_table())
    terms, residual = weak_regularity(phi, family, eps=0.5)
    assert len(terms) == 1
    idx, alpha = terms[0]
    assert idx == 0 and alpha == pytest.approx(2 / 3, abs=1e-9)
    qf0 = SimplexFunction.embed(3, 1, table=f0.eval_table()).centered()
    assert residual.inner(qf0) == pytest.approx(2 / 9, abs=1e-9)


def test_weak_regularity_uniform_and_eps_one():
    family = [parse_poly("x1", 3, n=1)]
    phi = SimplexFunction(3, 1, np.full((3, 3), 1 / 3), "delta")  # uniform rows
    terms, residual = weak_regularity(phi, family, eps=0.5)
    assert terms == []
    assert np.abs(residual.values).max() < 1e-12

    f0 = parse_poly("x1", 3, n=1)
    phi2 = SimplexFunction.embed(3, 1, table=f0.eval_table())
    terms2, _ = weak_regularity(phi2, family, eps=1.0)
    assert len(terms2) <= 1


def test_weak_regularity_iteration_bound_and_stopping():
    rng = np.random.default_rng(9)
    for _ in range(20):
        eps = float(rng.choice([0.3, 0.5, 0.7]))
        raw = rng.random((9, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        phi = SimplexFunction(3, 2, raw, "delta")
        family = [
            MultiPoly(FieldCtx(3), 2, {(1, 0): 1, (0, 1): int(a)}) for a in range(3)
        ]
        terms, residual = weak_regularity(phi, family, eps)
        assert len(terms) <= math.ceil(1 / eps**2)
        for g in family:
            qg = SimplexFunction.embed(3, 2, table=g.eval_table()).centered()
            assert abs(residual.inner(qg)) <= eps + 1e-9


def test_list_size_profile_linear_code():
    prof = list_size_profile(
        RMParams(3, 2, 1), s=1, centers=CentersSpec(random_count=100, noisy_count=100),
        seed=7,
    )
    (radius, max_size), = prof.max_by_radius.items()
    assert radius == pytest.approx(1 / 3)
    assert max_size <= 3

    bounded = list_size_profile(
        RMParams(3, 2, 1), s=1, centers=CentersSpec(random_count=20, noisy_count=20),
        seed=7, bound_constant=2.0,
    )
    assert bounded.consistent_with_bound is True

    # a codeword center always contains itself at any nonnegative radius
    prof2 = list_size_profile(
        RMParams(3, 1, 1), s=2,
        centers=CentersSpec(random_count=0, noisy_count=0, all_codewords=True),
        seed=0,
    )
    assert all(row.list_size >= 1 for row in prof2.rows)


def test_list_size_profile_without_centers_holds_the_bound_vacuously():
    empty = list_size_profile(
        RMParams(3, 1, 1), s=1, centers=CentersSpec(random_count=0, noisy_count=0),
        bound_constant=1.0,
    )
    assert (empty.rows, empty.max_by_radius, empty.consistent_with_bound) == ((), {}, True)


def test_rank_graph_reduction_cases():
    params = RMParams(5, 2, 2)
    single = rank_graph_reduction(params, [0] * 25, 0, k=1)
    assert single.list_size == 1 and single.independent_set_size == 1
    assert single.max_close_count == 1

    radius = 3 / 5 - 1 / 5
    report = rank_graph_reduction(params, [0] * 25, radius, k=1)
    assert report.cover_bound_holds
    assert report.list_size <= report.independent_set_size * report.max_close_count

    # all translates of a rank-1 pencil collapse to one independent vertex
    pencil = parse_poly("x1*x2", 5)
    rep2 = rank_graph_reduction(params, pencil, 1 / 5, k=1)
    assert rep2.independent_set_size == 1

    with pytest.raises(UnsupportedError):
        rank_graph_reduction(RMParams(3, 1, 1), [0, 0, 0], 0.3, k=1)


def _naive_codewords(params):
    """(coefficients, table) per codeword in itertools.product order, one
    MultiPoly at a time: the order the codebook rows must follow."""
    mons = monomials_upto(params.n, params.d, params.p)
    out = []
    for coeffs in itertools.product(range(params.p), repeat=len(mons)):
        f = MultiPoly(params.ctx, params.n, dict(zip(mons, coeffs)))
        out.append((coeffs, tuple(f.eval_table().tolist())))
    return out


@pytest.mark.parametrize("p,n,d", [
    (2, 1, 1), (2, 3, 1), (3, 1, 2), (3, 2, 2), (5, 1, 2), (5, 2, 1), (7, 1, 3), (7, 2, 1),
])
def test_codebook_rows_follow_the_coefficient_grid(p, n, d):
    params = RMParams(p, n, d)
    grid, book = enumerate_codewords(params)
    naive = _naive_codewords(params)
    assert book.dtype == np.uint8 and grid.dtype == np.uint8
    assert book.shape == (params.codeword_count(), p ** n)
    assert [tuple(row) for row in grid.tolist()] == [c for c, _ in naive]
    assert [tuple(row) for row in book.tolist()] == [t for _, t in naive]


def test_cached_codebook_is_read_only():
    params = RMParams(3, 2, 1)
    grid, book = enumerate_codewords(params)
    with pytest.raises(ValueError):
        book[0, 0] = 1
    with pytest.raises(ValueError):
        grid[0, 0] = 1
    again = enumerate_codewords(params)
    assert again[0] is grid and again[1] is book


def test_center_of_the_wrong_length_is_an_input_error():
    params = RMParams(3, 2, 1)
    with pytest.raises(InputError):
        list_decode_brute(params, [0, 0, 0], 0.5)
    with pytest.raises(InputError):
        list_decode_brute(params, parse_poly("x1", 3, n=1), 0.5)



@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_is_an_input_error(radius):
    # a NaN radius would print "radius":NaN, which strict JSON parsers reject
    params = RMParams(3, 2, 2)
    with pytest.raises(InputError):
        list_decode_brute(params, parse_poly("x1", 3, n=2), radius)
    with pytest.raises(InputError):
        rank_graph_reduction(params, parse_poly("x1", 3, n=2), radius, 1)


@pytest.mark.parametrize("kwargs", [
    {"s": 0}, {"s": -3}, {"bound_constant": math.nan}, {"bound_constant": math.inf},
])
def test_profile_needs_s_at_least_one_and_a_finite_bound_constant(kwargs):
    # rho_e = 1 - e/p - p^-s is negative for s < 1; a NaN constant makes every bound false
    with pytest.raises(InputError):
        list_size_profile(RMParams(3, 1, 1), centers=CentersSpec(2, 0), **{"s": 1, **kwargs})


@pytest.mark.parametrize("spec", [
    {"random_count": -1}, {"noisy_count": -1}, {"noise_rate": -0.1}, {"noise_rate": 1.5},
    {"noise_rate": math.nan}, {"noise_rate": math.inf},
])
def test_out_of_range_centers_are_input_errors(spec):
    with pytest.raises(InputError):
        CentersSpec(**spec)


def test_noise_rates_at_the_ends_of_the_range_are_accepted():
    for rate in (0.0, 1.0):
        prof = list_size_profile(
            RMParams(3, 1, 1), s=1, centers=CentersSpec(0, 3, rate), seed=2,
        )
        assert len(prof.rows) == 3


@st.composite
def list_decode_cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 2))
    params = RMParams(p, n, draw(st.integers(0, p - 1)))
    assume(params.codeword_count() <= 729)
    size = p ** n
    values = st.integers(0, p - 1)
    if draw(st.booleans()):
        center = draw(st.lists(values, min_size=size, max_size=size))
    else:  # a codeword with a few entries redrawn
        mons = monomials_upto(n, params.d, p)
        coeffs = draw(st.lists(values, min_size=len(mons), max_size=len(mons)))
        center = list(MultiPoly(params.ctx, n, dict(zip(mons, coeffs))).eval_table())
        for i in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            center[i] = draw(values)
    radius = draw(st.one_of(
        st.integers(0, size).map(lambda k: k / size),
        st.integers(0, size).map(lambda k: Fraction(k, size)),
        st.integers(1, size).map(lambda k: k / size - 1e-12),  # the edge of the slack
        st.floats(0, 1),
    ))
    return params, center, radius


@settings(max_examples=80, deadline=None)
@given(list_decode_cases())
def test_list_decode_matches_the_oracle_in_grid_order(case):
    params, center, radius = case
    size = params.p ** params.n
    expected = []
    for idx, (_, table) in enumerate(_naive_codewords(params)):
        dist = Fraction(sum(1 for a, b in zip(table, center) if a != b), size)
        if float(dist) <= float(radius) + 1e-12:
            expected.append((dist, idx, table))
    expected.sort(key=lambda t: t[:2])  # by distance, ties in grid order

    result = list_decode_brute(params, center, radius)
    tables = [tuple(f.eval_table().tolist()) for f in result.polys()]
    dists = [dist for _, dist in result.entries]
    assert tables == [t for _, _, t in expected]
    assert dists == [dist for dist, _, _ in expected]
    assert dists == sorted(dists)
    assert sorted(tables) == oracle.oracle_list_decode(
        params.p, params.n, params.d, center, radius
    )


def _naive_profile(params, s, centers, seed):
    """The list-size profile by one per-codeword loop per (radius, center)."""
    p, n, d = params.p, params.n, params.d
    tables = [t for _, t in _naive_codewords(params)]
    size = p ** n
    rng = np.random.default_rng(seed)
    center_list = []
    for i in range(centers.random_count):
        center_list.append(("random", i, tuple(int(v) for v in rng.integers(0, p, size=size))))
    for i in range(centers.noisy_count):
        base = tables[int(rng.integers(0, len(tables)))]
        noisy = [
            int(rng.integers(0, p)) if rng.random() < centers.noise_rate else v for v in base
        ]
        center_list.append(("noisy", i, tuple(noisy)))
    if centers.all_codewords:
        center_list.extend(("codeword", i, t) for i, t in enumerate(tables))
    rows = []
    for e in range(1, d + 1):
        rho = 1.0 - e / p - p ** float(-s)
        for kind, idx, target in center_list:
            count = 0
            for table in tables:
                if sum(1 for a, b in zip(table, target) if a != b) <= (rho + 1e-12) * size:
                    count += 1
            rows.append((rho, kind, idx, count))
    return rows


@pytest.mark.parametrize("p,n,d,s", [(3, 2, 1, 1), (3, 1, 2, 2), (5, 1, 2, 1)])
def test_list_size_profile_matches_a_naive_loop(p, n, d, s):
    params = RMParams(p, n, d)
    centers = CentersSpec(random_count=6, noisy_count=6, all_codewords=True)
    prof = list_size_profile(params, s=s, centers=centers, seed=7)
    rows = [(r.radius, r.center_kind, r.center_index, r.list_size) for r in prof.rows]
    assert rows == _naive_profile(params, s, centers, seed=7)
    for rho, size in prof.max_by_radius.items():
        assert size == max(count for r, _, _, count in rows if r == rho)


def _per_center_profile(params, s, centers, seed):
    """(rows, max_by_radius) of list_size_profile with one distance scan and one
    count per radius for each center: the reference for the blocked scoring."""
    p, n, d = params.p, params.n, params.d
    _, book = enumerate_codewords(params)
    size = p ** n
    rng = np.random.default_rng(seed)
    center_list = [
        ("random", i, rng.integers(0, p, size=size)) for i in range(centers.random_count)
    ]
    for i in range(centers.noisy_count):
        base = book[int(rng.integers(0, len(book)))].tolist()
        noisy = [
            int(rng.integers(0, p)) if rng.random() < centers.noise_rate else v
            for v in base
        ]
        center_list.append(("noisy", i, noisy))
    if centers.all_codewords:
        center_list.extend(("codeword", i, row) for i, row in enumerate(book))
    radii = [(e, 1.0 - e / p - p ** float(-s)) for e in range(1, d + 1)]
    limits = [(rho + 1e-12) * size for _, rho in radii]
    counts = []
    for _, _, target in center_list:
        dist = np.count_nonzero(book != np.asarray(target, dtype=book.dtype), axis=1)
        counts.append([int(np.count_nonzero(dist <= limit)) for limit in limits])
    rows = []
    max_by_radius = {}
    for j, (_, rho) in enumerate(radii):
        for (kind, idx, _), row in zip(center_list, counts):
            rows.append((rho, kind, idx, row[j]))
            max_by_radius[rho] = max(max_by_radius.get(rho, 0), row[j])
    return rows, max_by_radius


@settings(max_examples=40, deadline=None)
@given(
    code=st.sampled_from([(2, 3, 1), (3, 2, 1), (3, 1, 2), (5, 1, 2), (5, 2, 1), (3, 2, 2)]),
    s=st.integers(1, 3),
    random_count=st.integers(0, 9),
    noisy_count=st.integers(0, 9),
    all_codewords=st.booleans(),
    block=st.sampled_from([1, 100, 2**20]),
    seed=st.integers(0, 2**16),
)
@example(code=(3, 1, 2), s=1, random_count=0, noisy_count=0, all_codewords=False,
         block=2**20, seed=0)
def test_blocked_profile_matches_the_per_center_loop(
    code, s, random_count, noisy_count, all_codewords, block, seed
):
    # block bounds centers x codewords per distance block; 1 and 100 force many blocks
    params = RMParams(*code)
    centers = CentersSpec(random_count, noisy_count, 0.3, all_codewords)
    with mock.patch.object(rmcode, "_PROFILE_BLOCK", block):
        prof = list_size_profile(params, s=s, centers=centers, seed=seed)
    rows = [(r.radius, r.center_kind, r.center_index, r.list_size) for r in prof.rows]
    assert (rows, prof.max_by_radius) == _per_center_profile(params, s, centers, seed)
    assert all(type(r.list_size) is int for r in prof.rows)


@st.composite
def rank_stacks(draw):
    """(p, stack): 0, 1 or many random, zero, full-rank and low-rank matrices."""
    p = draw(st.sampled_from((3, 5, 7)))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def matrix(r, c, low=0):
        values = draw(st.lists(st.integers(low, p - 1), min_size=r * c, max_size=r * c))
        return np.array(values, dtype=np.int64).reshape(r, c)

    mats = []
    for _ in range(draw(st.sampled_from((0, 1, draw(st.integers(2, 12)))))):
        kind = draw(st.sampled_from(("random", "zero", "full", "low")))
        if kind == "zero":
            mats.append(np.zeros((rows, cols), dtype=np.int64))
        elif kind == "full" and rows == cols:  # unit lower times invertible upper
            lower = np.tril(matrix(rows, rows), -1) + np.eye(rows, dtype=np.int64)
            upper = np.triu(matrix(rows, rows), 1) + np.diag(matrix(1, rows, low=1)[0])
            mats.append(lower @ upper % p)
        elif kind == "low":  # through at most 3 inner dimensions
            inner = draw(st.integers(0, 3))
            mats.append(matrix(rows, inner) @ matrix(inner, cols) % p)
        else:
            mats.append(matrix(rows, cols))
    return p, np.array(mats, dtype=np.int64).reshape(len(mats), rows, cols)


@settings(max_examples=120, deadline=None)
@given(rank_stacks())
def test_batched_ranks_match_linalg_rank(case):
    p, stack = case
    got = linalg.ranks(stack, p)
    assert got.shape == (len(stack),)
    assert got.tolist() == [linalg.rank(mat.tolist(), p) for mat in stack]


def _pairwise_rank_graph(params, center, radius, k):
    """rank_graph_reduction as the greedy pairwise loop over the MultiPoly list,
    with quadratic_rank of the difference for every compared pair."""
    members = list_decode_brute(params, center, radius).polys()
    m = len(members)

    def close(i, j):
        return quadratic_rank(members[i] - members[j]) <= k

    independent = []
    for i in range(m):
        if all(not close(i, j) for j in independent):
            independent.append(i)
    max_close = 0
    for i in independent:
        max_close = max(max_close, sum(1 for j in range(m) if close(i, j)))
    holds = m <= len(independent) * max_close if m else True
    return (m, len(independent), max_close, tuple(independent), holds)


@st.composite
def rank_graph_cases(draw):
    params = RMParams(*draw(st.sampled_from([(3, 1, 2), (3, 2, 2), (5, 1, 2), (7, 1, 2),
                                             (5, 2, 2), (3, 3, 2)])))
    p, n = params.p, params.n
    size = p ** n
    mons = monomials_upto(n, 2, p)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons)))
    word = MultiPoly(params.ctx, n, dict(zip(mons, coeffs)))
    kind = draw(st.sampled_from(("random", "codeword", "noisy", "poly")))
    if kind == "random":
        center = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    elif kind == "poly":
        center = word
    else:
        center = word.eval_table().tolist()
        for i in draw(st.lists(st.integers(0, size - 1), max_size=3 if kind == "noisy" else 0)):
            center[i] = draw(st.integers(0, p - 1))
    # a radius that keeps the list at most 40 members, or -1 for an empty list
    _, book = enumerate_codewords(params)
    table = center.eval_table() if isinstance(center, MultiPoly) else np.array(center)
    dist = np.sort(np.count_nonzero(book != table, axis=1))
    last = draw(st.integers(-1, min(39, len(dist) - 1)))
    radius = -1.0 if last < 0 else int(dist[last]) / size
    return params, center, radius, draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(rank_graph_cases())
# the whole of RM(3,1,2): members differing by a constant or only linearly
@example((RMParams(3, 1, 2), [0, 0, 0], 1.0, 0))
@example((RMParams(3, 1, 2), [0, 0, 0], 1.0, 1))
# one member, and an empty list
@example((RMParams(5, 1, 2), [0] * 5, 0.0, 1))
@example((RMParams(5, 1, 2), [0, 1, 3, 0, 4], 0.0, 2))
# a MultiPoly center: the translates of a rank-1 pencil
@example((RMParams(5, 2, 2), parse_poly("x1*x2", 5), 1 / 5, 1))
def test_rank_graph_matches_the_pairwise_loop(case):
    params, center, radius, k = case
    rep = rank_graph_reduction(params, center, radius, k)
    got = (rep.list_size, rep.independent_set_size, rep.max_close_count,
           rep.independent_indices, rep.cover_bound_holds)
    assert got == _pairwise_rank_graph(params, center, radius, k)
    assert all(type(i) is int for i in rep.independent_indices)
