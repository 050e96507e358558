"""Field context, sparse polynomials, and the text grammar."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polystruct import oracle
from polystruct.errors import InputError, UnsupportedError
from polystruct.ffpoly import (
    FieldCtx,
    LookupTable,
    MultiPoly,
    compose_gamma,
    compose_poly,
    count_monomials_upto,
    cube_corners,
    _value_rows,
    derivative,
    derivative_family,
    functional_reduce,
    graded_points,
    homogeneous_top,
    is_prime,
    monomials_upto,
    parse_poly,
    points_lex,
    poly_to_str,
    restrict_hyperplane,
    sample_points,
)
from util import naive_value, random_poly


def test_field_ctx_rejects_composites():
    FieldCtx(2)
    FieldCtx(97)
    with pytest.raises(InputError):
        FieldCtx(9)
    with pytest.raises(InputError):
        FieldCtx(1)


def test_is_prime_matches_trial_division():
    for m in range(10**4):
        expected = m >= 2 and all(m % q for q in range(2, math.isqrt(m) + 1))
        assert is_prime(m) == expected, m
    assert is_prime(2**61 - 1)
    assert not is_prime(561) and not is_prime(41041)  # Carmichael numbers


def test_monomials_upto_matches_product_and_filter():
    for p in (2, 3, 5, 7):
        for n in range(6):
            for budget in list(range(9)) + [n * (p - 1)]:
                naive = sorted(
                    (e for e in itertools.product(range(p), repeat=n) if sum(e) <= budget),
                    key=lambda e: (sum(e), e),
                )
                assert monomials_upto(n, budget, p) == naive, (p, n, budget)
            got = graded_points(p, n)  # all of F_p^n, the last budget above
            assert got.shape == (p**n, n) and list(map(tuple, got.tolist())) == naive, (p, n)


def test_count_monomials_upto_matches_the_list_below_its_limit():
    for p in (2, 3, 5, 7):
        for n in range(6):
            for budget in list(range(9)) + [n * (p - 1)]:
                want = len(monomials_upto(n, budget, p))
                for limit in range(want + 3):
                    got = count_monomials_upto(n, budget, p, limit)
                    if want <= limit:
                        assert got == want, (p, n, budget, limit)
                    else:  # stopped early: a lower bound, above the limit
                        assert limit < got <= want, (p, n, budget, limit)
    # the list would not fit in memory; the count stops after one coordinate
    start = time.perf_counter()
    assert count_monomials_upto(1, 10**8, 10**9 + 7, 5000) == 10**8 + 1
    assert count_monomials_upto(2, 30000, 10**9 + 7, 5000) == 30001
    assert count_monomials_upto(10**5, 1, 2, 5000) == 5001
    assert time.perf_counter() - start < 1.0


def test_eval_examples():
    assert parse_poly("x1*x2", 5).eval((2, 3)) == 1
    assert MultiPoly.zero(FieldCtx(5), 2).eval((4, 4)) == 0
    assert parse_poly("3*x1^2", 5, n=1).eval((4,)) == 3
    with pytest.raises(InputError):
        parse_poly("x1", 3, n=1).eval((1, 2))


def test_derivative_examples():
    assert derivative(parse_poly("x1^2", 5, n=1), [(1,)]) == parse_poly("2*x1+1", 5, n=1)
    assert derivative(parse_poly("x1*x2", 3), [(1, 0)]) == parse_poly("x2", 3, n=2)


def test_derivative_annihilation_after_degree_plus_one():
    # d+1 random directions kill any degree-d polynomial
    rng = np.random.default_rng(11)
    for p in (3, 5):
        ctx = FieldCtx(p)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            f = random_poly(rng, ctx, n, max_degree=int(rng.integers(0, 3)))
            dirs = [tuple(int(v) for v in rng.integers(0, p, n)) for _ in range(f.degree() + 1)]
            assert derivative(f, dirs).is_zero()


def _scale_vars(f: MultiPoly, j: int) -> MultiPoly:
    # the polynomial x -> f(j * x)
    return MultiPoly(f.ctx, f.n, {e: c * pow(j, sum(e), f.p) for e, c in f.terms.items()})


def _taylor_top(f: MultiPoly) -> MultiPoly:
    # D_{x,..,x} f(0) / d! written as an alternating sum of f(j*x)
    d = f.degree()
    p = f.p
    acc = MultiPoly.zero(f.ctx, f.n)
    for j in range(d + 1):
        sign = (-1) ** (d - j)
        acc = acc + _scale_vars(f, j) * (sign * math.comb(d, j))
    return acc * f.ctx.inv(math.factorial(d) % p)


def test_homogeneous_top_examples():
    assert homogeneous_top(parse_poly("x1^2+x1", 5, n=1)) == parse_poly("x1^2", 5, n=1)
    const = parse_poly("3", 5, n=1)
    assert homogeneous_top(const) == const

    f = parse_poly("x1*x2 + x1 + 1", 7)
    top = homogeneous_top(f)
    assert top == parse_poly("x1*x2", 7)
    taylor = _taylor_top(f)
    for x in points_lex(7, 2):
        assert top.eval(x) == taylor.eval(x)


def test_homogeneous_top_rejects_large_degree():
    with pytest.raises(UnsupportedError):
        homogeneous_top(parse_poly("x1^3", 3, n=1))


def test_compose_gamma_projection_and_product():
    ctx = FieldCtx(3)
    g = parse_poly("x1+x2", 3)
    h = parse_poly("x1*x2", 3)
    proj = LookupTable(3, 2, {(a, b): a for a in range(3) for b in range(3)})
    fn = compose_gamma(proj, [g, h])
    for x in points_lex(3, 2):
        assert fn(x) == g.eval(x)

    prod = LookupTable(3, 2, {(a, b): (a * b) % 3 for a in range(3) for b in range(3)})
    fn2 = compose_gamma(prod, [parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)])
    target = parse_poly("x1*x2", 3)
    for x in points_lex(3, 2):
        assert fn2(x) == target.eval(x)

    const = LookupTable(3, 2, {}, default=0)
    fn3 = compose_gamma(const, [g, h])
    assert all(fn3(x) == 0 for x in points_lex(3, 2))

    with pytest.raises(InputError):
        compose_gamma(LookupTable(3, 2, {(0, 0): 1}), [g, h])


def test_compose_poly_expansion():
    outer = parse_poly("x1^2*x2 + x1", 3)  # z1^2 z2 + z1
    h1 = parse_poly("x1", 3, n=3)
    h2 = parse_poly("x2*x3", 3)
    expanded = compose_poly(outer, [h1, h2])
    assert expanded == parse_poly("x1^2*x2*x3 + x1", 3)


def test_restrict_hyperplane_examples():
    f = parse_poly("x1*x2 + x2", 3)
    r = restrict_hyperplane(f, 1, 0)
    assert r.n == 1 and r == parse_poly("x1", 3, n=1)

    r2 = restrict_hyperplane(parse_poly("x1^2", 5, n=1), 1, 2)
    assert r2.n == 0 and r2.terms == {(): 4}

    with pytest.raises(InputError):
        restrict_hyperplane(f, 3, 0)


def test_restrict_hyperplane_matches_pointwise_substitution():
    rng = np.random.default_rng(12)
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            f = random_poly(rng, FieldCtx(p), n, 4)
            for i in range(1, n + 1):
                for v in range(p):
                    r = restrict_hyperplane(f, i, v)
                    assert r.n == n - 1
                    for y in points_lex(p, n - 1):
                        assert naive_value(r, y) == naive_value(f, y[:i - 1] + (v,) + y[i - 1:])


def _matrix_rank_mod(rows, p):
    rows = [list(r) for r in rows]
    m = len(rows)
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][c] % p:
                fac = rows[i][c]
                rows[i] = [(a - fac * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _quad_matrix(f):
    p, n = f.p, f.n
    inv2 = pow(2, p - 2, p)
    mat = [[0] * n for _ in range(n)]
    for e, c in f.terms.items():
        if sum(e) != 2:
            continue
        sup = [i for i, v in enumerate(e) if v]
        if len(sup) == 1:
            mat[sup[0]][sup[0]] = (mat[sup[0]][sup[0]] + c) % p
        else:
            i, j = sup
            mat[i][j] = (mat[i][j] + c * inv2) % p
            mat[j][i] = (mat[j][i] + c * inv2) % p
    return mat


def test_restriction_keeps_most_matrix_rank():
    # rank-4 quadratic: restricting one variable keeps matrix rank >= 2
    f = parse_poly("x1*x2 + x3*x4", 5)
    assert _matrix_rank_mod(_quad_matrix(f), 5) == 4
    restricted = restrict_hyperplane(f, 1, 0)
    assert _matrix_rank_mod(_quad_matrix(restricted), 5) >= 2


def test_functional_reduce_examples():
    assert functional_reduce(parse_poly("x1^5", 5, n=1)) == parse_poly("x1", 5, n=1)
    f = parse_poly("x1^2", 5, n=1)
    assert functional_reduce(f) == f
    g = parse_poly("x1^7 + x1", 3, n=1)
    red = functional_reduce(g)
    assert all(e < 3 for term in red.terms for e in term)
    for x in points_lex(3, 1):
        assert red.eval(x) == g.eval(x)
    assert functional_reduce(red) == red


@st.composite
def small_polys(draw, primes=(2, 3, 5), n_range=(1, 3), max_exp=4):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(*n_range))
    ctx = FieldCtx(p)
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[e] = draw(st.integers(1, p - 1)) if p > 2 else 1
    return MultiPoly(ctx, n, terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.data())
def test_derivative_identity(f, data):
    # D_{h1,h2} f = D_{h1+h2} f - D_{h1} f - D_{h2} f as reduced polynomials
    p, n = f.p, f.n
    h1 = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    h2 = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    h12 = tuple((a + b) % p for a, b in zip(h1, h2))
    lhs = functional_reduce(derivative(f, [h1, h2]))
    rhs = functional_reduce(
        derivative(f, [h12]) - derivative(f, [h1]) - derivative(f, [h2])
    )
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_functional_reduce_preserves_values(f):
    red = functional_reduce(f)
    assert red.eval_table().tolist() == f.eval_table().tolist()
    assert functional_reduce(red) == red


@settings(max_examples=30, deadline=None)
@given(small_polys())
def test_compose_identity_table(f):
    identity = LookupTable(f.p, 1, {(a,): a for a in range(f.p)})
    fn = compose_gamma(identity, [f])
    assert all(fn(x) == f.eval(x) for x in points_lex(f.p, f.n))


def test_grammar_roundtrip_and_canonical_order():
    f = parse_poly("2*x1^2*x2 + 3*x3 + 1", 5)
    assert poly_to_str(f) == "2*x1^2*x2 + 3*x3 + 1"
    assert parse_poly(poly_to_str(f), 5) == f
    # minus folds into coefficients mod p
    assert parse_poly("x1 - 1", 3, n=1) == parse_poly("x1 + 2", 3, n=1)
    assert poly_to_str(MultiPoly.zero(FieldCtx(3), 2)) == "0"
    with pytest.raises(InputError):
        parse_poly("x0 + 1", 3)
    with pytest.raises(InputError):
        parse_poly("2**x1", 3)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_serialization_roundtrip(f):
    assert parse_poly(poly_to_str(f), f.p, f.n) == f


def test_lookup_table_trusted_constructor_builds_the_checked_table():
    entries = {(a, b): (a * b + 1) % 5 for a in range(5) for b in range(5) if a != b}
    for default in (None, 0, 3):
        checked = LookupTable(5, 2, {(a + 5, b - 5): v + 10 for (a, b), v in entries.items()}, default)
        trusted = LookupTable._wrap(5, 2, dict(entries), default)
        assert (trusted.p, trusted.arity, trusted.entries, trusted.default) == \
            (checked.p, checked.arity, checked.entries, checked.default)
        assert trusted == checked and trusted.is_total() == (default is not None)


def test_lookup_table_flat_roundtrip():
    table = LookupTable(3, 2, {(a, b): (2 * a + b) % 3 for a in range(3) for b in range(3)})
    # keys in graded order: (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), (1,2), (2,1), (2,2)
    assert table.to_flat() == [0, 1, 2, 2, 0, 1, 1, 2, 0]


@settings(max_examples=100, deadline=None)
@given(small_polys(primes=(2, 3, 5, 7), n_range=(0, 4), max_exp=9))
def test_eval_table_matches_oracle(f):
    # exponents up to 9 reach past p for every prime drawn
    assert tuple(f.eval_table().tolist()) == oracle.table_of(f).values


def test_eval_table_of_zero_and_constants_matches_oracle():
    for p in (2, 3, 5, 7):
        for n in range(5):
            for c in range(p):
                f = MultiPoly.constant(FieldCtx(p), n, c)
                assert tuple(f.eval_table().tolist()) == oracle.table_of(f).values == (c,) * p**n


def test_eval_table_keeps_huge_exponents_and_moduli_exact():
    f = parse_poly("x1^1000000000 + 2*x2^7", 7)
    assert tuple(f.eval_table().tolist()) == oracle.table_of(functional_reduce(f)).values
    # (p-1)^2 overflows int64 here, so the table is built with object dtype
    big = 2**61 - 1
    g = MultiPoly.constant(FieldCtx(big), 0, big - 5)
    assert tuple(g.eval_table().tolist()) == oracle.table_of(g).values == (big - 5,)


def test_eval_table_is_a_cached_read_only_array():
    for f, dtype in (
        (parse_poly("x1*x2 + 2*x3^4 + 1", 5), np.int64),
        (MultiPoly.zero(FieldCtx(3), 2), np.int64),
        (MultiPoly.constant(FieldCtx(2**61 - 1), 0, 3), object),
    ):
        table = f.eval_table()
        assert type(table) is np.ndarray and table.dtype == dtype
        assert table.shape == (f.p ** f.n,)
        assert all(type(v) is int for v in table.tolist())
        with pytest.raises(ValueError):
            table[0] = 1
        assert f.eval_table() is table


def _radix_index(row, p):
    idx = 0
    for v in row:
        idx = idx * p + int(v) % p
    return idx


@settings(max_examples=100, deadline=None)
@given(small_polys(primes=(2, 3, 5, 7), n_range=(0, 4), max_exp=9), st.data())
def test_eval_points_matches_the_oracle_table(f, data):
    p, n = f.p, f.n
    m = data.draw(st.integers(0, 12))
    rows = data.draw(st.lists(
        st.lists(st.integers(-2 * p, 3 * p), min_size=n, max_size=n), min_size=m, max_size=m
    ))
    pts = np.array(rows, dtype=np.int64).reshape(m, n)
    table = oracle.table_of(f).values
    want = [table[_radix_index(row, p)] for row in rows]
    got = f.eval_points(pts)
    assert got.dtype == np.int64 and got.shape == (m,)
    assert got.tolist() == want
    assert [f.eval(row) for row in rows] == want


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 + 13])
def test_eval_points_is_exact_over_huge_moduli(p):
    rnd = random.Random(p)
    for n in range(4):
        terms = {
            tuple(rnd.choice([0, 1, 2, 9, 10**9]) for _ in range(n)): rnd.randrange(1, p)
            for _ in range(5)
        }
        f = MultiPoly(FieldCtx(p), n, terms)
        rows = [[rnd.randrange(-p, 2 * p) for _ in range(n)] for _ in range(7)]
        got = f.eval_points(rows)
        assert got.dtype == object and got.shape == (7,)
        assert got.tolist() == [naive_value(f, row) for row in rows]
        assert f.eval_points(np.empty((0, n), dtype=np.int64)).tolist() == []
        if n == 0:
            assert got.tolist() == list(oracle.table_of(f).values) * 7
    small = [[rnd.randrange(0, 2**62) for _ in range(3)] for _ in range(5)]
    f = MultiPoly(FieldCtx(p), 3, {(3, 0, 1): p - 1, (0, 10**9, 0): 5})
    got = f.eval_points(np.array(small, dtype=np.int64))
    assert got.tolist() == [naive_value(f, row) for row in small]


def test_eval_points_rejects_the_wrong_width():
    f = parse_poly("x1*x2", 5)
    with pytest.raises(InputError):
        f.eval_points(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(InputError):
        f.eval_points([1, 2])
    for points in (5, iter([[1, 2]])):  # neither is an (m, n) array
        with pytest.raises(InputError):
            f.eval_points(points)
    for other in (parse_poly("x1*x2*x3", 5), parse_poly("x1*x2", 7)):  # another n, another p
        with pytest.raises(InputError):
            _value_rows([f, other], None, np.zeros((3, 2), dtype=np.int64))


def test_derivative_of_a_huge_exponent_is_immediate():
    start = time.perf_counter()
    g = derivative(parse_poly("x1^1000000000*x2", 3), [(1, 0)])
    assert time.perf_counter() - start < 1.0
    assert functional_reduce(g) == parse_poly("2*x1*x2 + x2", 3, n=2)


# -- the derivative family against references that share none of its code --------


def _oracle_derivative(f, h):
    """(D_h f, its table): f's oracle table read at x + h minus at x, interpolated."""
    p, n = f.p, f.n
    values = oracle.table_of(f).values
    index = {x: i for i, x in enumerate(points_lex(p, n))}
    diff = tuple((values[index[tuple((a + b) % p for a, b in zip(x, h))]] - values[i]) % p
                 for x, i in index.items())
    return oracle.interpolate(oracle.TruthTable(p, n, diff)), diff


@st.composite
def derivative_cases(draw):
    """(f, dirs): f over F_p^n with p^n <= 125, the size the oracle interpolates in time,
    and directions led by the zero one and one with every entry set, some entries
    outside [0, p)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(small_polys(primes=(p,), n_range=(0, {2: 6, 3: 4, 5: 3, 7: 2}[p]), max_exp=9))
    extra = st.lists(st.tuples(*[st.integers(-p, 2 * p)] * f.n), max_size=3)
    return f, [(0,) * f.n, (p - 1,) * f.n] + draw(extra)


@settings(max_examples=80, deadline=None)
@given(derivative_cases(), st.booleans())
@example((parse_poly("x1^4*x2^3 + x2", 3), [(0, 0), (2, 2), (1, 0)]), True)  # unreduced exponents
@example((MultiPoly.constant(FieldCtx(5), 0, 3), [(), ()]), True)  # n = 0
def test_derivative_family_matches_the_symbolic_derivative(case, tables):
    f, dirs = case
    p, n = f.p, f.n
    family = derivative_family(f, dirs, tables)
    assert len(family) == len(dirs)
    for h, g in zip(dirs, family):
        want, diff = _oracle_derivative(f, h)
        plain = MultiPoly(f.ctx, n, g.terms)
        assert g == want == plain and hash(g) == hash(want) == hash(plain)
        assert all(type(v) is int for e in g.terms for v in e)
        assert all(type(c) is int and 0 < c < p for c in g.terms.values())
        assert (g._table is not None) == tables
        table = g.eval_table()
        assert table is g.eval_table() and table.dtype == np.int64
        assert table.base is None or not tables  # a gathered row owns its memory
        with pytest.raises(ValueError):
            table[0] = 1
        assert tuple(table.tolist()) == diff
    assert derivative(f, dirs[1:2]) == family[1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 16), (2**61 - 1, 3), (2**64 + 13, 3)]), st.data())
def test_derivative_family_is_f_at_x_plus_h_minus_f_at_x(case, data):
    # past the oracle's reach, and on object dtype: the identity at sampled points
    p, n = case
    ctx = FieldCtx(p)
    terms = {}
    for _ in range(data.draw(st.integers(0, 6))):  # up to 3 variables per term, exponents to 9
        e = [0] * n
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            e[i] = data.draw(st.integers(0, 9))
        terms[tuple(e)] = data.draw(st.integers(1, p - 1))
    f = MultiPoly(ctx, n, terms)
    entry = st.integers(0, p - 1)
    dirs = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4))
    points = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4))
    for h, g in zip(dirs, derivative_family(f, dirs)):
        assert all(type(c) is int and 0 < c < p for c in g.terms.values())
        for x in points:
            shifted = tuple(a + b for a, b in zip(x, h))
            assert naive_value(g, x) == (naive_value(f, shifted) - naive_value(f, x)) % p


def test_a_family_past_one_column_block_matches_its_tables():
    # 342 x-monomials: the weight product runs over two 256-column blocks
    p, n = 7, 3
    f = MultiPoly(FieldCtx(p), n, {e: 1 + sum(e) % (p - 1) for e in points_lex(p, n)})
    dirs = [(1, 0, 0), (0, 6, 0), (3, 5, 2), (6, 6, 6)]
    family = derivative_family(f, dirs, True)
    assert len(set().union(*(g.terms for g in family))) > 256
    for h, g in zip(dirs, family):
        assert MultiPoly(f.ctx, n, g.terms).eval_table().tolist() == g.eval_table().tolist()
        x = (2, 4, 1)
        shifted = tuple(a + b for a, b in zip(x, h))
        assert naive_value(g, x) == (naive_value(f, shifted) - naive_value(f, x)) % p


def test_derivative_family_rejects_a_direction_of_the_wrong_length():
    f = parse_poly("x1*x2", 5)
    for h in [(1, 2, 3, 4), (1, 2, 3), (1,), ()]:
        with pytest.raises(InputError):
            derivative_family(f, [(1, 1), h])
        with pytest.raises(InputError):
            derivative(f, [h])


def test_a_high_degree_family_in_one_variable_is_fast():
    p = 1009
    f = MultiPoly(FieldCtx(p), 1, {(e,): 1 + e for e in range(17)})
    dirs = [(h,) for h in range(1, p)]
    start = time.perf_counter()
    family = derivative_family(f, dirs, True)
    assert time.perf_counter() - start < 0.5
    table = f.eval_table()
    for h in (1, 2, 500, 1008):
        g = family[h - 1]
        assert g.degree() == 15
        want = ((np.roll(table, -h) - table) % p).tolist()
        assert g.eval_table().tolist() == want
        assert MultiPoly(f.ctx, 1, g.terms).eval_table().tolist() == want  # the terms too


@st.composite
def point_families(draw):
    """(polys, points): a family of polynomials over one field and an (m, n) point array."""
    p = draw(st.sampled_from([2, 3, 5, 7, 2**61 - 1, 2**64 + 13]))
    n = draw(st.integers(0, 3))
    ctx = FieldCtx(p)
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {tuple(draw(st.integers(0, 9)) for _ in range(n)): draw(st.integers(1, p - 1))
                 for _ in range(draw(st.integers(0, 4)))}
        polys.append(MultiPoly(ctx, n, terms))
    m = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.integers(-2 * p, 3 * p), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return polys, np.array(rows, dtype=np.int64 if p < 2**62 else object).reshape(m, n)


@settings(max_examples=100, deadline=None)
@given(point_families())
@example(([MultiPoly.constant(FieldCtx(2**64 + 13), 0, 7), MultiPoly.zero(FieldCtx(2**64 + 13), 0)],
          sample_points(np.random.default_rng(0), 2**64 + 13, 0, 5)))  # object dtype, n = 0
def test_value_rows_on_points_matches_per_polynomial_eval_points(case):
    polys, pts = case
    got = _value_rows(polys, len(pts), pts)
    want = np.stack([g.eval_points(pts) for g in polys])
    assert got.dtype == want.dtype and got.shape == (len(polys), len(pts))
    assert got.tolist() == want.tolist()
    assert got.tolist() == [[naive_value(g, row) for row in pts.tolist()] for g in polys]


def _corners_per_cube(rng, p, n, k, samples):
    """Corners of each cube from its own draws: x, then y_1..y_k, one call each."""
    corners = []
    for _ in range(samples):
        x = rng.integers(0, p, size=n).tolist()
        ys = [rng.integers(0, p, size=n).tolist() for _ in range(k)]
        for mask in range(1 << k):
            chosen = [y for j, y in enumerate(ys) if mask >> j & 1]
            corners.append([(v + sum(y[i] for y in chosen)) % p for i, v in enumerate(x)])
    return corners


CORNER_PRIMES = (2, 3, 2**31 - 1, 2**40 + 15, 2**62 + 135)


# 600 cubes of order 5 span two batches of corners
@pytest.mark.parametrize("p,n,k,samples", [
    (p, n, k, 7) for p in CORNER_PRIMES for n in (0, 1, 3) for k in range(1, 6)
] + [(p, n, 5, 600) for p in CORNER_PRIMES for n in (0, 3)])
def test_cube_corners_follow_the_per_cube_draw_stream(p, n, k, samples):
    batches = list(cube_corners(np.random.default_rng(samples + k), p, n, k, samples))
    assert len(batches) == (2 if samples == 600 else 1)
    assert all(b.dtype == np.int64 and b.shape[1] == n for b in batches)
    got = np.concatenate(batches).tolist()
    assert got == _corners_per_cube(np.random.default_rng(samples + k), p, n, k, samples)
