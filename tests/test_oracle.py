"""The naive reference implementations and their round trips."""

import numpy as np
import pytest

from polystruct import oracle
from polystruct.bias import exact_bias
from polystruct.errors import InputError
from polystruct.ffpoly import FieldCtx, MultiPoly, functional_reduce, parse_poly
from polystruct.rmcode import RMParams, list_decode_brute
from polystruct.variety import count_points_exact
from util import random_poly


def test_table_of_examples():
    zero = MultiPoly.zero(FieldCtx(3), 2)
    assert oracle.table_of(zero).values == (0,) * 9

    ident = parse_poly("x1", 3, n=1)
    assert oracle.table_of(ident).values == (0, 1, 2)

    with pytest.raises(InputError):
        oracle.TruthTable(3, 2, (0,) * 8)


def test_interpolation_round_trip():
    rng = np.random.default_rng(19)
    ctx = FieldCtx(3)
    for _ in range(40):
        f = random_poly(rng, ctx, 2, 3)
        table = oracle.table_of(f)
        back = oracle.interpolate(table)
        assert back == functional_reduce(f)
        assert oracle.table_of(back).values == table.values


def test_oracle_bias_values():
    zero_table = oracle.table_of(MultiPoly.zero(FieldCtx(3), 1))
    assert oracle.oracle_bias(zero_table) == pytest.approx(1 + 0j)

    prod = parse_poly("x1*x2", 3)
    val = oracle.oracle_bias(oracle.table_of(prod))
    assert val == pytest.approx(exact_bias(prod).as_complex(), abs=1e-9)


def test_oracle_count_zeros():
    tables = [oracle.table_of(parse_poly("x1*x2", 3))]
    assert oracle.oracle_count_zeros(tables) == 5
    two = [
        oracle.table_of(parse_poly("x1", 3, n=2)),
        oracle.table_of(parse_poly("x2", 3, n=2)),
    ]
    assert oracle.oracle_count_zeros(two) == 1


def test_oracle_list_decode():
    hits = oracle.oracle_list_decode(3, 1, 1, (0, 0, 0), 0)
    assert hits == [(0, 0, 0)]
    hits2 = oracle.oracle_list_decode(3, 1, 1, (0, 0, 0), 2 / 3)
    assert len(hits2) == 7


def test_dual_agreement_small_battery():
    rng = np.random.default_rng(23)
    ctx = FieldCtx(3)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, ctx, n, 2)
        assert oracle.table_of(f).values == tuple(f.eval_table().tolist())
        assert oracle.oracle_bias(oracle.table_of(f)) == pytest.approx(
            exact_bias(f).as_complex(), abs=1e-9
        )
        gens = [f, random_poly(rng, ctx, n, 2)]
        assert oracle.oracle_count_zeros([oracle.table_of(g) for g in gens]) == (
            count_points_exact(gens).exact_count
        )

    params = RMParams(3, 1, 1)
    for _ in range(25):
        center = tuple(int(v) for v in rng.integers(0, 3, size=3))
        radius = float(rng.choice([0.0, 1 / 3, 2 / 3, 1.0]))
        ours = sorted(
            tuple(f.eval_table().tolist()) for f in list_decode_brute(params, center, radius).polys()
        )
        theirs = oracle.oracle_list_decode(3, 1, 1, center, radius)
        assert ours == theirs
