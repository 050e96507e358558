"""Point counting: exhaustive, regularized, and the structural profile."""

import numpy as np
import pytest

from polystruct.config import Caps
from polystruct import variety
from polystruct.errors import CapExceeded, InternalConsistencyError
from polystruct.config import RegularizeConfig
from polystruct.factor import PolynomialFactor, regularize
from polystruct.ffpoly import FieldCtx, parse_poly, points_lex
from polystruct.variety import (
    count_points_exact,
    count_points_regularized,
    solution_profile,
)
from util import naive_value, random_poly


def test_exact_count_examples():
    assert count_points_exact(
        [parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)]
    ).exact_count == 1
    assert count_points_exact([parse_poly("x1*x2", 3)]).exact_count == 5
    report = count_points_exact([parse_poly("x1", 3, n=1), parse_poly("x1+1", 3)])
    assert report.exact_count == 0 and report.empty
    with pytest.raises(CapExceeded):
        count_points_exact([parse_poly("x1*x2", 3)], caps=Caps(enum_cap=4))


P65 = 2**64 + 13  # a prime above the int64 range: object-dtype tables


def test_exact_count_edge_cases():
    ctx = FieldCtx(3)
    assert count_points_exact([], ctx, 2).exact_count == 9
    assert count_points_exact([], ctx, 0).exact_count == 1
    assert count_points_exact([parse_poly("0", 3, n=0)]).exact_count == 1
    assert count_points_exact([parse_poly("2", 3, n=0)]).exact_count == 0
    assert count_points_exact([parse_poly(str(P65 - 1), P65, n=0)]).exact_count == 0
    assert count_points_exact([parse_poly("0", P65, n=0)]).exact_count == 1


def test_regularized_count_examples():
    rep = count_points_regularized([parse_poly("x1", 3, n=2)], s=1)
    assert rep.reduced_dimension == 1 and rep.approx_count == 3

    rep2 = count_points_regularized([parse_poly("x1*x2", 3)], s=1)
    exact = count_points_exact([parse_poly("x1*x2", 3)]).exact_count
    assert abs(rep2.approx_count - exact) <= exact / 3

    ctx = FieldCtx(3)
    rep3 = count_points_regularized([], s=1, ctx=ctx, n=2)
    assert rep3.approx_count == 9 and rep3.reduced_dimension == 0


def test_emptiness_decision_is_structural():
    rep = count_points_regularized(
        [parse_poly("x1", 3, n=1), parse_poly("x1+1", 3)], s=1
    )
    assert rep.empty and rep.approx_count == 0

    rng = np.random.default_rng(29)
    ctx = FieldCtx(3)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        exact = count_points_exact(gens, ctx, n)
        reg = count_points_regularized(gens, s=4, ctx=ctx, n=n)
        assert reg.empty == exact.empty


def test_multiplicative_accuracy_at_matching_regularity():
    rng = np.random.default_rng(37)
    ctx = FieldCtx(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        exact = count_points_exact(gens, ctx, n).exact_count
        reg = count_points_regularized(gens, s=4, ctx=ctx, n=n)
        if exact == 0:
            assert reg.approx_count == 0
        else:
            assert abs(reg.approx_count - exact) <= exact / 3


def test_solution_profile_examples():
    prof = solution_profile([parse_poly("x1+x2+x3", 3)], s=2)
    assert prof.exact_count == 9
    assert prof.cw_holds and prof.axkatz_holds and prof.in_interval

    # the unit hyperbola x1*x2 = 1 over F_3 has p - 1 = 2 points
    prof2 = solution_profile([parse_poly("x1*x2-1", 3)], s=2)
    assert prof2.exact_count == 2
    assert prof2.axkatz_bound == 1 and prof2.axkatz_holds

    ctx = FieldCtx(3)
    prof3 = solution_profile([], s=2, ctx=ctx, n=1)
    assert prof3.exact_count == 3
    assert prof3.cw_holds and prof3.axkatz_holds and prof3.in_interval


def test_chevalley_warning_strengthening():
    # nonempty systems with d*c < n stay above p^(n-c') (1 - p^-s)
    rng = np.random.default_rng(41)
    ctx = FieldCtx(3)
    for _ in range(25):
        n = int(rng.integers(3, 5))
        d = int(rng.integers(1, 3))
        c = 1 if d == 2 else int(rng.integers(1, min(3, n)))
        if d * c >= n:
            continue
        gens = [random_poly(rng, ctx, n, d) for _ in range(c)]
        prof = solution_profile(gens, s=2)
        if prof.exact_count > 0:
            assert prof.cw_holds


@pytest.mark.parametrize("p", [2, 3, 5])
def test_regularized_count_matches_a_per_point_loop(p):
    # p^(n-c') times the number of distinct regular atoms met by common zeros
    rng = np.random.default_rng(p)
    ctx = FieldCtx(p)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 4)))]
        config = RegularizeConfig()
        regular = regularize(PolynomialFactor(gens), 2, config)
        zero_atoms = {
            tuple(naive_value(g, x) for g in regular.polys)
            for x in points_lex(p, n)
            if all(naive_value(g, x) == 0 for g in gens)
        }
        report = count_points_regularized(gens, 2, config)
        assert report.reduced_dimension == regular.c
        assert report.approx_count == p ** (n - regular.c) * len(zero_atoms)
        assert report.empty == (not zero_atoms)


def test_regularized_count_rejects_a_factor_that_does_not_refine_the_generators(monkeypatch):
    gens = [parse_poly("x1*x2", 3, n=2)]
    monkeypatch.setattr(variety, "regularize",
                        lambda factor, s, config: PolynomialFactor([parse_poly("x2", 3, n=2)]))
    with pytest.raises(InternalConsistencyError, match="semantic refinement was violated"):
        count_points_regularized(gens, 1)
    # x1 and x2 together determine x1*x2: its 5 zeros meet 5 of the 9 atoms
    monkeypatch.setattr(variety, "regularize", lambda factor, s, config: PolynomialFactor(
        [parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)]))
    report = count_points_regularized(gens, 1)
    assert (report.approx_count, report.reduced_dimension) == (5, 2)
