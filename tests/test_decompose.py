"""Bias-to-structure decompositions and the quadratic rank."""

import math

import numpy as np
import pytest

from polystruct.bias import exact_bias
from polystruct.decompose import (
    INFINITE_RANK,
    Decomposition,
    approx_decompose,
    decomposition_error,
    exact_decompose,
    quadratic_rank,
)
from polystruct.errors import PreconditionError, UnsupportedError
from polystruct.ffpoly import (
    FieldCtx,
    LookupTable,
    MultiPoly,
    derivative,
    functional_reduce,
    monomials_upto,
    parse_poly,
    points_lex,
)
from util import random_poly


def test_basis_vectors_cardinality_bound():
    for p, k, d in [(3, 5, 2), (5, 7, 2), (3, 9, 3), (2, 6, 2)]:
        basis = monomials_upto(k, d, p)
        assert len(basis) <= math.comb(d + k, d)
        assert all(sum(b) <= d for b in basis)
        assert basis == sorted(basis, key=lambda b: (sum(b), b))
        assert len(set(basis)) == len(basis)


def test_approx_decompose_constant_is_trivial():
    const = MultiPoly.constant(FieldCtx(5), 2, 3)
    dec = approx_decompose(const, s=1, t=2, seed=0)
    assert dec.polys == [] and dec.claimed_error == 0.0
    assert dec.gamma(()) == 3


def test_approx_decompose_quadratic_over_f5():
    f = parse_poly("x1*x2", 5)
    dec = approx_decompose(f, s=1, t=2, seed=1)
    assert dec.claimed_error <= 2 / 25 + 1e-12
    assert all(g.degree() <= 1 for g in dec.polys)
    # every emitted polynomial is the symbolic derivative along its direction
    for g, h in zip(dec.polys, dec.directions):
        assert g == functional_reduce(derivative(f, [h]))
    # the claimed error is the measured one
    assert decomposition_error(f, dec) == pytest.approx(dec.claimed_error, abs=1e-12)


def test_approx_decompose_takes_derivatives_of_the_reduced_polynomial():
    # x1^4*x2^3 is x1^2*x2 as a function on F_3^2; the degree that sizes the
    # coefficient vectors b is still the unreduced 7
    f = parse_poly("x1^4*x2^3", 3)
    dec = approx_decompose(f, s=1, t=2, seed=0)
    assert len(dec.directions) == len(monomials_upto(dec.k, 7, 3)) - 1
    for g, h in zip(dec.polys, dec.directions):
        assert g == functional_reduce(derivative(f, [h]))


def test_approx_decompose_cubic_emits_quadratics():
    f = parse_poly("x1*x2*x3", 3)
    assert exact_bias(f).magnitude >= 1 / 9 - 1e-9
    dec = approx_decompose(f, s=2, t=2, seed=2)
    assert all(g.degree() <= 2 for g in dec.polys)
    assert dec.claimed_error <= 2 / 9 + 1e-12


def test_approx_decompose_bias_precondition():
    f = parse_poly("x1", 3, n=1)  # bias 0
    with pytest.raises(PreconditionError):
        approx_decompose(f, s=2, t=2, seed=0)


def test_retry_fraction_over_50_seeds():
    f = parse_poly("x1*x2", 5)
    retried = sum(
        approx_decompose(f, s=1, t=2, seed=seed).attempts > 1 for seed in range(50)
    )
    assert retried / 50 <= 0.5


def test_decomposition_error_examples():
    f = parse_poly("x1", 3, n=1)
    dec = Decomposition(
        polys=[],
        gamma=LookupTable(3, 0, {}, default=0),
        directions=None,
        claimed_error=0.0,
        exact=False,
    )
    assert decomposition_error(f, dec) == pytest.approx(2 / 3)
    a = decomposition_error(f, dec, mode="sampled", samples=500, seed=4)
    b = decomposition_error(f, dec, mode="sampled", samples=500, seed=4)
    assert a == b


def test_exact_decompose_single_quadratic():
    f = parse_poly("x1*x2", 3)
    dec = exact_decompose(f, 1)
    assert dec.exact and dec.claimed_error == 0.0
    assert all(g.degree() == 1 for g in dec.polys)
    # atoms are single points and the table reproduces f everywhere
    atoms = {tuple(g.eval(x) for g in dec.polys) for x in points_lex(3, 2)}
    assert len(atoms) == 9
    for x in points_lex(3, 2):
        assert dec.gamma(tuple(g.eval(x) for g in dec.polys)) == f.eval(x)


def test_exact_decompose_constant():
    const = MultiPoly.constant(FieldCtx(3), 2, 2)
    dec = exact_decompose(const, 1)
    assert dec.exact and len(dec.polys) <= 1
    assert dec.gamma(() if not dec.polys else tuple([const.eval((0, 0))] * len(dec.polys)))


def test_exact_decompose_two_disjoint_products():
    f = parse_poly("x1*x2 + x3*x4", 3)
    dec = exact_decompose(f, 2)
    assert dec.exact
    assert all(g.degree() == 1 for g in dec.polys)
    for x in points_lex(3, 4):
        assert dec.gamma(tuple(g.eval(x) for g in dec.polys)) == f.eval(x)


def test_quadratic_rank_examples():
    assert quadratic_rank(parse_poly("x1*x2", 5)) == 1
    assert quadratic_rank(parse_poly("x1*x2 + x3*x4", 5)) == 2
    assert quadratic_rank(parse_poly("x1", 5, n=1)) == INFINITE_RANK
    assert quadratic_rank(MultiPoly.constant(FieldCtx(5), 2, 4)) == 0
    assert quadratic_rank(parse_poly("x1^2", 3, n=1)) == 1
    with pytest.raises(UnsupportedError):
        quadratic_rank(parse_poly("x1*x2", 2))
    with pytest.raises(PreconditionError):
        quadratic_rank(parse_poly("x1^3", 5, n=1))


def test_quadratic_rank_monotone_in_disjoint_products():
    ctx = FieldCtx(5)
    for i in range(1, 5):
        n = 2 * i
        terms = {}
        for j in range(i):
            e = [0] * n
            e[2 * j] = 1
            e[2 * j + 1] = 1
            terms[tuple(e)] = 1
        assert quadratic_rank(MultiPoly(ctx, n, terms)) == i


def test_inverse_gowers_for_quadratics():
    # for deg-2 f over odd p the U^2 norm determines the matrix rank m via
    # U^2 = p^(-m/4); high uniformity norm therefore certifies low rank
    from polystruct.bias import gowers_norm

    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, FieldCtx(3), n, 2)
        if f.degree() != 2:
            continue
        u2 = gowers_norm(f, 2)
        m = round(-4 * math.log(u2, 3))
        assert quadratic_rank(f) == (m + 1) // 2
        checked += 1
    assert checked >= 5


def test_decomposition_degrees_strictly_below_source():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_poly(rng, FieldCtx(3), 2, 2, ensure_degree=2)
        if exact_bias(f).magnitude < 1 / 9 - 1e-9:
            continue
        dec = approx_decompose(f, s=2, t=1, seed=int(rng.integers(1000)))
        assert all(g.degree() < f.degree() for g in dec.polys)
