"""Bias-to-structure decompositions and the quadratic rank."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polystruct import decompose as decompose_mod, oracle
from polystruct.bias import exact_bias
from polystruct.config import Caps, DEFAULT_CAPS
from polystruct.decompose import (
    INFINITE_RANK,
    Decomposition,
    _bias_exponent,
    _check_bias,
    _fit_table,
    approx_decompose,
    decomposition_error,
    exact_decompose,
    quadratic_rank,
)
from polystruct.errors import DecompositionFailed, PreconditionError, UnsupportedError
from polystruct.ffpoly import (
    FieldCtx,
    LookupTable,
    MultiPoly,
    derivative,
    derivative_family,
    functional_reduce,
    monomials_upto,
    parse_poly,
    points_lex,
    sample_points,
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


def test_decomposition_repr_is_the_same_for_two_fits():
    # the table shows its entries in sorted key order, not an object address
    for f in (parse_poly("x1*x2", 5), parse_poly("x1*x2*x3", 3)):
        first, second = (approx_decompose(f, s=1, t=2, seed=3) for _ in range(2))
        assert first.gamma is not second.gamma
        assert repr(first) == repr(second)
        assert "0x" not in repr(first)
    table = LookupTable(3, 1, {(2,): 1, (0,): 2})
    assert repr(table) == "LookupTable(p=3, arity=1, entries={(0,): 2, (2,): 1}, default=None)"


def test_approx_decompose_takes_derivatives_of_the_reduced_polynomial():
    # x1^4*x2^3 is x1^2*x2 as a function on F_3^2; the degree that sizes the
    # coefficient vectors b is still the unreduced 7
    f = parse_poly("x1^4*x2^3", 3)
    dec = approx_decompose(f, s=1, t=2, seed=0)
    # 1,289 nonzero vectors b, but F_3^2 has only 8 nonzero directions
    assert len(monomials_upto(dec.k, 7, 3)) - 1 == 1289
    assert sorted(dec.directions) == [h for h in points_lex(3, 2) if any(h)]
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


# -- the derivative family against the one that emitted every b --------------


def _every_b_approx_decompose(f, s, t, seed=0, retries=16, caps=DEFAULT_CAPS,
                              trust_bias=False, k_override=None, error_samples=4096):
    """approx_decompose as it was when it emitted one derivative per nonzero b,
    zero and repeated directions included."""
    _check_bias(f, s, caps, trust_bias)
    p, n, d = f.p, f.n, f.degree()
    k = k_override if k_override is not None else t + 2 * s + 3
    nonzero = tuple(b for b in monomials_upto(k, d, p) if any(b))
    target = 2.0 * p ** (-t)

    best = None
    for attempt in range(max(1, retries)):
        rng = np.random.default_rng([seed, attempt])
        z = tuple(tuple(int(v) for v in row) for row in sample_points(rng, p, n, k))
        dirs = [
            tuple(sum(bj * zj[i] for bj, zj in zip(b, z)) % p for i in range(n))
            for b in nonzero
        ]
        derivatives = {}
        for h in dirs:
            if h not in derivatives:
                derivatives[h] = functional_reduce(derivative(f, [h]))
        polys = [derivatives[h] for h in dirs]
        table, err = _fit_table(f, polys, caps, error_samples, rng)
        dec = Decomposition(polys, table, dirs, err, False, k, attempt + 1)
        if best is None or err < best.claimed_error:
            best = dec
        if err <= target + 1e-12:
            return dec
    raise DecompositionFailed("no attempt reached the error target", best=best)


def _outcome(fn, f, s, **kwargs):
    """(outcome, returned or best decomposition, or error text) of one implementation."""
    try:
        return "returned", fn(f, s, **kwargs)
    except DecompositionFailed as exc:
        return "failed", exc.best
    except PreconditionError as exc:
        return "precondition", str(exc)


@st.composite
def approx_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = [0] * n
        for _ in range(draw(st.integers(0, 7))):
            e[draw(st.integers(0, n - 1))] += 1
        terms[tuple(e)] = draw(st.integers(1, p - 1))
    f = MultiPoly(FieldCtx(p), n, terms)
    # sampled: the table is fitted on drawn points, so the RNG stream after z matters
    kwargs = dict(t=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2**16)),
                  retries=draw(st.integers(1, 3)), k_override=draw(st.integers(1, 4)))
    if draw(st.booleans()):
        kwargs.update(caps=Caps(enum_cap=1), trust_bias=True, error_samples=200)
    return f, kwargs


@settings(max_examples=80, deadline=None)
@given(approx_cases())
@example((parse_poly("x1^4*x2^3", 3), dict(t=2, seed=0, k_override=None)))
@example((parse_poly("x1*x2", 5), dict(t=2, seed=1, k_override=None)))
@example((MultiPoly.constant(FieldCtx(3), 2, 1), dict(t=1, seed=0, k_override=2)))
def test_approx_decompose_matches_the_every_b_family(case):
    f, kwargs = case
    s = _bias_exponent(max(exact_bias(f).magnitude, f.p ** -6), f.p)
    (outcome, new), (want, old) = (_outcome(fn, f, s, **kwargs)
                                   for fn in (approx_decompose, _every_b_approx_decompose))
    assert outcome == want
    if isinstance(old, str):
        assert new == old
        return
    assert (new.attempts, new.claimed_error, new.k) == (old.attempts, old.claimed_error, old.k)
    # the distinct nonzero directions in first-occurrence order, with their derivatives
    firsts = [h for h in dict.fromkeys(old.directions) if any(h)]
    assert new.directions == firsts
    assert new.polys == [old.polys[old.directions.index(h)] for h in firsts]
    for x in points_lex(f.p, f.n):
        assert new.gamma(tuple(g.eval(x) for g in new.polys)) == \
            old.gamma(tuple(g.eval(x) for g in old.polys))


# -- the decomposition's derivatives against the oracle -----------------------


@st.composite
def gather_cases(draw):
    """(f, kwargs): f of degree <= 2(p-1) over F_p^n, n >= 1, p^n <= 125 so the
    oracle interpolates each derivative in time."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, {2: 4, 3: 4, 5: 3, 7: 2}[p]))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * n
        for _ in range(draw(st.integers(1, 2 * (p - 1)))):
            e[draw(st.integers(0, n - 1))] += 1
        terms[tuple(e)] = draw(st.integers(1, p - 1))
    f = MultiPoly(FieldCtx(p), n, terms)
    kwargs = dict(t=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2**16)),
                  retries=draw(st.integers(1, 2)), k_override=draw(st.integers(1, 2)))
    if draw(st.booleans()):  # no table of f: the derivatives come without tables
        kwargs.update(caps=Caps(enum_cap=1), trust_bias=True, error_samples=200)
    return f, kwargs


@settings(max_examples=80, deadline=None)
@given(gather_cases())
@example((parse_poly("x1*x2*x3", 3), dict(t=2, seed=0, k_override=None)))
@example((MultiPoly.constant(FieldCtx(5), 2, 3), dict(t=1, seed=0, k_override=None)))
def test_gathered_derivatives_match_the_symbolic_path(case):
    f, kwargs = case
    s = _bias_exponent(max(exact_bias(f).magnitude, f.p ** -6), f.p)
    with patch.object(decompose_mod, "derivative_family", wraps=derivative_family) as family:
        outcome, dec = _outcome(approx_decompose, f, s, **kwargs)
    if isinstance(dec, str):
        assert outcome == "precondition" and not family.called
        return
    if f.is_constant():
        assert dec.directions == [] and dec.polys == []
    # one call per attempt, with tables exactly where the fit enumerates f's table
    enumerable = f.p ** f.n <= kwargs.get("caps", DEFAULT_CAPS).enum_cap
    attempts = dec.attempts if outcome == "returned" else max(1, kwargs.get("retries", 16))
    assert [call.args[2] for call in family.call_args_list] == [enumerable] * attempts
    table = oracle.table_of(f).values
    index = {x: i for i, x in enumerate(points_lex(f.p, f.n))}
    for h, g in zip(dec.directions, dec.polys):
        diff = tuple((table[index[tuple((a + b) % f.p for a, b in zip(x, h))]] - table[i]) % f.p
                     for x, i in index.items())
        assert g == oracle.interpolate(oracle.TruthTable(f.p, f.n, diff))
        assert (g._table is not None) == enumerable
        assert tuple(g.eval_table().tolist()) == diff
    if enumerable:
        assert dec.claimed_error == pytest.approx(decomposition_error(f, dec), abs=1e-12)
