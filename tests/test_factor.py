"""Atom structure, biased combinations, regularization, measurability."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polystruct import decompose as decompose_mod
from polystruct import oracle
from polystruct.bias import BIAS_TOL, bias_from_counts, exact_bias
from polystruct.config import Caps, DecomposeConfig, RegularizeConfig
from polystruct.decompose import Decomposition, decomposition_error, quadratic_rank, INFINITE_RANK
from polystruct.errors import CapExceeded, PartialResultError, PreconditionError
from polystruct.factor import (
    PolynomialFactor,
    _dependency_reduce,
    atom_histogram,
    combine,
    find_biased_combination,
    measurable_table,
    parallelepiped_check,
    regularize,
    semantic_refines,
)
from polystruct.ffpoly import (
    FieldCtx, LookupTable, MultiPoly, _value_rows, compose_poly, extend_variables, graded_points,
    monomials_upto, parse_poly,
)
from util import naive_value, random_poly


def test_atom_histogram_examples():
    coord = PolynomialFactor([parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)])
    hist = atom_histogram(coord)
    assert len(hist) == 9 and set(hist.values()) == {1}
    assert sum(hist.values()) == 9

    single = PolynomialFactor([parse_poly("x1", 3, n=2)])
    hist2 = atom_histogram(single)
    assert len(hist2) == 3 and set(hist2.values()) == {3}

    irregular = PolynomialFactor([parse_poly("x1", 3, n=1), parse_poly("x1+1", 3, n=1)])
    hist3 = atom_histogram(irregular)
    assert len(hist3) == 3  # only the diagonal atoms (a, a+1) are populated

    sampled = atom_histogram(single, samples=300, seed=1)
    assert sum(sampled.values()) == 300
    with pytest.raises(CapExceeded):
        atom_histogram(single, caps=Caps(enum_cap=2))


def test_find_biased_combination_examples():
    regular = PolynomialFactor([parse_poly("x1", 5, n=2), parse_poly("x2", 5, n=2)])
    assert find_biased_combination(regular, 1) is None

    dependent = PolynomialFactor([parse_poly("x1", 5, n=1), parse_poly("2*x1", 5, n=1)])
    found = find_biased_combination(dependent, 1)
    assert found is not None
    coeffs, cs = found
    assert coeffs == (1, 2)  # first in graded order: x1 + 2*(2*x1) = 5*x1 = 0
    assert cs.magnitude == pytest.approx(1.0)
    assert combine(dependent, coeffs).is_constant()

    quad = PolynomialFactor([parse_poly("x1*x2", 3)])
    found2 = find_biased_combination(quad, 2)
    assert found2 is not None and found2[0] == (1,)
    assert found2[1].magnitude == pytest.approx(1 / 3)

    with pytest.raises(CapExceeded):
        find_biased_combination(regular, 1, caps=Caps(search_cap=3))


def test_regularize_fixed_point():
    factor = PolynomialFactor([parse_poly("x1", 5, n=2), parse_poly("x2", 5, n=2)])
    out = regularize(factor, 1)
    assert out.polys == factor.polys
    assert out.regularity_s == 1


def test_regularize_splits_biased_quadratic():
    factor = PolynomialFactor([parse_poly("x1*x2", 3)])
    out = regularize(factor, 1)
    assert out.polys and all(g.degree() == 1 for g in out.polys)
    assert semantic_refines(out, factor)
    assert find_biased_combination(out, 1) is None


def test_regularize_eliminates_linear_dependence():
    factor = PolynomialFactor(
        [parse_poly("x1", 3, n=2), parse_poly("x1+x2", 3), parse_poly("x2", 3, n=2)]
    )
    out = regularize(factor, 1)
    assert out.c <= 3
    assert semantic_refines(out, factor)


def test_regularize_respects_pinned_prefix():
    factor = PolynomialFactor(
        [parse_poly("x1", 3, n=2), parse_poly("2*x1", 3, n=2)], pinned_prefix=1
    )
    out = regularize(factor, 1)
    assert out.polys[0] == parse_poly("x1", 3, n=2)
    assert out.pinned_prefix == 1


def test_regularize_handles_many_dependent_linears():
    # 3^30 is far above the scan cap: the dependency reduction must bring it under
    ctx = FieldCtx(3)
    rng = np.random.default_rng(8)
    base = [parse_poly("x1", 3, n=3), parse_poly("x2", 3, n=3), parse_poly("x3", 3, n=3)]
    polys = []
    for _ in range(30):
        coeffs = rng.integers(0, 3, size=3)
        const = int(rng.integers(0, 3))
        f = MultiPoly.constant(ctx, 3, const)
        for c, g in zip(coeffs, base):
            f = f + g * int(c)
        polys.append(f)
    factor = PolynomialFactor(polys)
    out = regularize(factor, 2)
    assert out.c <= 4
    assert semantic_refines(out, factor)
    assert find_biased_combination(out, 2) is None


def test_atom_equidistribution_for_regular_factors():
    rng = np.random.default_rng(17)
    ctx = FieldCtx(3)
    for _ in range(8):
        polys = [random_poly(rng, ctx, 3, 2) for _ in range(int(rng.integers(1, 3)))]
        factor = PolynomialFactor(polys)
        out = regularize(factor, 2)
        if out.c == 0:
            continue
        hist = atom_histogram(out)
        size = 3**3
        for count in hist.values():
            freq = count / size
            assert abs(freq - 3.0 ** -out.c) <= 3.0**-2 + 1e-12


def test_measurable_table_examples():
    f = parse_poly("x1", 3, n=2)
    table, exact, agreement = measurable_table(f, PolynomialFactor([f]))
    assert exact and agreement == 1.0

    g = parse_poly("x2", 3, n=2)
    table2, exact2, agreement2 = measurable_table(g, PolynomialFactor([f]))
    assert not exact2 and agreement2 == pytest.approx(1 / 3)
    assert all(table2((a,)) == 0 for a in range(3))  # plurality ties pick 0

    prod = parse_poly("x1*x2", 3)
    coords = PolynomialFactor([parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)])
    table3, exact3, _ = measurable_table(prod, coords)
    assert exact3
    for a in range(3):
        for b in range(3):
            assert table3((a, b)) == (a * b) % 3


def test_semantic_refinement_exhaustive():
    fine = PolynomialFactor([parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)])
    coarse = PolynomialFactor([parse_poly("x1*x2", 3)])
    assert semantic_refines(fine, coarse)
    assert not semantic_refines(coarse, fine)


def test_parallelepiped_linear_constraint():
    factor = PolynomialFactor([parse_poly("x1", 3, n=1)])
    report = parallelepiped_check(factor, k=2, samples=400, seed=3)
    # linear factors satisfy the alternating-sum cube constraint exactly
    for corners in report.counts:
        total = 0
        for mask, atom in enumerate(corners):
            sign = (-1) ** bin(mask).count("1")
            total += sign * atom[0]
        assert total % 3 == 0


def test_parallelepiped_regular_factor_matches_prediction():
    factor = PolynomialFactor([parse_poly("x1", 3, n=2), parse_poly("x2", 3, n=2)])
    report = parallelepiped_check(factor, k=2, samples=10**4, seed=5)
    # exhaustive ground truth: tuples are uniform over 3^(c + exponent) cells
    assert report.predicted_exponent == 4
    assert report.predicted_frequency == pytest.approx(3.0**-6)
    assert report.max_deviation <= 0.05
    assert report.support_size <= 3**6

    empty = parallelepiped_check(PolynomialFactor([]), k=2, samples=10, seed=0)
    assert empty.support_size == 1 and empty.max_deviation == 0.0

    with pytest.raises(PreconditionError):
        parallelepiped_check(factor, k=1, samples=10, seed=0)


def test_faithful_composition_degree_bound():
    # disjoint-variable factors are regular; composing with a polynomial
    # outer function keeps sum_i s_i deg(h_i) <= deg of the expansion
    # for every outer monomial s
    ctx = FieldCtx(5)
    rng = np.random.default_rng(51)
    cases = [
        (  # x1 and x2*x3 on disjoint variables
            [parse_poly("x1", 5, n=3), parse_poly("x2*x3", 5)],
            MultiPoly(FieldCtx(5), 2, {(2, 1): 1, (1, 0): 2}),
        ),
        (
            [parse_poly("x1*x2", 5, n=4), parse_poly("x3", 5, n=4), parse_poly("x4", 5, n=4)],
            MultiPoly(FieldCtx(5), 3, {(1, 1, 0): 3, (0, 0, 2): 1, (1, 0, 1): 4}),
        ),
    ]
    for _ in range(6):
        h = [
            MultiPoly(ctx, 4, {(1, 0, 0, 0): int(rng.integers(1, 5))}),
            MultiPoly(ctx, 4, {(0, 1, 1, 0): int(rng.integers(1, 5))}),
            MultiPoly(ctx, 4, {(0, 0, 0, 1): int(rng.integers(1, 5))}),
        ]
        outer = MultiPoly(
            FieldCtx(5),
            3,
            {
                tuple(int(v) for v in rng.integers(0, 3, size=3)): int(rng.integers(1, 5))
                for _ in range(3)
            },
        )
        cases.append((h, outer))
    for polys, outer in cases:
        expanded = compose_poly(outer, polys)
        degree = expanded.degree()
        for exps, _ in outer.terms.items():
            assert sum(s * g.degree() for s, g in zip(exps, polys)) <= degree


def test_hyperplane_restriction_rank_drop():
    # for quadratics, restricting to x_i = 0 loses at most d + 1 = 3 rank
    from polystruct.ffpoly import restrict_hyperplane

    rng = np.random.default_rng(23)
    ctx = FieldCtx(5)
    checked = 0
    for _ in range(40):
        f = random_poly(rng, ctx, 4, 2, ensure_degree=2)
        r = quadratic_rank(f)
        restricted = restrict_hyperplane(f, 1, 0)
        if restricted.degree() < 2:
            continue
        r_restricted = quadratic_rank(restricted)
        if r_restricted is INFINITE_RANK or r is INFINITE_RANK:
            continue
        assert r_restricted >= r - 3
        checked += 1
    assert checked > 10


@st.composite
def small_factors(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 3))
    ctx = FieldCtx(p)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            e = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[e] = draw(st.integers(1, p - 1))
        polys.append(MultiPoly(ctx, n, terms))
    return PolynomialFactor(polys)


def _naive_biased_combination(factor, s):
    p = factor.p
    for a in monomials_upto(factor.c, factor.c * (p - 1), p):
        if any(a):
            cs = exact_bias(combine(factor, a))
            if cs.magnitude >= p ** (-s) - BIAS_TOL:
                return a, cs
    return None


@settings(max_examples=150, deadline=None)
@given(small_factors(), st.sampled_from([1, 2]))
@example(PolynomialFactor([parse_poly("x1", 5, n=2), parse_poly("x2", 5, n=2)]), 1)
@example(PolynomialFactor([parse_poly("x1*x2 + x3^2", 3), parse_poly("x1 + x2", 3, n=3)]), 2)
def test_find_biased_combination_matches_naive_graded_scan(factor, s):
    # the same first vector and a bit-for-bit equal CharacterSum, or None for both
    assert find_biased_combination(factor, s) == _naive_biased_combination(factor, s)


def test_find_biased_combination_across_scan_chunks():
    # p^n far above p^c: 3^9 points, 3^3 cells
    quad = parse_poly("x1*x2", 3, n=9)  # bias 1/3
    hit = PolynomialFactor([quad, parse_poly("x5", 3, n=9), parse_poly("x6", 3, n=9)])
    found = find_biased_combination(hit, 1)
    assert found is not None and found[0] == (1, 0, 0)
    assert found == _naive_biased_combination(hit, 1)
    wide = parse_poly("x3*x4 + x5*x6", 3, n=9)  # bias 1/9
    miss = PolynomialFactor([parse_poly("x1", 3, n=9), parse_poly("x2", 3, n=9), wide])
    assert find_biased_combination(miss, 1) is None
    assert _naive_biased_combination(miss, 1) is None


# -- the histogram FFT against the chunked A @ T scan it replaced -------------


_SCAN_CHUNK = 1 << 14  # entries of A @ T (and of the counts) held per scan chunk


def _chunked_scan(factor, s):
    """Every nonzero vector in graded order, by chunks of rows of A @ T mod p with
    per-row value counts: screened in floating point, decided by bias_from_counts."""
    p, c, n = factor.p, factor.c, factor.n
    size = p ** n
    threshold = p ** (-s) - BIAS_TOL
    dtype = np.int64 if c * (p - 1) ** 2 < 2**63 else object  # A @ T stays exact
    vectors = graded_points(p, c)[1:].astype(dtype)
    tables = _value_rows(factor.polys, size).astype(dtype, copy=False)
    phases = np.exp(2j * np.pi * np.arange(p) / p)
    rows = max(1, _SCAN_CHUNK // max(size, p))
    for start in range(0, len(vectors), rows):
        chunk = vectors[start:start + rows]
        vals = np.asarray(chunk @ tables % p, dtype=np.int64)
        offsets = p * np.arange(len(chunk), dtype=np.int64)[:, None]
        counts = np.bincount((vals + offsets).ravel(), minlength=len(chunk) * p)
        counts = counts.reshape(len(chunk), p)
        magnitudes = np.abs(counts @ phases) / size
        for i in np.flatnonzero(magnitudes >= threshold - BIAS_TOL):
            cs = bias_from_counts(range(p), counts[i], p, size)
            if cs.magnitude >= threshold:
                return tuple(chunk[i].tolist()), cs
    return None


@st.composite
def scan_factors(draw):
    """c = 1..5 polynomials over F_p, p <= 11, n <= 4 and p^(c + n) <= 3^10 unless c = 1,
    some of them repeats of earlier ones; every polynomial is a constant when n = 0."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(0, 4))
    c = draw(st.integers(1, max(k for k in range(1, 6) if k == 1 or p ** (k + n) <= 3**10)))
    ctx = FieldCtx(p)
    polys = []
    for _ in range(c):
        if polys and draw(st.integers(0, 3)) == 0:
            polys.append(draw(st.sampled_from(polys)))
            continue
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            terms[tuple(draw(st.integers(0, 3)) for _ in range(n))] = draw(st.integers(1, p - 1))
        polys.append(MultiPoly(ctx, n, terms))
    return PolynomialFactor(polys)


@settings(max_examples=200, deadline=None)
@given(scan_factors(), st.sampled_from([1, 2, 3]))
@example(PolynomialFactor([parse_poly("x1*x2", 3)]), 1)  # bias exactly p^-s = 1/3
@example(PolynomialFactor([parse_poly("x1*x2", 7)]), 1)  # 1/7, which the FFT rounds below 1/7
@example(PolynomialFactor([parse_poly("x1*x2 + x3*x4", 5)]), 2)  # bias exactly 1/25
@example(PolynomialFactor([parse_poly("2*x1", 5), parse_poly("x1", 5)]), 2)  # (2, 1) before (1, 3)
@example(PolynomialFactor([parse_poly("x1*x2", 3)] * 2), 1)  # 1/3 at (0, 1) before 1 at (1, 2)
@example(PolynomialFactor([parse_poly(t, 7, n=0) for t in ("2", "0", "2")]), 1)  # constants
@example(PolynomialFactor([parse_poly("x1^2 + x2", 11)] * 2 + [parse_poly("x2", 11, n=2)]), 3)
def test_histogram_scan_matches_the_chunked_scan(factor, s):
    # the same first vector and a bit-for-bit equal CharacterSum, or None for both
    assert find_biased_combination(factor, s) == _chunked_scan(factor, s)


# -- atoms and the plurality vote against per-point references ---------------


@st.composite
def vote_cases(draw):
    """(f, factor) over F_p^n.  When blind, the factor ignores x_n while f adds
    x_n or x_n^2, so each atom's votes split across values and ties are forced."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 3))
    blind = n > 0 and draw(st.booleans())

    def poly(used):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            e = tuple(draw(st.integers(0, 3)) if i < used else 0 for i in range(n))
            terms[e] = draw(st.integers(1, p - 1))
        return MultiPoly(FieldCtx(p), n, terms)

    factor = PolynomialFactor([poly(n - blind) for _ in range(draw(st.integers(0, 4)))])
    f = poly(n)
    if blind:
        f = poly(n - 1) + MultiPoly.variable(f.ctx, n, n) ** draw(st.sampled_from((1, 2)))
    return f, factor


def _oracle_atoms(factor, size):
    columns = [oracle.table_of(g).values for g in factor.polys]
    return list(zip(*columns)) if columns else [()] * size


def _assert_matches_oracle_plurality(f, factor):
    size = f.p ** f.n
    table, exact, agreement = measurable_table(f, factor)
    entries, hits, want_exact = oracle.oracle_plurality(
        _oracle_atoms(factor, size), oracle.table_of(f).values
    )
    assert list(table.entries.items()) == list(entries.items())  # first-occurrence order
    assert (table.arity, table.default) == (factor.c, 0)
    checked = LookupTable(f.p, factor.c, table.entries, table.default)  # the validating constructor
    assert (checked.entries, checked.default) == (table.entries, table.default)
    assert all(type(v) is int for key in table.entries for v in key)
    assert all(type(v) is int for v in table.entries.values())
    assert (exact, agreement) == (want_exact, hits / size)


@settings(max_examples=200, deadline=None)
@given(vote_cases())
@example((parse_poly("x2", 3, n=2), PolynomialFactor([parse_poly("x1", 3, n=2)])))
@example((parse_poly("x1", 5, n=1), PolynomialFactor([])))
def test_measurable_table_matches_oracle_plurality(case):
    _assert_matches_oracle_plurality(*case)


def test_measurable_table_over_a_forty_five_wide_factor_matches_oracle_plurality():
    # 3^45 atoms exceed any 63-bit code; the factor ignores x3, so votes tie
    rng = np.random.default_rng(45)
    ctx = FieldCtx(3)
    factor = PolynomialFactor([extend_variables(random_poly(rng, ctx, 2, 2), 3) for _ in range(45)])
    _assert_matches_oracle_plurality(parse_poly("x1*x3 + x2", 3), factor)


P61, P65 = 2**61 - 1, 2**64 + 13  # object-dtype values: (p-1)^2 and p pass int64


def test_measurable_table_at_n0_over_a_65_bit_field_matches_oracle_plurality():
    factor = PolynomialFactor([parse_poly("5", P65, n=0), parse_poly(str(P65 - 2), P65, n=0)])
    _assert_matches_oracle_plurality(parse_poly(str(P65 - 1), P65, n=0), factor)


def test_sampled_vote_over_a_61_bit_field_matches_oracle_plurality():
    # the Legendre symbol of x1 splits the samples into two atoms in which
    # every value of x1 + x2 differs: each atom's vote ties at one vote each
    f = parse_poly("x1 + x2", P61)
    polys = [parse_poly(f"x1^{(P61 - 1) // 2}", P61, n=2), parse_poly("3", P61, n=2)]
    table, err = decompose_mod._fit_table(f, polys, Caps(enum_cap=1), 200, np.random.default_rng(9))
    pts = np.random.default_rng(9).integers(0, P61, size=(200, 2))
    keys = [tuple(naive_value(g, x) for g in polys) for x in pts]
    entries, hits, exact = oracle.oracle_plurality(keys, [naive_value(f, x) for x in pts])
    assert list(table.entries.items()) == list(entries.items())
    assert (err, exact, len(entries)) == (1.0 - hits / 200, False, 2)


@st.composite
def refinement_cases(draw):
    """(fine, coarse): coarse is built from fine's polynomials, or drawn freely."""
    f, fine = draw(vote_cases())
    if fine.polys and draw(st.booleans()):
        picks = st.sampled_from(fine.polys)
        coarse = [draw(picks) * draw(picks) + draw(picks) for _ in range(draw(st.integers(0, 3)))]
    else:
        coarse = [f] * draw(st.integers(0, 2))
    return fine, PolynomialFactor(coarse)


@settings(max_examples=150, deadline=None)
@given(refinement_cases())
def test_semantic_refines_matches_a_per_point_loop(case):
    fine, coarse = case
    polys = fine.polys + coarse.polys
    size = polys[0].p ** polys[0].n if polys else 1
    seen, refines = {}, True
    for fa, ca in zip(_oracle_atoms(fine, size), _oracle_atoms(coarse, size)):
        refines = refines and seen.setdefault(fa, ca) == ca
    assert semantic_refines(fine, coarse) == refines


@settings(max_examples=150, deadline=None)
@given(vote_cases())
def test_exact_decomposition_error_matches_a_per_point_loop(case):
    f, factor = case
    # every other atom of the plurality table of f + f^2, the rest to the default
    fitted = measurable_table(f + f * f, factor)[0]
    gamma = LookupTable(f.p, factor.c, dict(list(fitted.entries.items())[::2]), default=1)
    dec = Decomposition(list(factor.polys), gamma, None, 0.0, False)
    values = oracle.table_of(f).values
    atoms = _oracle_atoms(factor, len(values))
    misses = sum(1 for atom, v in zip(atoms, values) if gamma(atom) != v)
    assert decomposition_error(f, dec) == misses / len(values)


# -- affine dependencies against a greedy per-vector span --------------------


def _greedy_span_reduce(polys, pinned):
    """Keep each polynomial whose nonconstant coefficient vector is independent
    of the ones kept before it, reducing it against an echelon basis grown one
    vector at a time."""
    p = polys[0].p
    monomials = sorted({e for g in polys for e in g.terms if any(e)})
    rows, pivots, kept = [], [], []
    for i, g in enumerate(polys):
        vec = [g.terms.get(e, 0) for e in monomials]
        v = list(vec)
        for row, c in zip(rows, pivots):
            if v[c]:
                v = [(a - v[c] * b) % p for a, b in zip(v, row)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            if i < pinned:
                raise PartialResultError(
                    "pinned polynomial depends on earlier pinned ones" if any(vec) else
                    "pinned polynomial is constant; cannot regularize without replacing it"
                )
            continue
        inv = pow(v[c], p - 2, p)
        rows.append([x * inv % p for x in v])
        pivots.append(c)
        kept.append(g)
    return kept


def _outcome(reduce, polys, pinned):
    try:
        return reduce(polys, pinned)
    except PartialResultError as exc:
        return str(exc)


@st.composite
def dependency_cases(draw):
    """Polynomials that are fresh, constant, or affine combinations of earlier ones."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    ctx = FieldCtx(p)
    mons = monomials_upto(n, 2, p)
    polys = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "constant", "combination"]))
        const = MultiPoly.constant(ctx, n, draw(st.integers(0, p - 1)))
        if kind == "fresh" or not polys:
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons)))
            polys.append(MultiPoly(ctx, n, dict(zip(mons, coeffs))))
        elif kind == "constant":
            polys.append(const)
        else:
            g = const
            for h in polys:
                g = g + h * draw(st.integers(0, p - 1))
            polys.append(g)
    return polys, draw(st.integers(0, len(polys)))


def _polys(texts, p, n):
    return [parse_poly(t, p, n=n) for t in texts.split(";")]


@settings(max_examples=200, deadline=None)
@given(dependency_cases())
@example((_polys("x1;2;x2", 3, 2), 2))  # a pinned constant
@example((_polys("x1;2*x1 + 1;x2", 3, 2), 2))  # a pinned dependent polynomial
@example((_polys("1;2;0", 3, 2), 0))  # constants only
def test_dependency_reduce_matches_a_greedy_span(case):
    polys, pinned = case
    want = _outcome(_greedy_span_reduce, polys, pinned)
    assert _outcome(_dependency_reduce, polys, pinned) == want


def test_dependency_reduce_examples():
    with pytest.raises(PartialResultError, match="^pinned polynomial is constant; cannot "
                       "regularize without replacing it$"):
        _dependency_reduce(_polys("x1;2;x2", 3, 2), 2)
    with pytest.raises(PartialResultError,
                       match="^pinned polynomial depends on earlier pinned ones$"):
        _dependency_reduce(_polys("x1;2*x1 + 1;x2", 3, 2), 2)
    assert _dependency_reduce(_polys("1;2;0", 3, 2), 0) == []
    polys = _polys("x1;2*x1 + 1;x2;x1 + x2;x1*x2", 5, 2)
    assert _dependency_reduce(polys, 1) == [polys[0], polys[2], polys[4]]
    assert _dependency_reduce(polys[:1], 1) == polys[:1]


def test_regularize_over_the_search_cap_names_the_cap():
    independent = PolynomialFactor(_polys("x1;x2;x1*x2", 3, 2))
    config = RegularizeConfig(DecomposeConfig(caps=Caps(search_cap=9)))
    with pytest.raises(CapExceeded, match=r"^search_cap: 27 exceeds limit 9$"):
        regularize(independent, 1, config)


# -- regularization against oracle tables ------------------------------------


@st.composite
def planted_factors(draw):
    """(polys, search_cap, s): fresh polynomials of degree <= 1 or <= 2 with
    planted duplicates, constants and affine combinations of earlier ones.
    The cap p^j may sit below the input's p^c, below its independent part's,
    or above both."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    ctx = FieldCtx(p)
    mons = monomials_upto(n, draw(st.integers(1, 2)), p)
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "constant", "combination"]))
        if kind == "fresh" or not polys:
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons)))
            polys.append(MultiPoly(ctx, n, dict(zip(mons, coeffs))))
        elif kind == "duplicate":
            polys.append(draw(st.sampled_from(polys)))
        elif kind == "constant":
            polys.append(MultiPoly.constant(ctx, n, draw(st.integers(0, p - 1))))
        else:
            g = MultiPoly.constant(ctx, n, draw(st.integers(0, p - 1)))
            for h in polys:
                g = g + h * draw(st.integers(0, p - 1))
            polys.append(g)
    return polys, p ** draw(st.integers(0, len(polys) + 2)), draw(st.sampled_from([1, 2]))


@settings(max_examples=150, deadline=None)
@given(planted_factors())
@example((_polys("x1;x1 + 1;x2", 3, 2), 9, 1))  # 3^3 over the cap, 3^2 independent
@example((_polys("x1;x1 + 1;x2", 3, 2), 3, 1))  # the independent part is over the cap too
@example((_polys("x1*x2;2*x1*x2 + 1;x1", 3, 2), 10**5, 1))
@example((_polys("1;x1;2", 5, 1), 5, 1))
def test_regularize_leaves_an_independent_regular_refinement(case):
    polys, cap, s = case
    p, caps = polys[0].p, Caps(search_cap=cap)
    coarse = PolynomialFactor(polys)
    independent = _greedy_span_reduce(polys, 0)
    linear = all(g.degree() <= 1 for g in polys)
    try:
        out = regularize(coarse, s, RegularizeConfig(DecomposeConfig(caps=caps)))
    except CapExceeded:
        # the first reduction leaves the independent part; only a decomposed
        # quadratic can grow the factor past the cap after that
        assert p ** len(independent) > cap or not linear
        return
    assert p ** len(independent) <= cap
    assert p ** out.c <= cap
    # every atom of the result meets a single atom of the input, on oracle tables
    size = p ** polys[0].n
    seen = {}
    for fine, atom in zip(_oracle_atoms(out, size), _oracle_atoms(coarse, size)):
        assert seen.setdefault(fine, atom) == atom
    assert find_biased_combination(out, s, caps) is None
    assert _dependency_reduce(list(out.polys), 0) == list(out.polys)
    if linear:  # a nonconstant affine combination has bias 0: nothing is decomposed
        assert list(out.polys) == independent
