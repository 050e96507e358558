"""Certificate search, weak form, and radical membership."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polystruct import linalg, nullstellensatz, oracle
from polystruct.config import Caps
from polystruct.errors import CapExceeded, PolystructError
from polystruct.ffpoly import (
    FieldCtx,
    MultiPoly,
    extend_variables,
    functional_reduce,
    monomials_upto,
    parse_poly,
    points_lex,
)
from polystruct.nullstellensatz import (
    IdealSpec,
    RadicalReport,
    _system,
    find_certificate,
    radical_membership,
    vanishes_on_variety,
    weak_certificate,
)
from util import random_poly


def test_monomials_upto_respects_field_and_order():
    mons = monomials_upto(2, 3, 3)
    assert all(sum(e) <= 3 and max(e) <= 2 for e in mons)
    assert mons == sorted(mons, key=lambda e: (sum(e), e))


def test_find_certificate_linear_identity():
    spec = IdealSpec(
        [parse_poly("x1", 5, n=2), parse_poly("x2", 5, n=2)], parse_poly("x1+x2", 5)
    )
    cert = find_certificate(spec, d_max=2, r_max=2)
    assert (cert.r, cert.degree_cap) == (1, 0)
    assert [str(c) for c in cert.cofactors] == ["1", "1"]
    assert cert.verify(spec)


def test_find_certificate_weak_form_difference():
    spec = IdealSpec(
        [parse_poly("x1", 3, n=1), parse_poly("x1+1", 3)], parse_poly("1", 3, n=1)
    )
    cert = find_certificate(spec, d_max=1, r_max=1)
    assert (cert.r, cert.degree_cap) == (1, 0)
    assert [str(c) for c in cert.cofactors] == ["2", "1"]


def test_find_certificate_needs_square():
    spec = IdealSpec([parse_poly("x1^2", 5, n=1)], parse_poly("x1", 5, n=1))
    cert = find_certificate(spec, d_max=2, r_max=2)
    assert (cert.r, cert.degree_cap) == (2, 0)
    assert [str(c) for c in cert.cofactors] == ["1"]
    # with a larger degree cap the functional identity x1 = x1^3 * x1^2 wins at r = 1
    cert2 = find_certificate(spec, d_max=3, r_max=2)
    assert cert2.r == 1 and cert2.verify(spec)


def test_weak_certificate_examples():
    assert weak_certificate([parse_poly("x1", 3, n=1)], d_max=3) is None

    cert = weak_certificate(
        [parse_poly("x1*x2", 3), parse_poly("x1*x2+2", 3)], d_max=1
    )
    assert cert.degree_cap == 0
    assert [str(c) for c in cert.cofactors] == ["1", "2"]


def test_certificate_search_is_deterministic_and_monotone():
    spec = IdealSpec([parse_poly("x1^2", 5, n=1)], parse_poly("x1", 5, n=1))
    first = find_certificate(spec, d_max=2, r_max=2)
    second = find_certificate(spec, d_max=2, r_max=2)
    assert first == second
    # enlarging the caps keeps the same minimal cell
    third = find_certificate(spec, d_max=2, r_max=3)
    assert (third.r, third.degree_cap) == (first.r, first.degree_cap)


def test_unknowns_cap():
    spec = IdealSpec([parse_poly("x1", 3, n=2)], parse_poly("x1", 3, n=2))
    with pytest.raises(CapExceeded):
        find_certificate(spec, d_max=2, r_max=1, caps=Caps(unknowns_cap=2))


def test_certificates_reverify_functionally_and_pointwise():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(40):
        p = int(rng.choice([3, 5]))
        ctx = FieldCtx(p)
        n = int(rng.integers(1, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        if all(g.is_zero() for g in gens):
            continue
        coeffs = [int(rng.integers(0, p)) for _ in gens]
        q = MultiPoly.zero(ctx, n)
        for c, g in zip(coeffs, gens):
            q = q + g * c
        q = functional_reduce(q)
        spec = IdealSpec(gens, q)
        cert = find_certificate(spec, d_max=2, r_max=2)
        if cert is None:
            continue
        found += 1
        lhs = functional_reduce(spec.query ** cert.r)
        rhs = MultiPoly.zero(ctx, n)
        for cof, gen in zip(cert.cofactors, gens):
            rhs = rhs + cof * gen
        assert functional_reduce(lhs - rhs).is_zero()
        for x in points_lex(p, n):
            assert lhs.eval(x) == rhs.eval(x) % p
        # soundness: the oracle agrees that q vanishes on the variety
        assert vanishes_on_variety(spec)
    assert found >= 20


def test_radical_membership_examples():
    spec = IdealSpec([parse_poly("x1^2", 5, n=1)], parse_poly("x1", 5, n=1))
    report = radical_membership(spec, d_max=2)
    assert report.member and report.certificate is not None
    assert report.oracle_agrees

    spec2 = IdealSpec([parse_poly("x1", 3, n=2)], parse_poly("x2", 3, n=2))
    report2 = radical_membership(spec2, d_max=2)
    assert not report2.member and report2.oracle_agrees

    gen = parse_poly("x1^2 - x1", 5, n=1)
    report3 = radical_membership(IdealSpec([gen], gen), d_max=2)
    assert report3.member and report3.certificate.r == 1 and report3.route == "direct"


def test_radical_rabinowitsch_route():
    # x1*x2 is in sqrt(<x1>) only via the extended system when the direct
    # search is capped at degree 0
    spec = IdealSpec([parse_poly("x1^2", 3, n=1)], parse_poly("x1", 3, n=1))
    report = radical_membership(spec, d_max=2, direct_r_max=1)
    assert report.member
    assert report.route in ("direct", "rabinowitsch")
    assert report.oracle_agrees


def test_radical_agreement_on_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(60):
        p = int(rng.choice([3, 5]))
        ctx = FieldCtx(p)
        n = int(rng.integers(1, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        q = random_poly(rng, ctx, n, 2)
        report = radical_membership(IdealSpec(gens, q), d_max=2)
        assert report.oracle_agrees


def test_vanishing_matches_a_pointwise_scan():
    rng = np.random.default_rng(53)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        ctx = FieldCtx(p)
        n = int(rng.integers(0, 3))
        gens = [random_poly(rng, ctx, n, 2) for _ in range(int(rng.integers(1, 3)))]
        q = random_poly(rng, ctx, n, 2)
        tables = [g.eval_table() for g in gens]
        want = all(
            q.eval(x) == 0
            for i, x in enumerate(points_lex(p, n))
            if all(t[i] == 0 for t in tables)
        )
        assert vanishes_on_variety(IdealSpec(gens, q)) is want
    big = 2**64 + 13  # a prime above the int64 range: object-dtype tables
    one = parse_poly(str(big - 1), big, n=0)
    zero = parse_poly("0", big, n=0)
    assert vanishes_on_variety(IdealSpec([one], one)) is True
    assert vanishes_on_variety(IdealSpec([zero], one)) is False


# -- one system per r against the per-cell search ------------------------------


def _per_cell_certificate(spec, d_max, r_max):
    """The (r, D) cell loop: r ascending, then D ascending, with the unknowns
    generator-major and one solve per cell.  Returns (r, D) or None."""
    ctx, n, p = spec.query.ctx, spec.query.n, spec.query.p
    mons = monomials_upto(n, d_max, p)
    c = len(spec.generators)
    columns = [
        [functional_reduce(MultiPoly(ctx, n, {m: 1}) * gen) for m in mons]
        for gen in spec.generators
    ]
    target = functional_reduce(spec.query)
    power = target
    for r in range(1, r_max + 1):
        if r > 1:
            power = functional_reduce(power * target)
        for degree in range(d_max + 1):
            m_count = sum(1 for m in mons if sum(m) <= degree)
            active = [columns[i][j] for i in range(c) for j in range(m_count)]
            support = sorted({e for col in active for e in col.terms} | set(power.terms))
            row_of = {e: i for i, e in enumerate(support)}
            matrix = [[0] * len(active) for _ in support]
            for u, col in enumerate(active):
                for e, coeff in col.terms.items():
                    matrix[row_of[e]][u] = coeff
            rhs = [power.terms.get(e, 0) for e in support]
            # an empty system (all columns and Q^r zero) is solved by zero cofactors
            if not support or linalg.solve(matrix, rhs, p) is not None:
                return r, degree
    return None


@st.composite
def certificate_cases(draw):
    """1-3 generators of degree <= 2 and a query that is random, in the ideal,
    or a root of the first generator's square factor."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    ctx = FieldCtx(p)

    def poly(degree):
        mons = monomials_upto(n, degree, p)
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons)))
        return MultiPoly(ctx, n, dict(zip(mons, coeffs)))

    gens = [poly(2) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["random", "ideal", "power"]))
    if kind == "random":
        q = poly(2)
    elif kind == "ideal":
        q = MultiPoly.zero(ctx, n)
        for g in gens:
            q = q + poly(1) * g
    else:
        q = poly(1)
        gens[0] = q * q * poly(1)
    return IdealSpec(gens, q), draw(st.integers(0, 3)), draw(st.integers(1, 3))


def _spec(texts, q, p, n):
    return IdealSpec([parse_poly(t, p, n=n) for t in texts.split(";")], parse_poly(q, p, n=n))


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
@example((_spec("x1^2 + x2;x1*x2", "0", 3, 2), 2, 2))  # Q = 0: zero cofactors at D = 0
@example((_spec("x1;x1 + 1", "1", 3, 1), 1, 1))  # Q = 1: the weak form
@example((_spec("x1^2 + 2*x2;x1*x2 + x1", "x1*x2^2 + x1", 5, 2), 3, 1))  # only at D = d_max
@example((_spec("0", "0", 3, 1), 1, 1))  # no rows at all: the zero certificate
def test_find_certificate_matches_the_per_cell_search(case):
    spec, d_max, r_max = case
    with mock.patch.object(linalg, "solve", wraps=linalg.solve) as solve:
        cert = find_certificate(spec, d_max, r_max)
    assert solve.call_count <= r_max
    want = _per_cell_certificate(spec, d_max, r_max)
    assert (cert is None) == (want is None)
    if cert is None:
        return
    assert (cert.r, cert.degree_cap) == want
    assert max((g.degree() for g in cert.cofactors), default=0) <= cert.degree_cap
    p = spec.query.p
    lhs = oracle.table_of(spec.query ** cert.r).values
    rhs = [0] * len(lhs)
    for cof, gen in zip(cert.cofactors, spec.generators):
        rhs = [(a + b * c) % p for a, b, c in
               zip(rhs, oracle.table_of(cof).values, oracle.table_of(gen).values)]
    assert list(lhs) == rhs


# -- non-members decided by the oracle, against the always-search body --------


def _always_search_radical(spec, d_max, caps, direct_r_max):
    """radical_membership with both searches run whatever the oracle says."""
    member = vanishes_on_variety(spec, caps)
    cert = find_certificate(spec, d_max, r_max=direct_r_max, caps=caps)
    route = "direct"
    if cert is None:
        n = spec.query.n
        extended = [extend_variables(g, n + 1) for g in spec.generators]
        y = MultiPoly.variable(spec.query.ctx, n + 1, n + 1)
        extended.append(
            MultiPoly.constant(spec.query.ctx, n + 1, 1) - y * extend_variables(spec.query, n + 1)
        )
        cert = weak_certificate(extended, d_max, caps)
        route = "rabinowitsch" if cert is not None else "oracle-only"
    agrees = cert is None or member
    return RadicalReport(member=member, certificate=cert, oracle_agrees=agrees, route=route)


def _outcome(decide, *args):
    try:
        return decide(*args)
    except PolystructError as exc:
        return type(exc), str(exc)


@st.composite
def radical_cases(draw):
    """A certificate case's spec (members and non-members) with d_max in
    -1..3, direct_r_max in 0..2, and unknowns and enumeration caps that pass
    or stop the n- or the (n + 1)-variable charge or the enumeration."""
    spec = draw(certificate_cases())[0]
    caps = Caps(
        unknowns_cap=draw(st.sampled_from([Caps.unknowns_cap, Caps.unknowns_cap, 40, 12, 8, 3])),
        enum_cap=draw(st.sampled_from([Caps.enum_cap, Caps.enum_cap, 25, 9, 4])),
    )
    d_max = draw(st.sampled_from([3, 2, 2, 1, 0, -1]))
    return spec, d_max, caps, draw(st.sampled_from([2, 2, 1, 0]))


@settings(max_examples=300, deadline=None)
@given(radical_cases())
@example((_spec("x1", "x2", 3, 2), 2, Caps(unknowns_cap=8), 2))  # 6 unknowns pass, 10 do not
@example((_spec("x1", "x2", 3, 2), -1, Caps(unknowns_cap=1), 2))  # InputError before the caps
@example((_spec("x1", "x2", 3, 2), 2, Caps(enum_cap=8), 2))  # enum_cap first
@example((_spec("0", "0", 3, 1), 1, Caps(), 2))  # the zero certificate, route direct
def test_radical_membership_matches_the_always_search_body(case):
    spec, d_max, caps, direct_r_max = case
    with mock.patch.object(linalg, "solve", wraps=linalg.solve) as solve:
        got = _outcome(radical_membership, spec, d_max, caps, direct_r_max)
    assert got == _outcome(_always_search_radical, spec, d_max, caps, direct_r_max)
    if not vanishes_on_variety(spec):  # a non-member: no solve, whatever is raised
        assert solve.call_count == 0


@settings(max_examples=150, deadline=None)
@given(radical_cases())
@example((_spec("x1^2", "x1", 5, 1), 2, Caps(), 1))  # a member by the Rabinowitsch route
@example((_spec("x1^2", "x1", 5, 1), 1, Caps(), 1))  # a member with no certificate found
@example((_spec("x1", "x2", 3, 2), 2, Caps(), 2))  # a non-member
def test_radical_membership_enumerates_the_variety_once(case):
    spec, d_max, caps, direct_r_max = case
    with mock.patch.object(nullstellensatz, "vanishes_on_variety",
                           wraps=vanishes_on_variety) as screen:
        _outcome(radical_membership, spec, d_max, caps, direct_r_max)
    assert screen.call_count == 1


# -- the array-built system against the MultiPoly column loop -----------------


def _column_loop_system(generators, mons):
    """(support, matrix) from one reduced MultiPoly per (monomial, generator) column."""
    ctx, n = generators[0].ctx, generators[0].n
    columns = [
        functional_reduce(MultiPoly(ctx, n, {m: 1}) * gen)
        for m in mons for gen in generators
    ]
    support = sorted({e for col in columns for e in col.terms})
    row_of = {e: i for i, e in enumerate(support)}
    matrix = [[0] * len(columns) for _ in support]
    for u, col in enumerate(columns):
        for e, coeff in col.terms.items():
            matrix[row_of[e]][u] = coeff
    return support, matrix


BIG_PRIMES = [2**31 - 1, 2**61 - 1, 2**64 + 13]


@st.composite
def system_cases(draw):
    """1-3 generators over small and huge p, n = 0..3, with exponents up to 2p, at p - 1
    and p, and 10^30, zero and constant generators, and d_max in 0..3."""
    p = draw(st.sampled_from([2, 3, 5, 7, *BIG_PRIMES]))
    n = draw(st.integers(0, 3))
    ctx = FieldCtx(p)
    exponent = st.one_of(st.integers(0, 2 * p), st.sampled_from([p - 1, p, 10**30]))
    term = st.tuples(st.tuples(*[exponent] * n), st.integers(0, p - 1))

    def gen():
        kind = draw(st.sampled_from(["terms", "terms", "terms", "zero", "constant"]))
        if kind == "zero":
            return MultiPoly.zero(ctx, n)
        if kind == "constant":
            return MultiPoly.constant(ctx, n, draw(st.integers(1, p - 1)))
        return MultiPoly(ctx, n, dict(draw(st.lists(term, min_size=1, max_size=4))))

    return [gen() for _ in range(draw(st.integers(1, 3)))], draw(st.integers(0, 3))


def _gens(texts, p, n):
    return [parse_poly(t, p, n=n) for t in texts.split(";")]


@settings(max_examples=300, deadline=None)
@given(system_cases())
@example((_gens("x1^2 + 2", 3, 1), 1))  # x1 * (x1^2 + 2) = 0: the row of x1 cancels
@example((_gens("x1^3 + 2*x1 + x2;1", 3, 2), 0))  # a generator that reduces to x2
@example((_gens("0", 5, 2), 2))  # no rows at all
@example((_gens("2;0", 7, 0), 0))  # no variables
@example(([MultiPoly(FieldCtx(2**64 + 13), 2, {(10**30, 2**64 + 12): 3})], 1))
def test_array_system_matches_the_column_loop(case):
    gens, d_max = case
    p, n = gens[0].p, gens[0].n
    mons = monomials_upto(n, d_max, p)
    support, matrix = _system(gens, mons, p, n)
    assert (support, matrix.tolist()) == _column_loop_system(gens, mons)
    assert all(type(v) is int for e in support for v in e)


@pytest.mark.parametrize("spec", [
    IdealSpec([MultiPoly(FieldCtx(2**64 + 13), 1, {(10**30,): 1})],
              MultiPoly(FieldCtx(2**64 + 13), 1, {(1,): 1, (0,): 1})),
    IdealSpec([MultiPoly(FieldCtx(2**64 + 13), 2, {(2**64 + 12, 0): 1, (0, 10**30): 5}),
               MultiPoly(FieldCtx(2**64 + 13), 2, {(0, 1): 1})],
              MultiPoly.constant(FieldCtx(2**64 + 13), 2, 1)),
])
def test_huge_field_searches_find_nothing_without_overflow(spec):
    # p - 1 > 2^63: the exponents and coefficients are exact object ints
    for d_max in (0, 1, 2):
        assert find_certificate(spec, d_max, r_max=2) is None


# -- the screen: no search where Q is nonzero at a common zero ------------------


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
@example((_spec("x1", "x2", 3, 2), 2, 2))  # Q = x2 is 1 at the common zero (0, 1)
@example((_spec("x1^2 + 2", "1", 3, 1), 3, 1))  # the weak form with common zeros 1 and 2
def test_the_screen_returns_what_the_unscreened_search_returns(case):
    spec, d_max, r_max = case
    p, n = spec.query.p, spec.query.n
    with mock.patch.object(linalg, "solve", wraps=linalg.solve) as solve, \
            mock.patch.object(nullstellensatz, "_system", wraps=_system) as system:
        screened = find_certificate(spec, d_max, r_max)
    if not vanishes_on_variety(spec):  # no system is built and nothing is solved
        assert screened is None and solve.call_count == system.call_count == 0
    # p^n above enum_cap: no screen and no CapExceeded, the search runs
    with mock.patch.object(nullstellensatz, "_system", wraps=_system) as system, \
            mock.patch.object(nullstellensatz, "vanishes_on_variety",
                              wraps=vanishes_on_variety) as screen:
        unscreened = find_certificate(spec, d_max, r_max, Caps(enum_cap=p**n - 1))
    assert screen.call_count == 0 and system.call_count == 1
    assert unscreened == screened
