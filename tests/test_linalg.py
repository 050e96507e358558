"""The numpy elimination in polystruct.linalg against the list-of-lists one it
replaced, and quadratic_rank's Hessian against the symmetric matrix it replaced."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from polystruct import linalg
from polystruct.decompose import INFINITE_RANK, quadratic_rank
from polystruct.ffpoly import FieldCtx, MultiPoly, monomials_upto

# small primes, int64 limits on each side of (p - 1)^2 < 2^63, and a prime above 2^64
PRIMES = (2, 3, 5, 7, 2**31 - 1, 3037000493, 2**61 - 1, 2**64 + 13)


def naive_rref(rows, p):
    """Reduced row-echelon form by one list comprehension per row update; the
    pivot of a column is its first nonzero entry at or below the current row."""
    a = [[v % p for v in row] for row in rows]
    if not a:
        return a, []
    m, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                fac = a[i][c]
                a[i] = [(vi - fac * vr) % p for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def naive_solve(rows, rhs, p):
    """One solution with free variables 0, or None; no rows gives None."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = naive_rref([row + [b] for row, b in zip(rows, rhs)], p)
    for row in red:
        if all(v == 0 for v in row[:ncols]) and row[ncols] % p:
            return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _as_array(rows, p, ncols):
    return np.array(rows, dtype=np.int64 if p < 2**63 else object).reshape(len(rows), ncols)


@st.composite
def systems(draw):
    """(p, rows, rhs): up to 6 x 6, rich in zeros, repeated rows and rows off by a
    multiple; rhs is A x0 for a drawn x0 (consistent) or drawn freely."""
    p = draw(st.sampled_from(PRIMES))
    m, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1, p - 1]), st.integers(-(p - 1), p - 1))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:  # a multiple of an earlier row
            k, j = draw(entry), draw(st.integers(0, i - 1))
            rows[i] = [k * v % p for v in rows[j]]
    if draw(st.booleans()):
        x0 = [draw(entry) for _ in range(ncols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) % p for row in rows]
    else:
        rhs = [draw(entry) for _ in range(m)]
    return p, rows, rhs


EDGES = [
    (5, [], []),                                        # no rows
    (5, [[], [], []], [0, 0, 0]),                       # no columns, consistent
    (2**64 + 13, [[], []], [0, 1]),                     # no columns, inconsistent
    (7, [[0, 0, 0], [0, 0, 0]], [0, 0]),                # all zero
    (2**61 - 1, [[0, 0], [0, 0]], [0, 5]),              # all zero, inconsistent
    (3, [[1, 2], [2, 1], [1, 1], [0, 1], [2, 2], [1, 0]], [1, 2, 0, 1, 1, 0]),  # tall
    (3037000493, [[3037000492] * 6, [1, 0, 2, 0, 3, 0]], [1, 2]),              # wide
    (2, [[1, 1], [1, 1]], [0, 1]),                      # inconsistent, rank 1
]


def _with_edges(test):
    for case in EDGES:
        for as_array in (False, True):
            test = example(case, as_array)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(systems(), st.booleans())
@_with_edges
def test_rref_rank_and_solve_match_the_list_elimination(case, as_array):
    p, rows, rhs = case
    ncols = len(rows[0]) if rows else 0
    given_rows = _as_array(rows, p, ncols) if as_array else rows
    red, pivots = linalg.rref(given_rows, p)
    want_red, want_pivots = naive_rref(rows, p)
    assert pivots == want_pivots
    assert red.dtype == (np.int64 if (p - 1) ** 2 < 2**63 else object)
    if rows:
        assert red.tolist() == want_red
    else:
        assert red.size == 0  # [] reads as one empty row, an array as (0, ncols)
    assert linalg.rank(given_rows, p) == len(want_pivots)

    x = linalg.solve(given_rows, rhs, p)
    assert x == naive_solve(rows, rhs, p)
    if x is not None:
        assert all(type(v) is int for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) % p == b % p for row, b in zip(rows, rhs))


def symmetric_quadratic_rank(f):
    """ceil(m / 2) for the rank m of the symmetric matrix with x^T M x the quadratic
    part: c on the diagonal for c x_i^2, c / 2 at (i, j) and (j, i) for c x_i x_j."""
    p, n = f.p, f.n
    quad = {e: c for e, c in f.terms.items() if sum(e) == 2}
    if not quad:
        return 0 if f.is_constant() else INFINITE_RANK
    inv2 = pow(2, p - 2, p)
    mat = [[0] * n for _ in range(n)]
    for e, c in quad.items():
        support = [i for i, v in enumerate(e) if v]
        if len(support) == 1:
            i = support[0]
            mat[i][i] = (mat[i][i] + c) % p
        else:
            i, j = support
            mat[i][j] = (mat[i][j] + c * inv2) % p
            mat[j][i] = (mat[j][i] + c * inv2) % p
    return (len(naive_rref(mat, p)[1]) + 1) // 2


@st.composite
def quadratics(draw):
    p = draw(st.sampled_from((3, 5, 7, 2**61 - 1, 2**64 + 13)))
    n = draw(st.integers(1, 5))
    top = draw(st.integers(0, 2))  # constant, affine and quadratic inputs
    coeff = st.one_of(st.just(0), st.sampled_from([1, p - 1, (p + 1) // 2]),
                      st.integers(1, p - 1))
    terms = {e: draw(coeff) for e in monomials_upto(n, top, p)}
    return MultiPoly(FieldCtx(p), n, terms)


@settings(max_examples=200, deadline=None)
@given(quadratics())
@example(MultiPoly(FieldCtx(5), 3, {(0, 0, 0): 4}))
@example(MultiPoly(FieldCtx(2**64 + 13), 2, {}))
@example(MultiPoly(FieldCtx(7), 2, {(1, 0): 3, (0, 0): 1}))
@example(MultiPoly(FieldCtx(2**64 + 13), 4, {(1, 1, 0, 0): 1, (0, 0, 2, 0): 2**64}))
def test_quadratic_rank_matches_the_symmetric_matrix(f):
    want = symmetric_quadratic_rank(f)
    assert quadratic_rank(f) == want
    if f.is_constant():
        assert want == 0
    elif f.degree() == 1:
        assert want == INFINITE_RANK

