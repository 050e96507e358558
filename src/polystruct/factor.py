"""Polynomial factors: atoms, equidistribution, bias-threshold regularization.

Regularity is certified by a bias threshold: a factor is regular at level s
when every nonzero linear combination of its polynomials has |bias| below
p^-s.  Each round of the regularization loop first drops constants and
affinely dependent polynomials, then finds a combination at or above the
threshold, decomposes it into lower-degree polynomials, and replaces the
highest-degree participant, so the degree multiset strictly decreases.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .bias import BIAS_TOL, CharacterSum, bias_from_counts
from .config import Caps, DEFAULT_CAPS, RegularizeConfig
from .errors import (
    InputError,
    PartialResultError,
    PreconditionError,
)
from .ffpoly import LookupTable, MultiPoly, _value_rows, cube_corners, sample_points

_MAX_ITERATIONS = 64  # regularization budget


@dataclass(frozen=True)
class PolynomialFactor:
    """An ordered tuple of polynomials partitioning F_p^n into atoms."""

    polys: tuple[MultiPoly, ...]
    regularity_s: int = 0
    pinned_prefix: int = 0

    def __init__(self, polys, regularity_s: int = 0, pinned_prefix: int = 0):
        polys = tuple(polys)
        if polys:
            p, n = polys[0].p, polys[0].n
            if any(g.p != p or g.n != n for g in polys):
                raise InputError("factor polynomials must share field and variable count")
        if not 0 <= pinned_prefix <= len(polys):
            raise InputError("pinned prefix out of range")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "regularity_s", regularity_s)
        object.__setattr__(self, "pinned_prefix", pinned_prefix)

    @property
    def c(self) -> int:
        return len(self.polys)

    @property
    def p(self) -> int:
        if not self.polys:
            raise InputError("empty factor has no field")
        return self.polys[0].p

    @property
    def n(self) -> int:
        if not self.polys:
            raise InputError("empty factor has no ambient dimension")
        return self.polys[0].n

    def degree(self) -> int:
        return max((g.degree() for g in self.polys), default=0)


def atom_ids(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of a (c, m) array of stacked value rows, one column per point.

    Returns keys, the distinct columns as the rows of a (k, c) array in
    first-occurrence order, and ids, each point's row index into keys; c = 0
    gives one empty atom.  One stable lexsort puts equal columns in runs, so
    any width and dtype work and no atom is encoded as a single integer.
    """
    c, m = tables.shape
    # sort a copy in the narrowest dtype that holds the values: numpy radix-sorts 8- and 16-bit keys
    narrow = tables.astype(np.min_scalar_type(tables.max())) if tables.size else tables
    order = np.lexsort(narrow) if c else np.arange(m)
    ordered = narrow[:, order]
    starts = np.ones(m, dtype=bool)  # the first point of each run of equal atoms
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    firsts = order[starts]  # stable: the first occurrence of each run's atom
    rank = np.argsort(np.argsort(firsts))  # runs renumbered by first occurrence
    ids = np.empty(m, dtype=np.intp)
    ids[order] = rank[np.cumsum(starts) - 1]
    return tables[:, np.sort(firsts)].T, ids


def combine(factor: PolynomialFactor, coeffs) -> MultiPoly:
    """The linear combination sum_i coeffs_i * h_i."""
    if len(coeffs) != factor.c:
        raise InputError("coefficient vector length mismatch")
    result = MultiPoly.zero(factor.polys[0].ctx, factor.n)
    for a, g in zip(coeffs, factor.polys):
        if a % factor.p:
            result = result + g * int(a)
    return result


def atom_histogram(
    factor: PolynomialFactor,
    caps: Caps = DEFAULT_CAPS,
    samples: int | None = None,
    seed: int = 0,
) -> dict[tuple[int, ...], int]:
    """Counts per nonempty atom; exhaustive unless a sample budget is given."""
    if not factor.polys:
        raise InputError("empty factor has no ambient dimension to enumerate")
    p, n = factor.p, factor.n
    if samples is None:
        caps.require("enum_cap", p ** n)
        tables = _value_rows(factor.polys, p ** n)
    elif samples < 1:
        raise InputError("samples must be >= 1")
    else:
        pts = sample_points(np.random.default_rng(seed), p, n, samples)
        tables = _value_rows(factor.polys, samples, pts)
    keys, ids = atom_ids(tables)
    return dict(zip(map(tuple, keys.tolist()), np.bincount(ids).tolist()))


def find_biased_combination(
    factor: PolynomialFactor, s: int, caps: Caps = DEFAULT_CAPS
) -> tuple[tuple[int, ...], CharacterSum] | None:
    """First coefficient vector (graded order) whose combination reaches p^-s.

    Returns None when every nonzero combination stays below the threshold,
    in which case the factor may be stamped regular at level s.  The biases
    are the Fourier coefficients of the atom histogram: sum_x e(a.T(x)/p) =
    sum_t N_t e(a.t/p), N_t the points in atom t of F_p^c.  One FFT of the p^c
    cells screens every a, the 1e-9 slack covering its rounding of about
    1e-15 * log(p^c); survivors are decided in graded order by bias_from_counts
    on the exact counts sum_t N_t over a.t = v, so hits are exact.
    """
    if not factor.polys:
        return None
    p, c, n = factor.p, factor.c, factor.n
    caps.require("search_cap", p ** c)
    size = p ** n
    caps.require("enum_cap", size)
    threshold = p ** (-s) - BIAS_TOL
    cells = (p,) * c
    grid = np.indices(cells).reshape(c, -1)  # every atom t, in lex order
    hist = np.bincount(np.ravel_multi_index(_value_rows(factor.polys, size), cells), minlength=p**c)
    magnitudes = np.abs(np.fft.fftn(hist.reshape(cells)).ravel()) / size
    survivors = grid[:, 1:][:, magnitudes[1:] >= threshold - BIAS_TOL]  # a = 0 left out
    for a in survivors.T[np.argsort(survivors.sum(axis=0), kind="stable")]:  # graded order
        counts = np.bincount(a @ grid % p, hist, p)  # float64 sums of counts below 2^53: exact
        cs = bias_from_counts(range(p), counts, p, size)
        if cs.magnitude >= threshold:
            return tuple(a.tolist()), cs
    return None


def _dependency_reduce(polys: list[MultiPoly], pinned: int) -> list[MultiPoly]:
    """Drop constants and polynomials affinely dependent on earlier kept ones.

    Runs before every scan of the regularization loop.  An affine dependency
    is exactly a bias-1 combination, and a dropped polynomial stays
    determined by the survivors, so semantic refinement is preserved.  The
    kept polynomials are the pivot columns of the (nonconstant monomials x
    polys) coefficient matrix: each is independent of the columns before it,
    so no nonzero combination of the result is a constant polynomial.
    """
    if not polys:
        return polys
    zero_mon = (0,) * polys[0].n
    monomials = sorted({e for g in polys for e in g.terms if e != zero_mon})
    _, pivots = linalg.rref([[g.terms.get(e, 0) for g in polys] for e in monomials], polys[0].p)
    for i in range(pinned):
        if i not in pivots:
            raise PartialResultError(
                "pinned polynomial is constant; cannot regularize without replacing it"
                if polys[i].is_constant() else
                "pinned polynomial depends on earlier pinned ones",
                partial=PolynomialFactor(polys, 0, pinned),
            )
    return [polys[i] for i in pivots]


def _replacement_index(coeffs, polys, pinned: int) -> int:
    """Highest-degree index with a nonzero coefficient, ties to lowest index."""
    candidates = [i for i, a in enumerate(coeffs) if a and i >= pinned]
    if not candidates:
        raise PartialResultError(
            "biased combination is supported on pinned polynomials only",
            partial=PolynomialFactor(polys, 0, pinned),
        )
    best_degree = max(polys[i].degree() for i in candidates)
    return min(i for i in candidates if polys[i].degree() == best_degree)


def regularize(
    factor: PolynomialFactor, s: int, config: RegularizeConfig | None = None
) -> PolynomialFactor:
    """Refine the factor until no combination reaches bias p^-s.

    Every iteration first drops constants and affine dependencies; the scan
    raises CapExceeded if p^c still exceeds the search cap.  Each found
    combination is decomposed exactly into lower-degree polynomials which
    replace the chosen participant; pinned-prefix polynomials are never
    replaced.
    """
    from . import decompose as decompose_mod

    config = config or RegularizeConfig()
    caps = config.decompose.caps
    work = list(factor.polys)
    pinned = factor.pinned_prefix
    for iteration in range(_MAX_ITERATIONS):
        work = _dependency_reduce(work, pinned)
        if not work:
            return PolynomialFactor(work, regularity_s=s, pinned_prefix=pinned)
        found = find_biased_combination(PolynomialFactor(work, 0, pinned), s, caps)
        if found is None:
            return PolynomialFactor(work, regularity_s=s, pinned_prefix=pinned)
        coeffs, cs = found
        target = _replacement_index(coeffs, work, pinned)
        h = combine(PolynomialFactor(work, 0, pinned), coeffs)
        s_h = decompose_mod._bias_exponent(cs.magnitude, h.p)
        sub_config = replace(
            config.decompose,
            seed=int(np.random.default_rng(
                [config.decompose.seed, 11, iteration]
            ).integers(1 << 62)),
        )
        sub = decompose_mod.exact_decompose(h, s_h, sub_config)
        work = work[:target] + list(sub.polys) + work[target + 1:]
    raise PartialResultError(
        f"regularization budget of {_MAX_ITERATIONS} iterations exceeded",
        partial=PolynomialFactor(work, regularity_s=0, pinned_prefix=pinned),
        diagnostics={"iterations": _MAX_ITERATIONS, "size": len(work)},
    )


def measurable_table(
    f: MultiPoly, factor: PolynomialFactor, caps: Caps = DEFAULT_CAPS
) -> tuple[LookupTable, bool, float]:
    """Per-atom plurality value of f (ties to the smallest lift).

    exact is True iff f is constant on every nonempty atom; agreement is
    Pr_x[f(x) = table(atoms(x))].
    """
    size = f.p ** f.n
    caps.require("enum_cap", size)
    table, hits, exact = _plurality_vote(_value_rows(factor.polys, size), f.eval_table(), f.p)
    return table, exact, hits / size


def _plurality_vote(tables, values, p: int) -> tuple[LookupTable, int, bool]:
    """Most frequent value per atom of the (c, m) rows `tables`, point j voting
    values[j], ties to the smallest lift: the table (atoms in first-occurrence order,
    default 0), the votes it reproduces, and whether each atom got a single value."""
    keys, ids = atom_ids(tables)
    order = np.lexsort((values, ids))  # by atom, then by value
    atoms, ordered = ids[order], values[order]
    starts = np.ones(len(order), dtype=bool)  # the first vote of each (atom, value) run
    starts[1:] = (atoms[1:] != atoms[:-1]) | (ordered[1:] != ordered[:-1])
    runs = np.flatnonzero(starts)
    counts = np.diff(runs, append=len(order))
    # most votes first within each atom; the stable sort keeps smaller values first on ties
    best = np.lexsort((-counts, atoms[runs]))
    winners = best[np.searchsorted(atoms[runs], np.arange(len(keys)))]
    entries = dict(zip(map(tuple, keys.tolist()), ordered[runs[winners]].tolist()))
    table = LookupTable._wrap(p, tables.shape[0], entries, default=0)
    return table, int(counts[winners].sum()), len(runs) == len(keys)


def semantic_refines(
    fine: PolynomialFactor, coarse: PolynomialFactor, caps: Caps = DEFAULT_CAPS
) -> bool:
    """Whether the fine factor's atom map determines the coarse factor's:
    every fine atom meets a single coarse atom."""
    polys = fine.polys + coarse.polys
    if not polys:
        return True
    size = polys[0].p ** polys[0].n
    caps.require("enum_cap", size)
    joint = _value_rows(polys, size)
    return len(atom_ids(joint)[0]) == len(atom_ids(joint[:fine.c])[0])


@dataclass(frozen=True)
class ParallelepipedReport:
    """Sampled distribution of atom tuples over combinatorial cubes."""

    k: int
    samples: int
    seed: int
    counts: dict
    support_size: int
    predicted_exponent: int
    predicted_frequency: float
    max_deviation: float


def parallelepiped_check(
    factor: PolynomialFactor,
    k: int,
    samples: int,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> ParallelepipedReport:
    """Sample x, y_1..y_k and record the atom tuple over all 2^k cube corners.

    Purely diagnostic: reports the empirical tuple distribution, the
    predicted support exponent sum_i M_i * sum_{1<=j<=i} C(k, j), and the
    maximal deviation of observed frequencies from the predicted one.  The
    samples * 2^k corners visited are charged to the enumeration cap.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if factor.polys and k <= factor.degree():
        raise PreconditionError(f"k = {k} must exceed the factor degree {factor.degree()}")
    caps.require_power("enum_cap", 2, k, samples)  # cube corners visited
    if not factor.polys:
        counts = {((),) * (1 << k): samples}
        return ParallelepipedReport(k, samples, seed, counts, 1, 0, 1.0, 0.0)
    p, n = factor.p, factor.n
    degree_multiplicity = Counter(g.degree() for g in factor.polys)
    exponent = sum(
        mult * sum(math.comb(k, j) for j in range(1, deg + 1))
        for deg, mult in degree_multiplicity.items()
        if deg >= 1
    )
    predicted = p ** (-(factor.c + exponent))
    counts: Counter = Counter()
    for corners in cube_corners(np.random.default_rng(seed), p, n, k, samples):
        keys, ids = atom_ids(_value_rows(factor.polys, len(corners), corners))
        atoms = list(map(tuple, keys.tolist()))
        counts.update(tuple(atoms[i] for i in cube) for cube in ids.reshape(-1, 1 << k).tolist())
    max_dev = max(abs(cnt / samples - predicted) for cnt in counts.values())
    return ParallelepipedReport(
        k=k,
        samples=samples,
        seed=seed,
        counts=dict(counts),
        support_size=len(counts),
        predicted_exponent=exponent,
        predicted_frequency=predicted,
        max_deviation=max_dev,
    )
