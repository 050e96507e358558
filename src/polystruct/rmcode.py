"""Reed-Muller codes at desk scale: enumeration, list decoding, and the
simplex-embedding toolkit (Fourier decomposition over centered line
embeddings, greedy weak regularity).

A code is one read-only pair of small-int arrays, its coefficient grid and
its codebook of value tables; list decoding, profiles and the minimum
distance are row-wise Hamming distances.  Only the members returned by
list_decode_brute become MultiPolys: the rank graph works on grid rows.

Functions F_p^n -> F_p are embedded into the probability simplex row by
row: p(g) places a single 1 per row, q(g) = p(g) - 1/p centers it.  Inner
products average over rows, so ||q(g)||^2 = 1 - 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .config import Caps, DEFAULT_CAPS
from .errors import InputError, PreconditionError, UnsupportedError
from .ffpoly import FieldCtx, MultiPoly, count_monomials_upto, hessians, monomials_upto, points_lex

FLOAT_TOL = 1e-9
_PROFILE_BLOCK = 2**20  # distances (centers x codewords) scored at once by a profile


@dataclass(frozen=True)
class RMParams:
    """RM_F(n, d): evaluations of all degree <= d polynomials; needs d < p."""

    p: int
    n: int
    d: int

    def __post_init__(self):
        FieldCtx(self.p)
        if self.n < 1 or self.d < 0:
            raise InputError("need n >= 1 and d >= 0")
        if self.d >= self.p:
            raise UnsupportedError(f"degree {self.d} >= field size {self.p}")

    @property
    def ctx(self) -> FieldCtx:
        return FieldCtx(self.p)

    def codeword_count(self) -> int:
        return self.p ** count_monomials_upto(self.n, self.d, self.p, math.inf)

    def min_distance_formula(self) -> Fraction:
        return Fraction(self.p - self.d, self.p)


@lru_cache(maxsize=8)
def _codewords(params: RMParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, m) coefficient grid over monomials_upto(n, d, p), rows in
    itertools.product order, and (N, p^n) codebook of their value tables, in the
    smallest unsigned dtype holding p - 1.  Each monomial t maps every book row r
    to the p rows r + c*t mod p, c = 0..p-1, which keeps that order."""
    p, n = params.p, params.n
    mons = monomials_upto(n, params.d, p)
    dtype = np.min_scalar_type(p - 1)
    wide = np.min_scalar_type(2 * (p - 1))  # holds one sum before its reduction
    grid = np.indices((p,) * len(mons), dtype=dtype).reshape(len(mons), -1).T
    book = np.zeros((1, p ** n), dtype=dtype)
    for e in mons:
        table = MultiPoly(params.ctx, n, {e: 1}).eval_table()
        multiples = (np.arange(p)[:, None] * table % p).astype(wide)
        book = book[:, None, :] + multiples
        book %= p
        book = book.astype(dtype, copy=False).reshape(-1, p ** n)
    grid.flags.writeable = False
    book.flags.writeable = False
    return grid, book


def enumerate_codewords(params: RMParams, caps: Caps = DEFAULT_CAPS):
    """The cached read-only (grid, book) pair; every codeword is charged to codeword_cap.
    The monomials are counted, not built, and the count stops past max(256, log2 cap):
    p to that power exceeds the cap, and require_power reports it without building it."""
    p, limit = params.p, max(256, caps.codeword_cap.bit_length())
    caps.require_power("codeword_cap", p, count_monomials_upto(params.n, params.d, p, limit))
    return _codewords(params)


def _distances(book: np.ndarray, target) -> np.ndarray:
    """Hamming distances from every codeword to one target table, (N,), or to each row
    of a (B, p^n) block, (B, N), summed point by point over a point-major book copy."""
    target = np.asarray(target, dtype=book.dtype)
    if target.ndim < 2:
        return np.count_nonzero(book != target, axis=1)
    dist = np.zeros((len(target), len(book)), dtype=np.min_scalar_type(book.shape[1]))
    for column, values in zip(np.ascontiguousarray(book.T), target.T):
        dist += column != values[:, None]
    return dist


def min_distance_empirical(params: RMParams, caps: Caps = DEFAULT_CAPS) -> Fraction:
    """min over nonzero codewords of Pr[f != 0]; equals 1 - d/p for d < p."""
    _, book = enumerate_codewords(params, caps)
    weights = _distances(book, 0)
    return Fraction(int(weights[weights > 0].min()), book.shape[1])


@dataclass(frozen=True)
class ListResult:
    """Codewords within the radius, sorted by distance then canonical order."""

    radius: float
    entries: tuple[tuple[MultiPoly, Fraction], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def polys(self) -> list[MultiPoly]:
        return [f for f, _ in self.entries]


def _list_hits(params: RMParams, center, radius, caps: Caps):
    """(grid, dist, hits): the grid, each codeword's distance to the center (table or
    MultiPoly), and the rows within the radius by distance, ties in grid order."""
    if not math.isfinite(radius):
        raise InputError(f"radius must be finite, got {radius}")
    size = params.p ** params.n
    if isinstance(center, MultiPoly):
        center = center.eval_table()
    target = np.asarray(center) % params.p
    if target.shape != (size,):
        raise InputError(f"center table has shape {target.shape}, expected ({size},)")
    grid, book = enumerate_codewords(params, caps)
    dist = _distances(book, target)
    hits = np.flatnonzero(dist / size <= float(radius) + 1e-12)
    return grid, dist, hits[np.argsort(dist[hits], kind="stable")]


def list_decode_brute(
    params: RMParams, center, radius, caps: Caps = DEFAULT_CAPS
) -> ListResult:
    """Exhaustive scan of every codeword against the center; a MultiPoly is
    built only for each codeword in the list."""
    size = params.p ** params.n
    grid, dist, hits = _list_hits(params, center, radius, caps)
    mons = monomials_upto(params.n, params.d, params.p)
    return ListResult(
        radius=float(radius),
        entries=tuple(
            (MultiPoly(params.ctx, params.n, dict(zip(mons, grid[i].tolist()))),
             Fraction(int(dist[i]), size))
            for i in hits
        ),
    )


def johnson_bound(p: int, eps: float) -> tuple[float, float]:
    """(radius, list cap) = (1 - 1/p - sqrt(eps), 1/eps^2) for 0 < eps < 1."""
    FieldCtx(p)
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    return 1.0 - 1.0 / p - math.sqrt(eps), 1.0 / eps**2


# -- simplex embeddings -------------------------------------------------------


@dataclass(frozen=True)
class SimplexFunction:
    """A map F_p^n -> R^p stored as a (p^n, p) array with a space tag.

    delta rows are nonnegative and sum to 1; centered rows sum to 0.
    """

    p: int
    n: int
    values: np.ndarray
    space: str

    def __post_init__(self):
        size = self.p ** self.n
        if self.values.shape != (size, self.p):
            raise InputError(f"expected shape {(size, self.p)}, got {self.values.shape}")
        sums = self.values.sum(axis=1)
        if self.space == "delta":
            if np.any(np.abs(sums - 1.0) > FLOAT_TOL) or np.any(self.values < -FLOAT_TOL):
                raise InputError("delta rows must be nonnegative and sum to 1")
        elif self.space == "centered":
            if np.any(np.abs(sums) > FLOAT_TOL):
                raise InputError("centered rows must sum to 0")
        else:
            raise InputError(f"unknown space tag {self.space!r}")

    @classmethod
    def embed(cls, p: int, n: int, table) -> "SimplexFunction":
        """p(g): one-hot rows for a field-valued function."""
        size = p ** n
        table = np.asarray(table) % p
        if table.shape != (size,):
            raise InputError(f"table has shape {table.shape}, expected ({size},)")
        values = np.zeros((size, p))
        values[np.arange(size), table] = 1.0
        return cls(p, n, values, "delta")

    def centered(self) -> "SimplexFunction":
        if self.space == "centered":
            return self
        return SimplexFunction(self.p, self.n, self.values - 1.0 / self.p, "centered")

    def inner(self, other: "SimplexFunction") -> float:
        if (self.p, self.n) != (other.p, other.n):
            raise InputError("mismatched domains")
        return float((self.values * other.values).sum() / self.p**self.n)


def _line_values(p: int, n: int, a: np.ndarray, b) -> np.ndarray:
    """Row i holds a_i . x + b mod p at every point x, in lexicographic order;
    b is a scalar or a column of per-row offsets."""
    coords = np.indices((p,) * n).reshape(n, p ** n)
    return (a @ coords + b) % p


def simplex_fourier(
    g, p: int | None = None, n: int | None = None, caps: Caps = DEFAULT_CAPS
) -> dict[tuple[tuple[int, ...], int], float]:
    """Coefficients of q(g) over the centered affine-line basis.

    alpha[a, b] = <q(g), q(l_{a,b})> - <q(g), q(l_{a,0})> for b != 0; the
    reconstruction sum over the basis reproduces q(g) entrywise.  Since
    <q(g), q(l_{a,b})> = N_a(b) / p^n - 1/p with N_a(v) = #{x : g(x) - a.x = v},
    alpha[a, b] = (N_a(b) - N_a(0)) / p^n, an exact multiple of p^-n.
    """
    if isinstance(g, MultiPoly):
        p, n = g.p, g.n
        table = g.eval_table()
    else:
        if p is None or n is None:
            raise InputError("raw tables need explicit p and n")
        table = np.asarray(g) % p
    size = p ** n
    caps.require("enum_cap", size * (p - 1))
    slopes = np.indices((p,) * n).reshape(n, size).T  # every a, in lexicographic order
    shifted = (table.astype(np.int64) - _line_values(p, n, slopes, 0)) % p
    rows = np.arange(size)[:, None] * p
    counts = np.bincount((shifted + rows).ravel(), minlength=size * p).reshape(size, p)
    alphas: dict[tuple[tuple[int, ...], int], float] = {}
    for a, row in zip(points_lex(p, n), (counts[:, 1:] - counts[:, :1]).tolist()):
        for b, diff in enumerate(row, start=1):
            alphas[(a, b)] = diff / size
    return alphas


def fourier_reconstruct(
    alphas: dict, p: int, n: int
) -> SimplexFunction:
    """sum alpha[a, b] q(l_{a,b}): each coefficient lands on its line's entry per row."""
    size = p ** n
    keys = list(alphas)
    slopes = np.array([a for a, _ in keys], dtype=np.int64).reshape(len(keys), n)
    offsets = np.array([b for _, b in keys], dtype=np.int64)
    coeffs = np.array([alphas[key] for key in keys], dtype=float)
    cells = _line_values(p, n, slopes, offsets[:, None]) + np.arange(size) * p
    weights = np.broadcast_to(coeffs[:, None], cells.shape)
    acc = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=size * p)
    acc = acc.reshape(size, p) - coeffs.sum() / p
    return SimplexFunction(p, n, acc, "centered")


def weak_regularity(
    phi: SimplexFunction, family, eps: float
) -> tuple[list[tuple[int, float]], SimplexFunction]:
    """Greedy decomposition phi = 1/p + sum alpha_i q(f_i) + residual.

    While some family member correlates with the running residual above
    eps, absorb it; the energy decrement bounds the number of terms by
    ceil(1/eps^2), and on exit every family correlation is at most eps.
    """
    if not 0 < eps <= 1:
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    if phi.space != "delta":
        raise PreconditionError("phi must live in the delta space")
    p, n = phi.p, phi.n
    size = p ** n
    q_family = []
    for member in family:
        table = member.eval_table() if isinstance(member, MultiPoly) else member
        q_family.append(SimplexFunction.embed(p, n, table=table).centered().values)
    centered = phi.values - 1.0 / p
    approx = np.zeros_like(centered)
    terms: list[tuple[int, float]] = []
    max_steps = math.ceil(1.0 / eps**2) + 8  # slack for float rounding only
    for _ in range(max_steps):
        found = False
        for idx, qf in enumerate(q_family):
            corr = float(((centered - approx) * qf).sum() / size)
            if abs(corr) > eps:
                approx += corr * qf
                terms.append((idx, corr))
                found = True
                break
        if not found:
            break
    residual = SimplexFunction(p, n, centered - approx, "centered")
    return terms, residual


# -- list-size experiments ----------------------------------------------------


@dataclass(frozen=True)
class CentersSpec:
    """How profile centers are drawn: uniform functions, noisy codewords,
    and optionally every codeword."""

    random_count: int = 100
    noisy_count: int = 100
    noise_rate: float = 0.3
    all_codewords: bool = False

    def __post_init__(self):
        if min(self.random_count, self.noisy_count) < 0 or not 0 <= self.noise_rate <= 1:
            raise InputError("need center counts >= 0 and a noise rate in [0, 1]")


@dataclass(frozen=True)
class ProfileRow:
    radius: float
    center_kind: str
    center_index: int
    list_size: int


@dataclass(frozen=True)
class ListSizeProfile:
    params: RMParams
    s: int
    seed: int
    rows: tuple[ProfileRow, ...]
    max_by_radius: dict
    bound_constant: float | None
    consistent_with_bound: bool | None


def list_size_profile(
    params: RMParams,
    s: int,
    centers: CentersSpec,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
    bound_constant: float | None = None,
) -> ListSizeProfile:
    """Tabulate |B(g, rho_e)| at rho_e = 1 - e/p - p^-s for 1 <= e <= d.

    Sampled centers give a lower bound on the worst case; the optional
    constant C reports whether max sizes stay within p^(C * n^(d-e)).
    """
    p, n, d = params.p, params.n, params.d
    if d < 1 or s < 1:
        raise InputError("profiles need d >= 1 and s >= 1")
    if bound_constant is not None and not math.isfinite(bound_constant):
        raise InputError(f"bound constant must be finite, got {bound_constant}")
    _, book = enumerate_codewords(params, caps)
    size = p ** n
    rng = np.random.default_rng(seed)
    kinds = [("random", i) for i in range(centers.random_count)]
    targets = [rng.integers(0, p, size=size) for _ in kinds]
    for i in range(centers.noisy_count):
        base = book[int(rng.integers(0, len(book)))].tolist()
        kinds.append(("noisy", i))
        targets.append([
            int(rng.integers(0, p)) if rng.random() < centers.noise_rate else v
            for v in base
        ])
    targets = np.array(targets, dtype=book.dtype).reshape(-1, size)
    if centers.all_codewords:
        kinds.extend(("codeword", i) for i in range(len(book)))
        targets = np.concatenate([targets, book])

    radii = [(e, 1.0 - e / p - p ** float(-s)) for e in range(1, d + 1)]
    # distances are integers, so "<= (rho + slack) * p^n" is "<=" its floor
    limits = np.floor([(rho + 1e-12) * size for _, rho in radii]).astype(np.int64)
    # counts[k, j]: codewords within radius j of center k, scored in blocks of centers
    counts = np.zeros((len(targets), d), dtype=np.int64)
    block = max(1, _PROFILE_BLOCK // len(book))
    for i in range(0, len(targets), block):
        dist = _distances(book, targets[i:i + block])
        counts[i:i + block] = np.count_nonzero(dist[:, None, :] <= limits[:, None], axis=2)
    by_radius = [(rho, sizes) for (_, rho), sizes in zip(radii, counts.T.tolist())]
    rows = tuple(ProfileRow(rho, kind, idx, count)
                 for rho, sizes in by_radius for (kind, idx), count in zip(kinds, sizes))
    max_by_radius = {rho: max(sizes) for rho, sizes in by_radius if sizes}
    consistent = None
    if bound_constant is not None:
        consistent = all(
            max_by_radius.get(rho, 0) <= p ** (bound_constant * n ** (d - e))
            for e, rho in radii
        )
    return ListSizeProfile(params, s, seed, rows, max_by_radius, bound_constant, consistent)


@dataclass(frozen=True)
class RankGraphReport:
    list_size: int
    independent_set_size: int
    max_close_count: int
    independent_indices: tuple[int, ...]
    cover_bound_holds: bool


def rank_graph_reduction(
    params: RMParams, center, radius, k: int, caps: Caps = DEFAULT_CAPS
) -> RankGraphReport:
    """Greedy low-rank-difference independent set inside a decoding list.

    Edges join list members whose difference has quadratic rank <= k; the
    list size is covered by |independent set| times the maximal number of
    rank-close neighbours, the two factors of the subcode reduction.
    Closeness is symmetric: the greedy set takes the smallest uncovered member, whose
    one batched row covers and counts its neighbours: ceil(r/2) for the rank r of the
    Hessian difference, or at r = 0 rank 0 if the linear parts agree, else inf.
    """
    if params.d != 2:
        raise UnsupportedError("rank-threshold graphs need d = 2")
    grid, _, hits = _list_hits(params, center, radius, caps)
    p, n, m = params.p, params.n, len(hits)
    coeffs = grid[hits].astype(np.int64)
    mons = np.array(monomials_upto(n, 2, p)).reshape(-1, n)
    degree = mons.sum(axis=1)
    hessian = hessians(mons[degree == 2], coeffs[:, degree == 2]) % p
    linear = coeffs[:, degree == 1]
    covered, independent, max_close = np.zeros(m, dtype=bool), [], 0
    for i in range(m):
        if covered[i]:
            continue
        r = linalg.ranks((hessian - hessian[i]) % p, p)
        order1 = np.where((linear == linear[i]).all(axis=1), 0, math.inf)
        close = np.where(r > 0, (r + 1) // 2, order1) <= k
        covered |= close
        independent.append(i)
        max_close = max(max_close, int(close.sum()))
    holds = m <= len(independent) * max_close if m else True
    return RankGraphReport(m, len(independent), max_close, tuple(independent), holds)
