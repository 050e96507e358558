"""Prime-field contexts and sparse multivariate polynomials.

Polynomials map exponent vectors to nonzero coefficients in [1, p).
Variables are named x1..xn.  The canonical term order is graded-lex
(total degree descending, then exponents lexicographically descending),
which fixes serialization and all deterministic scans.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedError

Monomial = tuple[int, ...]

_VAR_RE = re.compile(r"^x([1-9][0-9]*)(?:\^([0-9]+))?$")
_INT_RE = re.compile(r"^[0-9]+$")
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for m < 3.3 * 10^24."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """The prime field F_p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise InputError(f"modulus must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise InputError("inverse of 0")
        return pow(a, self.p - 2, self.p)


def points_lex(p: int, n: int):
    """All points of F_p^n in lexicographic order (last coordinate fastest)."""
    return itertools.product(range(p), repeat=n)


def graded_points(p: int, n: int) -> np.ndarray:
    """All of F_p^n as the rows of a (p^n, n) array in graded order (sum, then lex)."""
    points = np.indices((p,) * n).reshape(n, p ** n).T
    return points[np.argsort(points.sum(axis=1), kind="stable")]


def hessians(e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unreduced Hessians of sum_q c[..., q] x^e[q], e degree-2 rows: c x^e has
    c(e e^T - diag e), twice its symmetric matrix, so of the form's rank for p odd."""
    return (c[..., None, :] * e.T) @ e - (c @ e)[..., None] * np.eye(e.shape[1], dtype=int)


def graded_key(e: Monomial):
    """Graded order: sum of canonical lifts, then lexicographic."""
    return (sum(e), e)


def monomials_upto(n: int, degree: int, p: int) -> list[Monomial]:
    """All e in [0, min(p-1, degree)]^n with sum(e) <= degree, in graded order.

    One list serves as the exponents of the degree <= degree monomials and as
    the small-weight vectors b.  Built by sum without a sort: each sum's
    vectors come out in lex order when the first entry ascends outermost.
    """
    cap = min(degree, p - 1)
    budget = min(degree, n * cap)
    by_sum = [[()]] + [[] for _ in range(budget)]  # vectors of the current length, by sum
    for _ in range(n):
        by_sum = [
            [(v,) + rest for v in range(min(cap, s) + 1) for rest in by_sum[s - v]]
            for s in range(budget + 1)
        ]
    return [e for level in by_sum for e in level]


def count_monomials_upto(n: int, degree: int, p: int, limit: int) -> int:
    """len(monomials_upto(n, degree, p)) for degree >= 0, counted by sum with
    prefix sums over one more coordinate at a time.  Once the first k < n
    coordinates give more than limit vectors, it stops and returns that count."""
    cap, by_sum, count = min(degree, p - 1), [1], 1  # by_sum: vectors so far, by sum
    for k in range(1, n + 1):
        count = sum(c * (min(cap, degree - s) + 1) for s, c in enumerate(by_sum))
        if count > limit:
            break
        prefix = [0, *itertools.accumulate(by_sum)]
        by_sum = [prefix[min(s, len(by_sum) - 1) + 1] - prefix[max(s - cap, 0)]
                  for s in range(min(degree, k * cap) + 1)]
    return count


def sample_points(rng, p: int, n: int, m: int) -> np.ndarray:
    """m uniform points of F_p^n as the rows of rng.integers(0, p, size=(m, n)); the
    generator draws no integers at or above 2^63, so only an empty draw works there."""
    if p >= 2**63:
        if m * n:
            raise UnsupportedError(f"cannot sample points over p = {p} >= 2^63")
        return np.empty((m, n), dtype=object)
    return rng.integers(0, p, size=(m, n))


def _value_rows(polys, m: int | None, points=None) -> np.ndarray:
    """Values of each polynomial as the rows of a (c, m) array: at all m = p^n
    points in lexicographic order, or at the rows of an (m, n) point array, whose
    columns are reduced mod p and made unique once for the whole family."""
    if points is None:
        return np.stack([g.eval_table() for g in polys]) if polys else np.zeros((0, m), np.int64)
    pts = np.asarray(points)
    for g in polys:
        if g.p != polys[0].p or pts.ndim != 2 or pts.shape[1] != g.n:
            raise InputError(f"points have shape {pts.shape}, expected (m, {g.n}) over one field")
    if not polys:
        return np.zeros((0, len(pts)), dtype=np.int64)
    p = polys[0].p
    exact = np.can_cast(pts.dtype, np.int64) and p < 2**63
    pts = pts.astype(np.int64 if exact else object, copy=False)
    axes = [(v.tolist(), i) for v, i in (np.unique(col % p, return_inverse=True) for col in pts.T)]
    return np.stack([g._evaluate(axes, (len(pts),)) for g in polys])


_CORNER_BATCH = 1 << 14  # corners per batch; samples * 2^k may reach the enumeration cap


def cube_corners(rng, p: int, n: int, k: int, samples: int) -> Iterator[np.ndarray]:
    """Corners x + sum_{j in mask} y_j mod p of `samples` random cubes.

    Draws x, then y_1..y_k, for one cube after another, a batch of s cubes in one
    call; yields (s * 2^k, n) arrays of them in mask order, s * 2^k <= _CORNER_BATCH unless s = 1.
    """
    per = max(1, _CORNER_BATCH >> k)
    for start in range(0, samples, per):
        count = min(per, samples - start)
        draws = sample_points(rng, p, n, count * (1 + k)).reshape(count, 1 + k, n)
        corners = draws[:, :1]
        for j in range(1, k + 1):
            corners = np.concatenate([corners, (corners + draws[:, j, None]) % p], axis=1)
        yield corners.reshape(count << k, n)


def grlex_key(e: Monomial):
    return (-sum(e), tuple(-v for v in e))


class MultiPoly:
    """Sparse polynomial over F_p in n variables, immutable after construction."""

    __slots__ = ("ctx", "n", "terms", "_table")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict):
        if n < 0:
            raise InputError("variable count must be >= 0")
        p = ctx.p
        clean: dict[Monomial, int] = {}
        for e, c in terms.items():
            e = tuple(int(v) for v in e)
            if len(e) != n:
                raise InputError(f"exponent vector {e} has length {len(e)}, expected {n}")
            if any(v < 0 for v in e):
                raise InputError(f"negative exponent in {e}")
            c = int(c) % p
            if c:
                clean[e] = (clean.get(e, 0) + c) % p
                if not clean[e]:
                    del clean[e]
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "MultiPoly":
        return cls(ctx, n, {})

    @classmethod
    def constant(cls, ctx: FieldCtx, n: int, c: int) -> "MultiPoly":
        return cls(ctx, n, {(0,) * n: c})

    @classmethod
    def variable(cls, ctx: FieldCtx, n: int, index: int) -> "MultiPoly":
        """x_index with 1-based index."""
        if not 1 <= index <= n:
            raise InputError(f"variable index {index} out of range 1..{n}")
        e = [0] * n
        e[index - 1] = 1
        return cls(ctx, n, {tuple(e): 1})

    @classmethod
    def _wrap(cls, ctx: FieldCtx, n: int, terms: dict, table=None) -> "MultiPoly":
        """Reduced int terms and, if given, their eval_table() (made read-only), unvalidated."""
        g = cls.__new__(cls)
        if table is not None:
            table.flags.writeable = False
        for name, value in (("ctx", ctx), ("n", n), ("terms", terms), ("_table", table)):
            object.__setattr__(g, name, value)
        return g

    # -- basic structure ---------------------------------------------------

    @property
    def p(self) -> int:
        return self.ctx.p

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial by convention."""
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def canonical_terms(self) -> list[tuple[Monomial, int]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.p == other.p
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, tuple(self.canonical_terms())))

    def __repr__(self) -> str:
        return f"MultiPoly(p={self.p}, n={self.n}, {poly_to_str(self)!r})"

    def __str__(self) -> str:
        return poly_to_str(self)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.p != self.p or other.n != self.n:
                raise InputError("mixed field or variable count")
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self.ctx, self.n, other)
        return NotImplemented

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.ctx, self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ctx, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.ctx, self.n, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.ctx, self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise InputError("exponent must be a non-negative integer")
        result = MultiPoly.constant(self.ctx, self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, axes, shape):
        """Values mod p as an array of `shape`; axes[i] = (values, index) holds the
        distinct values of coordinate i as ints in [0, p) and an index into them
        that broadcasts to shape.  pow(v, e, p) is taken once per (variable,
        exponent) and distinct value, then gathered; object dtype keeps products
        exact when (p-1)^2 overflows int64."""
        p = self.p
        dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
        powers = {}
        out = np.zeros(shape, dtype=dtype)
        for e, c in self.terms.items():
            term = c
            for i, ei in enumerate(e):
                if ei:
                    if (i, ei) not in powers:
                        values, index = axes[i]
                        powers[i, ei] = np.array([pow(v, ei, p) for v in values], dtype=dtype)[index]
                    term = term * powers[i, ei] % p
            out = (out + term) % p
        return np.asarray(out, dtype=dtype)

    def eval(self, x) -> int:
        if len(x) != self.n:
            raise InputError(f"point has length {len(x)}, expected {self.n}")
        return int(self._evaluate([([int(v) % self.p], 0) for v in x], ()))

    def eval_points(self, points) -> np.ndarray:
        """Values at the rows of an (m, n) integer array, reduced mod p first."""
        return _value_rows([self], None, points)[0]

    def eval_table(self) -> np.ndarray:
        """Values at all p^n points in lexicographic order, cached read-only;
        coordinate i runs over 0..p-1 along axis i, with no coordinate grid."""
        if self._table is None:
            p, n = self.p, self.n
            axes = [(range(p), np.arange(p).reshape((1,) * i + (p,) + (1,) * (n - i - 1)))
                    for i in range(n)]
            table = self._evaluate(axes, (p,) * n).reshape(-1)
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)
        return self._table


# -- specified operations ---------------------------------------------------


def derivative(f: MultiPoly, dirs) -> MultiPoly:
    """D_{h_k} ... D_{h_1} f, reduced (f itself when dirs is empty): one derivative_family
    call per direction, without tables, at most 256 * pairs multiply-adds each."""
    for h in dirs:
        (f,) = derivative_family(f, [h])
    return f


def derivative_family(f: MultiPoly, dirs, tables: bool = False) -> list[MultiPoly]:
    """D_h f = f(x + h) - f(x), reduced, for each direction h (a sequence of n ints).

    Each term c x^e of functional_reduce(f) gives c e!/(a! b!) h^a x^b over its
    prod_i (e_i + 1) pairs a + b = e; those with a != 0 fill an (h-monomials,
    x-monomials) matrix W, and row j of (h_j^a) @ W mod p is D_{h_j} f: at most
    256 * m * pairs multiply-adds over 256-column blocks of W in float64, exact while
    #a (p-1)^2 < 2^53, and m * pairs in Python ints, a column at a time, past that.
    With tables, each derivative caches T[x + h] - T[x] mod p, gathered from f's
    table T one axis at a time (m n p^n steps).
    """
    p, n, m = f.p, f.n, len(dirs)
    if any(len(h) != n for h in dirs):
        raise InputError(f"every direction must have length n = {n}")
    a_ids, b_ids, a_of, b_of, weight = {}, {}, [], [], []  # the pairs, numbered by a and b
    for e, c in functional_reduce(f).terms.items():
        for b in itertools.product(*(range(v + 1) for v in e)):
            if b != e:  # a = 0 is f(x) itself
                a_of.append(a_ids.setdefault(tuple(v - u for v, u in zip(e, b)), len(a_ids)))
                b_of.append(b_ids.setdefault(b, len(b_ids)))
                weight.append(c * math.prod(map(math.comb, e, b)) % p)
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    hs = np.array([[int(v) % p for v in h] for h in dirs], dtype=dtype).reshape(m, n)
    a_rows = np.array(list(a_ids), dtype=np.int64).reshape(len(a_ids), n)
    power = np.ones((m, n, int(a_rows.max(initial=0)) + 1), dtype=dtype)
    for k in range(1, power.shape[2]):  # power[j, i, k] = h_ji^k
        power[:, :, k] = power[:, :, k - 1] * hs % p
    powers = np.ones((m, len(a_rows)), dtype=dtype)  # h_j^a
    for i in range(n):
        powers = powers * power[:, i, a_rows[:, i]] % p
    order = np.argsort(b_of, kind="stable")
    a_of, b_of = np.array(a_of, dtype=np.intp)[order], np.array(b_of, dtype=np.intp)[order]
    kind = np.float64 if len(a_rows) * (p - 1) ** 2 < 2**53 else object
    width = 256 if kind is np.float64 else 1  # x-monomials per block of W: BLAS, or no zeros
    powers, weight = powers.astype(kind), np.array(weight, dtype=kind)[order]
    coeffs = np.zeros((m, len(b_ids)), dtype=dtype)
    for lo in range(0, len(b_ids), width):
        start, stop = np.searchsorted(b_of, (lo, lo + width))
        used: dict = {}  # the rows of W this block uses
        row = [used.setdefault(a, len(used)) for a in a_of[start:stop].tolist()]
        block = np.zeros((len(used), min(width, len(b_ids) - lo)), dtype=kind)
        block[row, b_of[start:stop] - lo] = weight[start:stop]
        coeffs[:, lo:lo + width] = powers[:, list(used)] @ block % p
    rows, cols, keys = *np.nonzero(coeffs), list(b_ids)
    terms = [{} for _ in range(m)]
    for j, b, c in zip(rows.tolist(), cols.tolist(), coeffs[rows, cols].tolist()):
        terms[j][keys[b]] = c
    if not tables:
        return [MultiPoly._wrap(f.ctx, n, t) for t in terms]
    grid = f.eval_table().reshape((1,) + (p,) * n)  # axis 0 lets n = 0 index it too
    index = [np.zeros((m,) + (1,) * n, dtype=np.intp)] + [((np.arange(p) + hs[:, [i]]) % p)
             .reshape((m,) + (1,) * i + (p,) + (1,) * (n - 1 - i)) for i in range(n)]
    stack = grid[tuple(index)]
    stack -= grid
    stack %= p
    return [MultiPoly._wrap(f.ctx, n, t, r.copy()) for t, r in zip(terms, stack.reshape(m, p**n))]


def homogeneous_top(f: MultiPoly) -> MultiPoly:
    """Degree-d homogeneous part of f; requires d < p."""
    d = f.degree()
    if d >= f.p:
        raise UnsupportedError(f"degree {d} >= p = {f.p}: {d}! is not invertible")
    return MultiPoly(f.ctx, f.n, {e: c for e, c in f.terms.items() if sum(e) == d})


def functional_reduce(f: MultiPoly) -> MultiPoly:
    """Canonical representative of f as a function F_p^n -> F_p.

    Exponents reduce mod x^p = x: e >= 1 maps to ((e-1) mod (p-1)) + 1.
    """
    p = f.p
    out: dict[Monomial, int] = {}
    for e, c in f.terms.items():
        red = tuple(0 if v == 0 else ((v - 1) % (p - 1)) + 1 for v in e)
        out[red] = out.get(red, 0) + c
    return MultiPoly(f.ctx, f.n, out)


def restrict_hyperplane(f: MultiPoly, var_index: int, value: int) -> MultiPoly:
    """Substitute x_{var_index} = value and renumber the remaining variables."""
    if not 1 <= var_index <= f.n:
        raise InputError(f"variable index {var_index} out of range 1..{f.n}")
    p = f.p
    value = int(value) % p
    j = var_index - 1
    out: dict[Monomial, int] = {}
    for e, c in f.terms.items():
        key = e[:j] + e[j + 1:]
        out[key] = out.get(key, 0) + c * pow(value, e[j], p)
    return MultiPoly(f.ctx, f.n - 1, out)


def extend_variables(f: MultiPoly, new_n: int) -> MultiPoly:
    """Re-embed f into a larger ambient variable set (pads exponents)."""
    if new_n < f.n:
        raise InputError("cannot shrink the variable count")
    pad = (0,) * (new_n - f.n)
    return MultiPoly(f.ctx, new_n, {e + pad: c for e, c in f.terms.items()})


# -- lookup tables and composition -------------------------------------------


class LookupTable:
    """A function F_p^arity -> F_p stored as explicit entries plus a default."""

    __slots__ = ("p", "arity", "entries", "default")

    def __init__(self, p: int, arity: int, entries: dict, default: int | None = None):
        self.p = p
        self.arity = arity
        self.entries = {}
        for key, v in entries.items():
            key = tuple(int(x) % p for x in key)
            if len(key) != arity:
                raise InputError(f"key {key} has arity {len(key)}, expected {arity}")
            self.entries[key] = int(v) % p
        self.default = None if default is None else int(default) % p

    @classmethod
    def _wrap(cls, p: int, arity: int, entries: dict, default: int | None = None) -> "LookupTable":
        """Int keys of length arity, values and default, all in [0, p), unvalidated."""
        table = cls.__new__(cls)
        table.p, table.arity, table.entries, table.default = p, arity, entries, default
        return table

    def is_total(self) -> bool:
        return self.default is not None or len(self.entries) == self.p ** self.arity

    def __call__(self, key) -> int:
        key = tuple(int(x) % self.p for x in key)
        if len(key) != self.arity:
            raise InputError(f"key arity {len(key)}, expected {self.arity}")
        if key in self.entries:
            return self.entries[key]
        if self.default is None:
            raise InputError(f"table has no entry for {key}")
        return self.default

    def __eq__(self, other) -> bool:
        if not isinstance(other, LookupTable) or (self.p, self.arity) != (other.p, other.arity):
            return False
        if self.is_total() and other.is_total() and self.p ** self.arity <= 10**6:
            return all(self(k) == other(k) for k in points_lex(self.p, self.arity))
        return (self.entries, self.default) == (other.entries, other.default)

    def __repr__(self) -> str:
        return (f"LookupTable(p={self.p}, arity={self.arity}, "
                f"entries={dict(sorted(self.entries.items()))}, default={self.default})")

    def to_flat(self) -> list[int]:
        """Values over all p^arity keys in graded order."""
        if not self.is_total():
            raise InputError("table does not cover all inputs")
        return [self(k) for k in graded_points(self.p, self.arity).tolist()]


def compose_gamma(table: LookupTable, polys: list[MultiPoly]):
    """The pointwise function x -> table(g_1(x), ..., g_c(x))."""
    if len(polys) != table.arity:
        raise InputError(f"{len(polys)} polynomials for a table of arity {table.arity}")
    if not table.is_total():
        raise InputError("table does not cover all inputs")
    for g in polys:
        if g.p != table.p:
            raise InputError("field mismatch between table and polynomials")
    if polys and any(g.n != polys[0].n for g in polys):
        raise InputError("polynomials disagree on variable count")

    def composed(x) -> int:
        return table(tuple(g.eval(x) for g in polys))

    return composed


def compose_poly(outer: MultiPoly, polys: list[MultiPoly]) -> MultiPoly:
    """Symbolic expansion of a polynomial outer function applied to polys."""
    if outer.n != len(polys):
        raise InputError(f"outer polynomial has {outer.n} variables, got {len(polys)} inputs")
    if not polys:
        raise InputError("need at least one inner polynomial")
    ctx, n = polys[0].ctx, polys[0].n
    if any(g.ctx.p != ctx.p or g.n != n for g in polys):
        raise InputError("inner polynomials must share field and variable count")
    result = MultiPoly.zero(ctx, n)
    for e, c in outer.terms.items():
        term = MultiPoly.constant(ctx, n, c)
        for g, ei in zip(polys, e):
            if ei:
                term = term * (g ** ei)
        result = result + term
    return result


# -- text grammar -------------------------------------------------------------


def parse_poly(text: str, p: int | FieldCtx, n: int | None = None) -> MultiPoly:
    """Parse `2*x1^2*x2 + 3*x3 + 1` style text into a MultiPoly.

    A leading or separating '-' is accepted and folded into coefficients.
    The variable count is inferred from the largest index unless given.
    """
    ctx = p if isinstance(p, FieldCtx) else FieldCtx(p)
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty polynomial text")
    pieces: list[tuple[int, str]] = []
    sign, buf = 1, ""
    for ch in s:
        if ch in "+-" and buf:
            pieces.append((sign, buf))
            sign, buf = (1 if ch == "+" else -1), ""
        elif ch in "+-" and not buf and not pieces and ch == "-":
            sign = -sign
        elif ch in "+-" and not buf:
            raise InputError(f"misplaced {ch!r} in {text!r}")
        else:
            buf += ch
    if not buf:
        raise InputError(f"trailing operator in {text!r}")
    pieces.append((sign, buf))

    raw_terms: list[tuple[int, dict[int, int]]] = []
    max_index = 0
    for sign, term in pieces:
        coeff = sign
        exps: dict[int, int] = {}
        for factor in term.split("*"):
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                exp = int(m.group(2)) if m.group(2) else 1
                exps[idx] = exps.get(idx, 0) + exp
                max_index = max(max_index, idx)
            elif _INT_RE.match(factor):
                coeff *= int(factor)
            else:
                raise InputError(f"bad factor {factor!r} in {text!r}")
        raw_terms.append((coeff, exps))

    if n is None:
        n = max_index
    elif max_index > n:
        raise InputError(f"variable x{max_index} exceeds declared n = {n}")
    terms: dict[Monomial, int] = {}
    for coeff, exps in raw_terms:
        e = tuple(exps.get(i + 1, 0) for i in range(n))
        terms[e] = terms.get(e, 0) + coeff
    return MultiPoly(ctx, n, terms)


def poly_to_str(f: MultiPoly) -> str:
    """Canonical serialization: graded-lex terms, coefficients in [1, p)."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.canonical_terms():
        factors = []
        if c != 1 or sum(e) == 0:
            factors.append(str(c))
        for i, ei in enumerate(e):
            if ei == 1:
                factors.append(f"x{i + 1}")
            elif ei > 1:
                factors.append(f"x{i + 1}^{ei}")
        parts.append("*".join(factors))
    return " + ".join(parts)
