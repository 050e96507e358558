"""Nullstellensatz certificate search and radical membership over F_p.

Identity of polynomials means functional identity: both sides are reduced
mod x_i^p - x_i and compared coefficientwise, matching quantification over
the rational points of F_p^n.  The certificate search solves one
coefficient-matching linear system per exponent r, r ascending, with the
unknowns ordered degree-major (monomials in graded order, then generators).
Elimination takes the leftmost pivots, so the solution with free unknowns at
0 lies inside the smallest feasible degree prefix: the degree cap D is read
off the solution, and returned certificates have minimal r, then minimal D.
The matrix is built from exponent arrays.  Where p^n <= enum_cap, a query that
is nonzero at a common zero of the generators returns None with no system built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import Caps, DEFAULT_CAPS
from .errors import InputError, InternalConsistencyError
from .ffpoly import (
    MultiPoly, _value_rows, count_monomials_upto, extend_variables, functional_reduce,
    monomials_upto,
)


@dataclass(frozen=True)
class IdealSpec:
    """Generators P_1..P_c and the query polynomial Q, in shared variables."""

    generators: tuple[MultiPoly, ...]
    query: MultiPoly

    def __init__(self, generators, query: MultiPoly):
        generators = tuple(generators)
        if not generators:
            raise InputError("need at least one generator")
        p, n = query.p, query.n
        if any(g.p != p or g.n != n for g in generators):
            raise InputError("generators and query must share field and variable count")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "query", query)


@dataclass(frozen=True)
class Certificate:
    """Witness of Q^r = sum R_i P_i as functions on F_p^n."""

    r: int
    cofactors: tuple[MultiPoly, ...]
    degree_cap: int

    def verify(self, spec: IdealSpec) -> bool:
        lhs = functional_reduce(spec.query ** self.r)
        rhs = MultiPoly.zero(spec.query.ctx, spec.query.n)
        for cof, gen in zip(self.cofactors, spec.generators):
            rhs = rhs + cof * gen
        return functional_reduce(lhs - functional_reduce(rhs)).is_zero()


def _charge_search(n: int, p: int, d_max: int, r_max: int, caps: Caps) -> None:
    """The input check and unknowns_cap charge of a search in n variables."""
    if d_max < 0 or r_max < 1:
        raise InputError("need d_max >= 0 and r_max >= 1")
    caps.require("unknowns_cap", count_monomials_upto(n, d_max, p, caps.unknowns_cap))


def _system(generators, mons, p: int, n: int) -> tuple[list, np.ndarray]:
    """Sorted support and coefficient matrix: column c*j + i holds reduce(x^mons[j] * P_i),
    with each P_i reduced once, as reduce(m + e) = reduce(m + reduce(e)); zero rows dropped."""
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    c, m, terms = len(generators), len(mons), [functional_reduce(g).terms for g in generators]
    sizes = [len(t) for t in terms]
    gen_exps = np.array([e for t in terms for e in t], dtype=dtype).reshape(sum(sizes), n)
    e = (np.array(mons, dtype=dtype).reshape(m, 1, n) + gen_exps).reshape(m * sum(sizes), n)
    keys = list(map(tuple, np.where(e == 0, 0, (e - 1) % (p - 1) + 1).tolist()))
    row_of = {k: r for r, k in enumerate(sorted(set(keys)))}  # faster than np.unique here
    matrix = np.zeros((len(row_of), c * m), dtype=dtype)
    cols = c * np.arange(m)[:, None] + np.repeat(np.arange(c), sizes)
    coeffs = np.array([v for t in terms for v in t.values()], dtype=dtype)
    np.add.at(matrix, (np.array([row_of[k] for k in keys], dtype=np.int64), cols.ravel()),
              np.tile(coeffs, m))
    matrix %= p
    keep = (matrix != 0).any(axis=1)
    return [k for k, kept in zip(row_of, keep) if kept], matrix[keep]


def find_certificate(
    spec: IdealSpec, d_max: int, r_max: int, caps: Caps = DEFAULT_CAPS
) -> Certificate | None:
    """Smallest (r, then D) certificate within the caps, or None.

    None is not an error: within small caps it cannot distinguish "no
    certificate exists" from "the degree caps are too small".
    """
    n, p = spec.query.n, spec.query.p
    _charge_search(n, p, d_max, r_max, caps)
    # p^n >= 2^(n * (bits(p) - 1)) is tested before p^n is built
    enumerable = n * (p.bit_length() - 1) <= caps.enum_cap.bit_length() and p**n <= caps.enum_cap
    if enumerable and not vanishes_on_variety(spec, caps):
        return None  # Q(x) != 0 at a common zero x: Q^r = sum R_i P_i fails there for every r
    return _search(spec, d_max, r_max)


def _search(spec: IdealSpec, d_max: int, r_max: int) -> Certificate | None:
    """find_certificate after its charge and screen: one system, solved per r."""
    ctx, n, p = spec.query.ctx, spec.query.n, spec.query.p
    mons = monomials_upto(n, d_max, p)
    c = len(spec.generators)
    support, matrix = _system(spec.generators, mons, p, n)
    rows = set(support)

    target = functional_reduce(spec.query)
    power = target
    for r in range(1, r_max + 1):
        if r > 1:
            power = functional_reduce(power * target)
        if not rows >= power.terms.keys():
            continue  # Q^r has a monomial no column reaches
        rhs = [power.terms.get(e, 0) for e in support]  # no rows: Q^r = 0, zero cofactors
        solution = linalg.solve(matrix.tolist(), rhs, p) if support else [0] * c * len(mons)
        if solution is None:
            continue
        cofactors = tuple(
            MultiPoly(ctx, n, {m: solution[c * j + i] for j, m in enumerate(mons)})
            for i in range(c)
        )
        degree = max((sum(mons[u // c]) for u, v in enumerate(solution) if v), default=0)
        cert = Certificate(r=r, cofactors=cofactors, degree_cap=degree)
        if not cert.verify(spec):
            raise InternalConsistencyError(
                f"certificate at (r={r}, D={degree}) failed re-verification"
            )
        return cert
    return None


def weak_certificate(generators, d_max: int, caps: Caps = DEFAULT_CAPS) -> Certificate | None:
    """Certificate of sum R_i P_i = 1 (no common zero), exponent fixed to 1."""
    generators = tuple(generators)
    if not generators:
        raise InputError("need at least one generator")
    one = MultiPoly.constant(generators[0].ctx, generators[0].n, 1)
    return find_certificate(IdealSpec(generators, one), d_max, r_max=1, caps=caps)


def vanishes_on_variety(spec: IdealSpec, caps: Caps = DEFAULT_CAPS) -> bool:
    """Brute-force oracle: Q(x) = 0 at every common zero of the generators."""
    p, n = spec.query.p, spec.query.n
    caps.require("enum_cap", p ** n)
    zeros = (_value_rows(spec.generators, p ** n) == 0).all(axis=0)
    return not (spec.query.eval_table() != 0)[zeros].any()


@dataclass(frozen=True)
class RadicalReport:
    member: bool
    certificate: Certificate | None
    oracle_agrees: bool  # true: only members are searched, and certificates are verified
    route: str  # "direct", "rabinowitsch", or "oracle-only"


def radical_membership(
    spec: IdealSpec, d_max: int, caps: Caps = DEFAULT_CAPS, direct_r_max: int = 2
) -> RadicalReport:
    """Decide Q in the radical of <P_1..P_c> by the exhaustive vanishing oracle.

    A non-member gets route "oracle-only" and no search, as none can succeed:
    Q(x) != 0 at a common zero x, so Q^r = sum R_i P_i fails at x, and so does
    the extended sum at y = Q(x)^-1.  Its input check and both unknowns_cap
    charges are still made, in the searches' order.  A member gets a direct
    power certificate if one exists, else one of the extended system with the
    generator 1 - y*Q in one extra variable.
    """
    ctx, n, p = spec.query.ctx, spec.query.n, spec.query.p
    member = vanishes_on_variety(spec, caps)  # the only screen: find_certificate's would repeat it
    _charge_search(n, p, d_max, direct_r_max, caps)
    cert = _search(spec, d_max, direct_r_max) if member else None
    if cert is not None:
        return RadicalReport(member=True, certificate=cert, oracle_agrees=True, route="direct")
    _charge_search(n + 1, p, d_max, 1, caps)
    if member:  # 1 - y*Q has no zero on V, where Q = 0, so this system has no common zero
        extended = [extend_variables(g, n + 1) for g in spec.generators]
        y, q = MultiPoly.variable(ctx, n + 1, n + 1), extend_variables(spec.query, n + 1)
        extended.append(MultiPoly.constant(ctx, n + 1, 1) - y * q)
        cert = _search(IdealSpec(extended, MultiPoly.constant(ctx, n + 1, 1)), d_max, 1)
    route = "rabinowitsch" if cert is not None else "oracle-only"
    return RadicalReport(member=member, certificate=cert, oracle_agrees=True, route=route)
