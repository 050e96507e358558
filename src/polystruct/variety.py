"""Rational-point counting on low-degree varieties.

The regularized counter refines the generators into a bias-regular factor,
reads each generator off the atoms (exact by semantic refinement), scans
the reduced space, and multiplies by the atom volume p^(n-c').  Emptiness
of the reduced zero set is equivalent to emptiness of the variety because
only nonempty atoms enter the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Caps, DEFAULT_CAPS, RegularizeConfig
from .errors import InputError, InternalConsistencyError
from .factor import PolynomialFactor, atom_ids, regularize
from .ffpoly import FieldCtx, _value_rows


@dataclass(frozen=True)
class VarietyReport:
    exact_count: int | None
    approx_count: int | None
    reduced_dimension: int | None
    empty: bool
    method: str  # "exhaustive" | "regularized" | "sampled"


def _ambient(generators, ctx: FieldCtx | None, n: int | None) -> tuple[FieldCtx, int]:
    generators = list(generators)
    if generators:
        g0 = generators[0]
        if any(g.p != g0.p or g.n != g0.n for g in generators):
            raise InputError("generators must share field and variable count")
        return g0.ctx, g0.n
    if ctx is None or n is None:
        raise InputError("empty generator list needs explicit ctx and n")
    return ctx, n


def count_points_exact(
    generators,
    ctx: FieldCtx | None = None,
    n: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> VarietyReport:
    """|{x : P_i(x) = 0 for all i}| by full enumeration."""
    generators = list(generators)
    ctx, n = _ambient(generators, ctx, n)
    size = ctx.p ** n
    caps.require("enum_cap", size)
    count = int(np.count_nonzero((_value_rows(generators, size) == 0).all(axis=0)))
    return VarietyReport(
        exact_count=count,
        approx_count=None,
        reduced_dimension=None,
        empty=(count == 0),
        method="exhaustive",
    )


def count_points_regularized(
    generators,
    s: int,
    config: RegularizeConfig | None = None,
    ctx: FieldCtx | None = None,
    n: int | None = None,
) -> VarietyReport:
    """Approximate count p^(n-c') * |zeros of the reduced system|."""
    config = config or RegularizeConfig()
    caps = config.decompose.caps
    generators = list(generators)
    ctx, n = _ambient(generators, ctx, n)
    p = ctx.p
    if not generators:
        return VarietyReport(None, p ** n, 0, False, "regularized")
    regular = regularize(PolynomialFactor(generators), s, config)
    cprime = regular.c
    caps.require("enum_cap", p ** n)
    _, ids = atom_ids(_value_rows(regular.polys, p ** n))
    values = _value_rows(generators, p ** n)
    firsts = np.unique(ids, return_index=True)[1]  # each atom's first point
    if (values[:, firsts[ids]] != values).any():
        raise InternalConsistencyError(
            "generators not measurable over their own regularization; "
            "semantic refinement was violated"
        )
    # the generators are constant on each atom: count the nonempty atoms of common zeros
    reduced_zeros = len(np.unique(ids[(values == 0).all(axis=0)]))
    approx = p ** (n - cprime) * reduced_zeros
    return VarietyReport(
        exact_count=None,
        approx_count=approx,
        reduced_dimension=cprime,
        empty=(reduced_zeros == 0),
        method="regularized",
    )


@dataclass(frozen=True)
class SolutionProfile:
    exact_count: int
    reduced_dimension: int
    reduced_zero_count: int
    u: int
    cw_bound: float
    cw_holds: bool
    axkatz_bound: int
    axkatz_holds: bool
    interval: tuple[float, float]
    in_interval: bool


def solution_profile(
    generators,
    s: int,
    config: RegularizeConfig | None = None,
    ctx: FieldCtx | None = None,
    n: int | None = None,
) -> SolutionProfile:
    """Exact count plus structural lower-bound checks at the achieved c'.

    Flags: the strengthened Chevalley-Warning bound p^(n-c')(1 - p^-s), the
    Ax-Katz bound p^(n/d - c), and membership of the count in the interval
    indexed by the reduced zero-set size with accuracy exponent u = s - c'.
    """
    config = config or RegularizeConfig()
    generators = list(generators)
    ctx, n = _ambient(generators, ctx, n)
    p = ctx.p
    exact = count_points_exact(generators, ctx, n, config.decompose.caps).exact_count
    reg = count_points_regularized(generators, s, config, ctx, n)
    cprime = reg.reduced_dimension
    reduced_zeros = reg.approx_count // (p ** (n - cprime)) if cprime is not None else 0

    nonempty = exact > 0
    cw_bound = p ** (n - cprime) * (1.0 - p ** (-s))
    cw_holds = (not nonempty) or exact >= cw_bound
    c = max(1, len(generators))
    d = max([g.degree() for g in generators] + [1])
    axkatz_bound = math.floor(p ** (n / d - c))
    axkatz_holds = (not nonempty) or exact >= axkatz_bound
    u = s - cprime
    lo = reduced_zeros * p ** (n - cprime) * (1.0 - p ** float(-u))
    hi = reduced_zeros * p ** (n - cprime) * (1.0 + p ** float(-u))
    return SolutionProfile(
        exact_count=exact,
        reduced_dimension=cprime,
        reduced_zero_count=reduced_zeros,
        u=u,
        cw_bound=cw_bound,
        cw_holds=cw_holds,
        axkatz_bound=axkatz_bound,
        axkatz_holds=axkatz_holds,
        interval=(lo, hi),
        in_interval=(lo <= exact <= hi),
    )
