"""From bias to explicit low-rank structure.

approx_decompose realizes the sampled-derivative approximation: draw k
auxiliary points z, emit one derivative of f per distinct nonzero direction
among the small-weight combinations b.z (a zero or repeated direction adds
nothing), and fit the outer lookup table empirically (the most consistent
value per observed derivative tuple, ties to the smallest lift).  The
existential choice of z becomes a seeded retry loop with an explicit error
target of 2*p^-t.  Each attempt makes one derivative_family call: terms
from one expansion of f(x + h), h symbolic (<= 256 m pairs multiply-adds),
and tables T[x + h] - T[x] from f's table where p^n <= enum_cap (m n p^n).

exact_decompose chains that with factor regularization and a per-atom
value table, and certifies exactness by exhaustive check at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import factor as factor_mod
from . import linalg
from .bias import BIAS_TOL, CharacterSum, exact_bias, sampled_bias
from .config import Caps, DEFAULT_CAPS, DecomposeConfig, RegularizeConfig
from .errors import (
    CapExceeded,
    DecompositionFailed,
    InputError,
    PartialResultError,
    PreconditionError,
    UnsupportedError,
)
from .ffpoly import (
    LookupTable, MultiPoly, _value_rows, derivative_family, hessians, monomials_upto, sample_points,
)

INFINITE_RANK = float("inf")
_PIPELINE_RETRIES = 4  # full pipeline reruns when measurability fails


@dataclass
class Decomposition:
    """Lower-degree polynomials plus the outer lookup table reproducing f."""

    polys: list[MultiPoly]
    gamma: LookupTable
    directions: list[tuple[int, ...]] | None
    claimed_error: float
    exact: bool
    k: int | None = None
    attempts: int = 1


def _check_bias(f: MultiPoly, s: int, caps: Caps, trust_bias: bool) -> CharacterSum:
    if f.p ** f.n <= caps.enum_cap:
        mu = exact_bias(f, caps)
    elif trust_bias:
        mu = sampled_bias(f, 4096, 0)
    else:
        raise CapExceeded(
            "bias precondition cannot be verified exhaustively; pass trust_bias=True"
        )
    if mu.magnitude < f.p ** (-s) - BIAS_TOL:
        raise PreconditionError(
            f"|bias| = {mu.magnitude:.6g} below threshold p^-{s} = {f.p ** (-s):.6g}"
        )
    return mu


def _fit_table(f, polys, caps, samples, rng):
    """Plurality table over observed derivative tuples, plus the miss rate."""
    p, n = f.p, f.n
    if p ** n <= caps.enum_cap:
        pts, values = None, f.eval_table()
    else:
        pts = sample_points(rng, p, n, samples)
        values = f.eval_points(pts)
    table, hits, _ = factor_mod._plurality_vote(_value_rows(polys, len(values), pts), values, p)
    return table, 1.0 - hits / len(values)


def approx_decompose(
    f: MultiPoly,
    s: int,
    t: int,
    seed: int = 0,
    retries: int = 16,
    caps: Caps = DEFAULT_CAPS,
    trust_bias: bool = False,
    k_override: int | None = None,
    error_samples: int = 4096,
) -> Decomposition:
    """Approximate f by a lookup table over derivatives of f.

    polys holds D_h f once per distinct nonzero h = b.z (b of weight <= deg f),
    in the graded order of its first b.  Retries with fresh auxiliary points
    until the measured disagreement probability is at most 2*p^-t; raises
    DecompositionFailed (carrying the best attempt) if no retry meets it.
    """
    _check_bias(f, s, caps, trust_bias)
    p, n, d = f.p, f.n, f.degree()
    k = k_override if k_override is not None else t + 2 * s + 3
    dtype = np.int64 if k * (p - 1) ** 2 < 2**63 else object  # basis @ z stays exact
    basis = np.array(monomials_upto(k, d, p), dtype=dtype, ndmin=2)
    tables = p ** n <= caps.enum_cap  # as in _fit_table, which then reads them
    target = 2.0 * p ** (-t)

    best: Decomposition | None = None
    for attempt in range(max(1, retries)):
        rng = np.random.default_rng([seed, attempt])
        z = sample_points(rng, p, n, k).astype(dtype)
        # one derivative per distinct nonzero direction, at its first b in graded order
        dirs = [h for h in dict.fromkeys(map(tuple, (basis @ z % p).tolist())) if any(h)]
        polys = derivative_family(f, dirs, tables)
        table, err = _fit_table(f, polys, caps, error_samples, rng)
        dec = Decomposition(
            polys=polys,
            gamma=table,
            directions=dirs,
            claimed_error=err,
            exact=False,
            k=k,
            attempts=attempt + 1,
        )
        if best is None or err < best.claimed_error:
            best = dec
        if err <= target + 1e-12:
            return dec
    raise DecompositionFailed(
        f"no attempt reached error target {target:.6g} in {retries} retries", best=best
    )


def decomposition_error(
    f: MultiPoly,
    dec: Decomposition,
    mode: str = "exact",
    samples: int = 4096,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """Disagreement probability Pr_x[f(x) != gamma(g_1(x), ..., g_c(x))]."""
    if not dec.polys and not dec.gamma.is_total():
        raise PreconditionError("empty decomposition with a partial table")
    p, n = f.p, f.n
    if mode == "exact":
        caps.require("enum_cap", p ** n)
        pts, values = None, f.eval_table()
    elif mode == "sampled":
        pts = sample_points(np.random.default_rng(seed), p, n, samples)
        values = f.eval_points(pts)
    else:
        raise InputError(f"unknown mode {mode!r}")
    keys, ids = factor_mod.atom_ids(_value_rows(dec.polys, len(values), pts))
    predicted = np.array([dec.gamma(key) for key in keys.tolist()], dtype=values.dtype)
    return int(np.count_nonzero(predicted[ids] != values)) / len(values)


def _bias_exponent(magnitude: float, p: int) -> int:
    """Smallest s >= 1 with magnitude >= p^-s (within tolerance)."""
    s = 1
    while magnitude < p ** (-s) - BIAS_TOL:
        s += 1
    return s


def exact_decompose(f: MultiPoly, s: int, config: DecomposeConfig | None = None) -> Decomposition:
    """Exact decomposition: approximate, regularize, read off per-atom values.

    Exactness means f is constant on every nonempty atom of the regularized
    factor, certified by exhaustive check; the enumeration cap is a hard
    requirement because sampled evidence never earns the exact flag.
    """
    config = config or DecomposeConfig()
    caps = config.caps
    p, n = f.p, f.n
    caps.require("enum_cap", p ** n)
    mu = _check_bias(f, s, caps, trust_bias=False)
    s_eff = min(s, _bias_exponent(mu.magnitude, p))

    best_agreement = -1.0
    diagnostics: dict = {}
    for attempt in range(_PIPELINE_RETRIES):
        approx = approx_decompose(
            f,
            s_eff,
            t=config.t,
            seed=int(np.random.default_rng([config.seed, 7, attempt]).integers(1 << 62)),
            retries=config.retries,
            caps=caps,
        )
        reg_s = s + 1 + attempt  # escalate the regularity level per rerun
        regular = factor_mod.regularize(
            factor_mod.PolynomialFactor(approx.polys), reg_s, RegularizeConfig(decompose=config)
        )
        table, exact, agreement = factor_mod.measurable_table(f, regular, caps)
        if exact:
            return Decomposition(
                polys=list(regular.polys),
                gamma=table,
                directions=None,
                claimed_error=0.0,
                exact=True,
                k=approx.k,
                attempts=attempt + 1,
            )
        if agreement > best_agreement:
            best_agreement = agreement
            diagnostics = {"agreement": agreement, "factor_size": regular.c, "reg_s": reg_s}
    raise PartialResultError(
        f"f is not measurable after {_PIPELINE_RETRIES} pipeline attempts "
        f"(best agreement {best_agreement:.6g})",
        diagnostics=diagnostics,
    )


def quadratic_rank(f: MultiPoly) -> int | float:
    """Rank of a degree <= 2 polynomial from its Hessian (p odd).

    Returns ceil(m/2) for matrix rank m of the quadratic part; degree <= 1
    polynomials follow the order-1 convention: 0 when constant, infinity
    otherwise.
    """
    if f.p == 2:
        raise UnsupportedError("quadratic rank needs an odd prime (1/2 must exist)")
    if f.degree() > 2:
        raise PreconditionError(f"degree {f.degree()} > 2")
    quad = {e: c for e, c in f.terms.items() if sum(e) == 2}
    if not quad:
        return 0 if f.is_constant() else INFINITE_RANK
    e, c = np.array(list(quad), dtype=object), np.array(list(quad.values()), dtype=object)
    return (linalg.rank(hessians(e, c), f.p) + 1) // 2
