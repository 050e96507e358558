"""The three workloads: seeded job lists, the timed call of each job, and its
output check.

A job is a kind plus a spec of plain data.  `run(job)` is the timed part: it
builds the polynomials from the spec and calls the public library API (or
`cli.dispatch` for the certificate jobs), returning the output and
whether it is a full result.  `check(job, output)` runs untimed and compares
the output with `polystruct.oracle` or a closed form.  Oracle answers that
depend only on the spec are memoised in the spec, so later passes over the
same list do not pay for them again.
"""

from __future__ import annotations

import functools
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from polystruct import bias, cli, decompose, factor, oracle, rmcode, variety
from polystruct.config import DecomposeConfig, RegularizeConfig
from polystruct.errors import DecompositionFailed, PartialResultError
from polystruct.ffpoly import FieldCtx, MultiPoly, parse_poly

import gen

TOL = 1e-9
SE_BOUND = 5.0  # sampled estimates must lie within 5 standard errors


@dataclass
class Job:
    kind: str
    spec: dict


def _poly(p: int, n: int, terms: dict) -> MultiPoly:
    return MultiPoly(FieldCtx(p), n, terms)


def _polys(spec: dict) -> list[MultiPoly]:
    return [_poly(spec["p"], spec["n"], t) for t in spec["gens"]]


def _otab(f: MultiPoly) -> tuple[int, ...]:
    return oracle.table_of(f).values


def _memo(spec: dict, key: str, make):
    if key not in spec:
        spec[key] = make()
    return spec[key]


def _regularize_config(spec: dict) -> RegularizeConfig:
    return RegularizeConfig(decompose=DecomposeConfig(seed=spec["seed"]))


def _oracle_zero_count(spec: dict) -> int:
    return _memo(spec, "_zeros", lambda: oracle.oracle_count_zeros(
        [oracle.table_of(g) for g in _polys(spec)]))


# -- structure -----------------------------------------------------------------
#
# Point counts, profiles, regularization and exact decomposition of random
# degree <= 2 factors over F_3 (n = 2..5) and F_5 (n = 2..3), c = 1..3.

STRUCTURE_FIELDS = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]


def _seed(rng) -> int:
    return int(rng.integers(1 << 30))


def structure_round(rng: np.random.Generator) -> list[Job]:
    def factor_spec(p, n, c, s):
        gens = [gen.random_terms(rng, p, n, 2) for _ in range(c)]
        return {"p": p, "n": n, "gens": gens, "s": s, "seed": _seed(rng)}

    jobs = []
    for p, n in STRUCTURE_FIELDS:
        for c in (1, 2, 3):
            jobs.append(Job("count_exact", factor_spec(p, n, c, 0)))
            if (p, n, c) == (5, 3, 3):
                continue  # bimodal: 0.1 s or 1.5 s, whichever scan finds a bias
            jobs.append(Job("count_regularized", factor_spec(p, n, c, 1)))
            s = 2 if p ** n <= 81 and (n, c) != (4, 3) else 1
            jobs.append(Job("regularize", factor_spec(p, n, c, s)))
        while True:
            terms = gen.random_full_degree(rng, p, n, 2)
            mag = gen.bias_magnitude(p, n, terms)
            if mag > TOL:
                break
        s = 1
        while mag < p ** (-s) - TOL:
            s += 1
        jobs.append(Job("exact_decompose",
                        {"p": p, "n": n, "gens": [terms], "s": s, "seed": _seed(rng)}))
    for p, n in [(3, 2), (3, 3), (3, 4), (5, 2)]:
        for c in (1, 2):
            jobs.append(Job("profile", factor_spec(p, n, c, 2)))
    return jobs


def _run_count_exact(spec):
    return variety.count_points_exact(_polys(spec)), True


def _check_count_exact(spec, rep):
    zeros = _oracle_zero_count(spec)
    return rep.exact_count == zeros and rep.empty == (zeros == 0)


def _run_count_regularized(spec):
    try:
        rep = variety.count_points_regularized(
            _polys(spec), spec["s"], _regularize_config(spec))
    except PartialResultError:
        return None, False
    return rep, True


def _check_count_regularized(spec, rep):
    return rep is None or rep.empty == (_oracle_zero_count(spec) == 0)


def _run_regularize(spec):
    coarse = factor.PolynomialFactor(_polys(spec))
    try:
        regular = factor.regularize(coarse, spec["s"], _regularize_config(spec))
    except PartialResultError:
        return None, False
    refines = factor.semantic_refines(regular, coarse)
    hist = factor.atom_histogram(regular) if regular.polys else None
    return (regular, refines, hist), True


def _check_regularize(spec, out):
    if out is None:
        return True
    regular, refines, hist = out
    fine = [_otab(g) for g in regular.polys]
    coarse = [_otab(g) for g in _polys(spec)]
    size = spec["p"] ** spec["n"]
    fine_atoms = [tuple(t[i] for t in fine) for i in range(size)]
    seen: dict = {}
    for i, atom in enumerate(fine_atoms):
        if seen.setdefault(atom, tuple(t[i] for t in coarse)) != tuple(t[i] for t in coarse):
            return False
    if not refines:
        return False
    if hist is None:
        return not regular.polys
    expected: dict = {}
    for atom in fine_atoms:
        expected[atom] = expected.get(atom, 0) + 1
    return hist == expected


def _run_exact_decompose(spec):
    (f,) = _polys(spec)
    try:
        dec = decompose.exact_decompose(f, spec["s"], DecomposeConfig(seed=spec["seed"]))
    except PartialResultError:
        return None, False
    return dec, dec.exact


def _check_exact_decompose(spec, dec):
    if dec is None:
        return True
    (f,) = _polys(spec)
    ftab = _otab(f)
    cols = [_otab(g) for g in dec.polys]
    return all(
        dec.gamma(tuple(col[i] for col in cols)) == v for i, v in enumerate(ftab)
    )


def _run_profile(spec):
    try:
        prof = variety.solution_profile(_polys(spec), spec["s"], _regularize_config(spec))
    except PartialResultError:
        return None, False
    return prof, True


def _check_profile(spec, prof):
    return prof is None or prof.exact_count == _oracle_zero_count(spec)


# -- certificates (pointwise workload) -----------------------------------------
#
# CLI argv for nss, weak-nss and radical over p in {3, 5}, n = 1..3,
# dmax 3..4, run in-process through cli.dispatch.


def _to_text(terms: dict) -> str:
    parts = []
    for e, c in sorted(terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        factors = [str(c)] + [
            f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k
        ]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def _vanishes(p, n, gens, q) -> bool:
    common = np.ones(p ** n, dtype=bool)
    for g in gens:
        common &= gen.values(p, n, g) == 0
    return not np.any(gen.values(p, n, q)[common])


def _nonzero_gens(rng, p, n, c):
    while True:
        gens = [gen.random_terms(rng, p, n, 2) for _ in range(c)]
        if any(gens):
            return [g or {(0,) * n: 1} for g in gens]


def _nss_instance(rng, kind, p, n):
    """Generators and a query that vanishes on their variety (as in criterion 05)."""
    for _ in range(2000):
        gens = _nonzero_gens(rng, p, n, int(rng.integers(1, 3)))
        if kind == "combo":
            q = gen.terms_add(p, *[(int(rng.integers(0, p)), g) for g in gens])
        elif kind == "power":
            lin = gen.random_terms(rng, p, n, 1)
            if not any(sum(e) == 1 for e in lin):
                continue
            gens[0] = gen.terms_mul(p, lin, lin)
            q = lin
        else:
            q = gen.random_terms(rng, p, n, 2)
        if _vanishes(p, n, gens, q):
            return gens, q
    raise RuntimeError(f"no {kind} instance found for p={p}, n={n}")


def _argv(cmd, p, n, gens, dmax, q=None):
    argv = [cmd, "--p", str(p), "--n", str(n),
            "--gens", ";".join(_to_text(g) for g in gens), "--dmax", str(dmax)]
    if q is not None:
        argv += ["--q", _to_text(q)]
    return argv


CERT_FIELDS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]


def certificate_round(rng: np.random.Generator) -> list[Job]:
    jobs = []

    def dmax():
        return int(rng.integers(3, 5))

    for kind in ("combo", "power", "random"):
        for p, n in CERT_FIELDS:
            if kind == "random" and (p, n) == (5, 3):
                continue  # a random query almost never vanishes there
            gens, q = _nss_instance(rng, kind, p, n)
            jobs.append(Job("nss", {"p": p, "n": n, "gens": gens, "q": q,
                                    "argv": _argv("nss", p, n, gens, dmax(), q)}))
    for p, n in CERT_FIELDS:
        for _ in range(50):
            gens = _nonzero_gens(rng, p, n, int(rng.integers(2, 4)))
            if not _vanishes(p, n, gens, {(0,) * n: 1}):
                break
        else:
            gens.append(gen.terms_add(p, (1, gens[0]), (1, {(0,) * n: 1})))
        jobs.append(Job("weak_nss", {"p": p, "n": n, "gens": gens,
                                     "argv": _argv("weak-nss", p, n, gens, dmax())}))
    for p, n in CERT_FIELDS:
        for d in (3, 4):
            gens = _nonzero_gens(rng, p, n, int(rng.integers(1, 3)))
            q = gen.random_terms(rng, p, n, 2)
            jobs.append(Job("radical", {"p": p, "n": n, "gens": gens, "q": q,
                                        "argv": _argv("radical", p, n, gens, d, q)}))
    return jobs


def _run_cli(spec):
    out = io.StringIO()
    code = cli.dispatch(spec["argv"], out)
    payload = json.loads(out.getvalue()) if code == 0 else None
    if payload is None:
        return (code, None), False
    if "member" in payload:
        solved = payload["certificate"] is not None or not payload["member"]
    else:
        solved = payload["found"]
    return (code, payload), solved


def _identity_holds(p, n, lhs, cofactor_texts, gens) -> bool:
    """lhs == sum_i R_i * P_i at every point of F_p^n, on oracle tables."""
    ctx = FieldCtx(p)
    rtabs = [_otab(parse_poly(t, ctx, n)) for t in cofactor_texts]
    gtabs = [_otab(MultiPoly(ctx, n, g)) for g in gens]
    return all(
        sum(r[i] * g[i] for r, g in zip(rtabs, gtabs)) % p == v
        for i, v in enumerate(lhs)
    )


def _check_cli(job, out):
    code, payload = out
    spec = job.spec
    if code != 0:
        return False
    p, n, gens = spec["p"], spec["n"], spec["gens"]
    ctx = FieldCtx(p)
    if job.kind == "radical":
        gtabs = [_otab(MultiPoly(ctx, n, g)) for g in gens]
        qtab = _otab(MultiPoly(ctx, n, spec["q"]))
        vanishes = all(v == 0 for i, v in enumerate(qtab) if not any(t[i] for t in gtabs))
        if payload["member"] != vanishes or not payload["oracle_agrees"]:
            return False
    cert = payload["certificate"]
    if cert is None:
        return True
    if job.kind == "nss" or (job.kind == "radical" and payload["route"] == "direct"):
        q = _otab(MultiPoly(ctx, n, spec["q"]))
        lhs = [pow(v, cert["r"], p) for v in q]
        return _identity_holds(p, n, lhs, cert["cofactors"], gens)
    if job.kind == "weak_nss":
        return _identity_holds(p, n, [1] * p ** n, cert["cofactors"], gens)
    # Rabinowitsch route: sum R_i P_i + R_y (1 - y Q) == 1 in n + 1 variables
    ext = [{e + (0,): c for e, c in g.items()} for g in gens]
    ext.append(gen.terms_add(p, (1, {(0,) * (n + 1): 1}),
                             (-1, {e + (1,): c for e, c in spec["q"].items()})))
    return _identity_holds(p, n + 1, [1] * p ** (n + 1), cert["cofactors"], ext)


# -- codes ----------------------------------------------------------------------
#
# RM list decoding, list-size profiles, rank graphs and minimum distance over
# a few codes including RM(5,2,2) with 15,625 codewords; exact Gowers norms
# and the simplex Fourier and weak-regularity toolkit at n <= 3.

BIG_CODE = (5, 2, 2)
LIST_CODES = [(3, 2, 2), (5, 1, 2), (5, 2, 1), (3, 2, 1)]
PROFILE_CODES = [(5, 1, 2), (3, 2, 1), (3, 1, 2), (5, 2, 1)]
ALL_CODES = sorted({BIG_CODE, *LIST_CODES, *PROFILE_CODES})
UNIQUE_RADIUS = 0.28  # below half the minimum distance 3/5 of RM(5,2,2)


def codes_warmup() -> None:
    """Build every codebook once; the jobs then reuse the program's cache."""
    for code in ALL_CODES:
        rmcode.enumerate_codewords(rmcode.RMParams(*code))


@functools.lru_cache(maxsize=None)
def _codebook(p, n, d) -> np.ndarray:
    """All codeword tables as rows, from the coefficient grid (reference)."""
    mons = gen.monomials(n, d)
    pts = np.indices((p,) * n).reshape(n, -1).T
    basis = np.array([np.prod(pts ** np.array(e), axis=1) % p for e in mons])
    grid = np.indices((p,) * len(mons)).reshape(len(mons), -1).T
    return grid @ basis % p


def _radius_for_list(code, center, size: int) -> float:
    """The smallest radius whose list around center has at least `size` words."""
    book = _codebook(*code)
    dist = np.sort((book != np.array(center)).sum(axis=1))
    return int(dist[size - 1]) / book.shape[1]


def codes_round(rng: np.random.Generator) -> list[Job]:
    def center(code):
        p, n, _ = code
        return tuple(int(v) for v in rng.integers(0, p, p ** n))

    jobs = []
    p, n, d = BIG_CODE
    mons = gen.monomials(n, d)
    for _ in range(4):
        planted = {e: int(c) for e, c in zip(mons, rng.integers(0, p, len(mons))) if c}
        table = gen.values(p, n, planted)
        noisy = table.copy()
        flips = rng.choice(p ** n, size=int(rng.integers(0, 8)), replace=False)
        noisy[flips] = (noisy[flips] + rng.integers(1, p, size=len(flips))) % p
        jobs.append(Job("list_unique", {"code": BIG_CODE, "planted": tuple(int(v) for v in table),
                                        "center": tuple(int(v) for v in noisy),
                                        "radius": UNIQUE_RADIUS}))
    for code in LIST_CODES:
        radii = [0.34, 0.45, 0.56, 0.67] if code[0] == 3 else [0.4, 0.6, 0.7]
        jobs.append(Job("list_small", {"code": code, "center": center(code),
                                       "radius": float(rng.choice(radii))}))
    for code in PROFILE_CODES:
        for s in (1, 2):
            jobs.append(Job("list_profile", {"code": code, "s": s}))
    for code, size in [(BIG_CODE, 250), (BIG_CODE, 250), ((3, 2, 2), 60), ((3, 2, 2), 60)]:
        c = center(code)
        jobs.append(Job("rank_graph", {"code": code, "center": c, "k": 1,
                                       "radius": _radius_for_list(code, c, size)}))
    for code in [BIG_CODE, *LIST_CODES]:
        jobs.append(Job("min_distance", {"code": code}))
    for p, n in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        jobs.append(Job("gowers", {"p": p, "n": n, "gens": [gen.random_terms(rng, p, n, 2)],
                                   "d_max": 2 if (p, n) == (5, 2) else 3}))
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        jobs.append(Job("fourier", {"p": p, "n": n, "gens": [gen.random_terms(rng, p, n, 2)]}))
    for p, n in [(3, 2), (3, 3), (5, 2)]:
        raw = rng.random((p ** n, p))
        jobs.append(Job("weak_regularity", {
            "p": p, "n": n, "phi": raw / raw.sum(axis=1, keepdims=True),
            "gens": [gen.random_terms(rng, p, n, 1) for _ in range(4)],
            "eps": float(rng.choice([0.3, 0.5]))}))
    return jobs


def _params(spec) -> rmcode.RMParams:
    return rmcode.RMParams(*spec["code"])


def _oracle_list(spec) -> list:
    return _memo(spec, "_list", lambda: oracle.oracle_list_decode(
        *spec["code"], spec["center"], spec["radius"]))


def _run_list(spec):
    return rmcode.list_decode_brute(_params(spec), spec["center"], spec["radius"]), True


def _check_list_unique(spec, result):
    return len(result) == 1 and _otab(result.polys()[0]) == spec["planted"]


def _check_list_small(spec, result):
    return sorted(_otab(f) for f in result.polys()) == _oracle_list(spec)


def _run_profile_codes(spec):
    centers = rmcode.CentersSpec(random_count=0, noisy_count=0, all_codewords=True)
    return rmcode.list_size_profile(_params(spec), spec["s"], centers), True


def _check_profile_codes(spec, prof):
    # The code is linear, so the list around any codeword has the size of the
    # list around the zero word.
    p, n, d = spec["code"]
    zero = (0,) * p ** n
    expected = _memo(spec, "_sizes", lambda: {
        rho: len(oracle.oracle_list_decode(p, n, d, zero, rho))
        for rho in {row.radius for row in prof.rows}})
    count = _params(spec).codeword_count()
    return len(prof.rows) == count * d and all(
        row.list_size == expected[row.radius] for row in prof.rows)


def _run_rank_graph(spec):
    return rmcode.rank_graph_reduction(
        _params(spec), spec["center"], spec["radius"], spec["k"]), True


def _check_rank_graph(spec, rep):
    if spec["code"] == BIG_CODE:
        book = _codebook(*BIG_CODE)
        dist = (book != np.array(spec["center"])).sum(axis=1)
        expected = int((dist <= spec["radius"] * book.shape[1] + 1e-9).sum())
    else:
        expected = len(_oracle_list(spec))
    return rep.list_size == expected and rep.cover_bound_holds and (
        rep.independent_set_size >= 1 or rep.list_size == 0)


def _run_min_distance(spec):
    return rmcode.min_distance_empirical(_params(spec)), True


def _check_min_distance(spec, value):
    p, _, d = spec["code"]
    return value == Fraction(p - d, p)


def _run_gowers(spec):
    (f,) = _polys(spec)
    return [bias.gowers_norm(f, d) for d in range(1, spec["d_max"] + 1)], True


def _check_gowers(spec, norms):
    (f,) = _polys(spec)
    mag = abs(oracle.oracle_bias(oracle.table_of(f)))
    return abs(norms[0] - mag) <= TOL and all(
        a <= b + TOL for a, b in zip(norms, norms[1:]))


def _run_fourier(spec):
    (f,) = _polys(spec)
    return rmcode.simplex_fourier(f), True


def _check_fourier(spec, alphas):
    (f,) = _polys(spec)
    p, n = spec["p"], spec["n"]
    rec = rmcode.fourier_reconstruct(alphas, p, n)
    target = rmcode.SimplexFunction.embed(p, n, table=_otab(f)).centered()
    return float(np.abs(rec.values - target.values).max()) <= TOL


def _run_weak_regularity(spec):
    p, n = spec["p"], spec["n"]
    phi = rmcode.SimplexFunction(p, n, spec["phi"], "delta")
    return rmcode.weak_regularity(phi, _polys(spec), spec["eps"]), True


def _check_weak_regularity(spec, out):
    terms, residual = out
    p, n, eps = spec["p"], spec["n"], spec["eps"]
    if len(terms) > math.ceil(1 / eps ** 2):
        return False
    for g in _polys(spec):
        q = np.full((p ** n, p), -1.0 / p)
        q[np.arange(p ** n), _otab(g)] += 1.0
        if abs(float((residual.values * q).sum()) / p ** n) > eps + TOL:
            return False
    return True


# -- sampled (pointwise workload) ----------------------------------------------
#
# Quadratics over F_3^16 with planted matrix rank m, above the enumeration
# cap, so every estimator evaluates one point at a time.

SAMPLED_P, SAMPLED_N = 3, 16


def sampled_round(rng: np.random.Generator) -> list[Job]:
    p, n = SAMPLED_P, SAMPLED_N

    def planted(ms):
        forms = gen.independent_forms(rng, p, n, sum(ms), 4)
        gens, at = [], 0
        for m in ms:
            gens.append(gen.planted_quadratic(rng, p, forms[at:at + m]))
            at += m
        return gens, forms

    jobs = []
    for m in (2, 4, 6):
        gens, _ = planted([m])
        jobs.append(Job("sampled_bias", {"p": p, "n": n, "gens": gens, "m": m,
                                         "samples": 1000, "seed": _seed(rng)}))
    for m in (2, 4):
        gens, _ = planted([m])
        jobs.append(Job("sampled_gowers", {"p": p, "n": n, "gens": gens, "m": m,
                                           "samples": 300, "seed": _seed(rng)}))
    for ms in [(2, 2), (2, 3), (3, 3)]:
        gens, _ = planted(list(ms))
        jobs.append(Job("sampled_atoms", {"p": p, "n": n, "gens": gens, "m": min(ms),
                                          "samples": 500, "seed": _seed(rng)}))
    for _ in range(2):
        gens, forms = planted([2])
        jobs.append(Job("sampled_decompose", {"p": p, "n": n, "gens": gens, "forms": forms,
                                              "samples": 256, "seed": _seed(rng)}))
    return jobs


def _run_sampled_bias(spec):
    (f,) = _polys(spec)
    return bias.sampled_bias(f, spec["samples"], spec["seed"]), True


def _check_sampled_bias(spec, cs):
    expected = spec["p"] ** (-spec["m"] / 2)
    return abs(cs.magnitude - expected) <= SE_BOUND / math.sqrt(spec["samples"])


def _run_sampled_gowers(spec):
    (f,) = _polys(spec)
    return bias.gowers_norm(f, 2, mode="sampled", samples=spec["samples"],
                            seed=spec["seed"]), True


def _check_sampled_gowers(spec, norm):
    expected = spec["p"] ** (-spec["m"])
    return abs(norm ** 4 - expected) <= SE_BOUND / math.sqrt(spec["samples"])


def _run_sampled_atoms(spec):
    fac = factor.PolynomialFactor(_polys(spec))
    return factor.atom_histogram(fac, samples=spec["samples"], seed=spec["seed"]), True


def _check_sampled_atoms(spec, hist):
    # |Pr[atom] - p^-c| is at most the largest bias of a nonzero combination,
    # and every combination of the factor has matrix rank >= m.
    p, c, samples = spec["p"], len(spec["gens"]), spec["samples"]
    uniform = p ** -c
    slack = p ** (-spec["m"] / 2) + SE_BOUND * math.sqrt(uniform * (1 - uniform) / samples)
    return sum(hist.values()) == samples and all(
        len(a) == c and all(0 <= v < p for v in a) and abs(k / samples - uniform) <= slack
        for a, k in hist.items())


def _run_sampled_decompose(spec):
    (f,) = _polys(spec)
    try:
        dec = decompose.approx_decompose(
            f, 2, 1, seed=spec["seed"], trust_bias=True, k_override=4,
            error_samples=spec["samples"])
    except DecompositionFailed:
        return None, False
    err = decompose.decomposition_error(
        f, dec, mode="sampled", samples=spec["samples"], seed=spec["seed"] + 1)
    return (dec, err), True


def _check_sampled_decompose(spec, out):
    if out is None:
        return True
    dec, err = out
    p = spec["p"]
    # f is a function of the forms l_i; the derivative along h reveals
    # sum_i d_i l_i(h) l_i, so the fit is exact iff the (l_i(h_j)) have rank m.
    images = [[sum(a * b for a, b in zip(form, h)) % p for h in dec.directions]
              for form in spec["forms"]]
    if gen.rank_mod_p(images, p) == len(spec["forms"]):
        return dec.claimed_error == 0.0 and err == 0.0
    return abs(err - dec.claimed_error) <= 2 * SE_BOUND * 0.5 / math.sqrt(spec["samples"])


RUNNERS = {
    "count_exact": (_run_count_exact, _check_count_exact),
    "count_regularized": (_run_count_regularized, _check_count_regularized),
    "regularize": (_run_regularize, _check_regularize),
    "exact_decompose": (_run_exact_decompose, _check_exact_decompose),
    "profile": (_run_profile, _check_profile),
    "nss": (_run_cli, None),
    "weak_nss": (_run_cli, None),
    "radical": (_run_cli, None),
    "list_unique": (_run_list, _check_list_unique),
    "list_small": (_run_list, _check_list_small),
    "list_profile": (_run_profile_codes, _check_profile_codes),
    "rank_graph": (_run_rank_graph, _check_rank_graph),
    "min_distance": (_run_min_distance, _check_min_distance),
    "gowers": (_run_gowers, _check_gowers),
    "fourier": (_run_fourier, _check_fourier),
    "weak_regularity": (_run_weak_regularity, _check_weak_regularity),
    "sampled_bias": (_run_sampled_bias, _check_sampled_bias),
    "sampled_gowers": (_run_sampled_gowers, _check_sampled_gowers),
    "sampled_atoms": (_run_sampled_atoms, _check_sampled_atoms),
    "sampled_decompose": (_run_sampled_decompose, _check_sampled_decompose),
}


def run(job: Job):
    """The timed call: (output, full result?)."""
    return RUNNERS[job.kind][0](job.spec)


def check(job: Job, output) -> bool:
    """The untimed output check against the oracle or a closed form."""
    checker = RUNNERS[job.kind][1]
    return _check_cli(job, output) if checker is None else checker(job.spec, output)


def pointwise_round(rng: np.random.Generator) -> list[Job]:
    """Certificates and sampled estimators: no table above 5^3 points."""
    return certificate_round(rng) + sampled_round(rng)


# name -> (maker of one round of jobs, rounds generated, warm-up)
WORKLOADS = {
    "structure": (structure_round, 20, None),
    "codes": (codes_round, 80, codes_warmup),
    "pointwise": (pointwise_round, 30, None),
}


def build(workload: str, rng: np.random.Generator) -> list[list[Job]]:
    """The job list as rounds; each round holds every template once, shuffled."""
    make_round, count, _ = WORKLOADS[workload]
    rounds = []
    for _ in range(count):
        jobs = make_round(rng)
        rounds.append([jobs[i] for i in rng.permutation(len(jobs))])
    return rounds
