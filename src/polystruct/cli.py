"""Command-line front end with reproducible seeds and machine-readable output.

Exit codes: 0 success, 1 domain or precondition errors (including usage),
2 resource-cap errors, 3 internal-consistency failures.  Identical argv
produces byte-identical output; pass --seed auto to draw a fresh seed,
which is echoed in the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from dataclasses import dataclass

from . import bias as bias_mod
from . import decompose as decompose_mod
from . import factor as factor_mod
from . import nullstellensatz as nss_mod
from . import rmcode as rm_mod
from . import variety as variety_mod
from .config import Caps, DecomposeConfig, RegularizeConfig
from .errors import (
    CapExceeded,
    InputError,
    InternalConsistencyError,
    PolystructError,
)
from .ffpoly import FieldCtx, MultiPoly, extend_variables, graded_key, parse_poly, poly_to_str

SCHEMA = "polystruct/1"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAP = 2
EXIT_BUG = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    caps: Caps
    fmt: str


def _read_polys(raw: str) -> list[str]:
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]
    return [piece for piece in raw.split(";") if piece.strip()]


def _parse_family(raw: str, p: int, n: int | None) -> list[MultiPoly]:
    texts = _read_polys(raw)
    if not texts:
        raise InputError("no polynomials given")
    polys = [parse_poly(t, p, None) for t in texts]
    width = max([g.n for g in polys] + ([n] if n else []))
    return [extend_variables(g, width) for g in polys]


def _build_caps(args) -> Caps:
    return Caps(
        enum_cap=args.cap_enum,
        search_cap=args.cap_search,
        codeword_cap=args.cap_codewords,
        unknowns_cap=args.cap_unknowns,
        reduced_scan_cap=args.cap_reduced,
    )


def _resolve_seed(raw: str) -> int:
    if raw == "auto":
        return secrets.randbits(62)
    return int(raw)


def _emit(payload: dict, fmt: str, out) -> None:
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    elif fmt == "text":
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")
    elif fmt == "csv":
        rows = payload.get("rows")
        if rows is None:
            header = sorted(payload)
            out.write(",".join(header) + "\n")
            out.write(",".join(str(payload[k]) for k in header) + "\n")
        else:
            header = list(rows[0]) if rows else []  # preserve declared column order
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(str(row[k]) for k in header) + "\n")
    else:
        raise InputError(f"unknown format {fmt!r}")


def _character_payload(cs, mode: str, seed: int | None) -> dict:
    return {
        "re": cs.re,
        "im": cs.im,
        "magnitude": cs.magnitude,
        "mode": mode,
        "samples": cs.sample_count,
        "seed": seed,
        "rng": bias_mod.RNG_ALGORITHM,
    }


def _gamma_payload(table, caps: Caps) -> dict | list:
    if table.p ** table.arity <= caps.search_cap and table.is_total():
        return table.to_flat()
    return {
        "entries": [
            [list(k), table.entries[k]] for k in sorted(table.entries, key=graded_key)
        ],
        "default": table.default,
    }


def _cmd_bias(args, run: RunConfig) -> dict:
    f = parse_poly(args.poly, args.p, args.n)
    if args.mode == "exact":
        cs = bias_mod.exact_bias(f, run.caps)
        seed = None
    else:
        cs = bias_mod.sampled_bias(f, args.samples, run.seed)
        seed = run.seed
    return _character_payload(cs, args.mode, seed)


def _cmd_gowers(args, run: RunConfig) -> dict:
    f = parse_poly(args.poly, args.p, args.n)
    value = bias_mod.gowers_norm(
        f, args.d, mode=args.mode, samples=args.samples, seed=run.seed, caps=run.caps
    )
    return {"norm": value, "d": args.d, "mode": args.mode, "seed": run.seed}


def _cmd_decompose(args, run: RunConfig) -> dict:
    f = parse_poly(args.poly, args.p, args.n)
    if args.mode == "approx":
        dec = decompose_mod.approx_decompose(
            f, args.s, args.t, seed=run.seed, retries=args.retries, caps=run.caps
        )
    else:
        config = DecomposeConfig(t=args.t, retries=args.retries, seed=run.seed, caps=run.caps)
        dec = decompose_mod.exact_decompose(f, args.s, config)
    return {
        "polys": [poly_to_str(g) for g in dec.polys],
        "directions": [list(h) for h in dec.directions] if dec.directions is not None else None,
        "gamma": _gamma_payload(dec.gamma, run.caps),
        "claimed_error": dec.claimed_error,
        "exact": dec.exact,
        "seed": run.seed,
        "k": dec.k,
    }


def _cmd_rank2(args, run: RunConfig) -> dict:
    f = parse_poly(args.poly, args.p, args.n)
    value = decompose_mod.quadratic_rank(f)
    return {"rank": "inf" if value == decompose_mod.INFINITE_RANK else value}


def _regularize_config(run: RunConfig) -> RegularizeConfig:
    return RegularizeConfig(decompose=DecomposeConfig(seed=run.seed, caps=run.caps))


def _cmd_regularize(args, run: RunConfig) -> dict:
    polys = _parse_family(args.gens, args.p, args.n)
    regular = factor_mod.regularize(
        factor_mod.PolynomialFactor(polys, pinned_prefix=args.pinned), args.s,
        _regularize_config(run),
    )
    return {
        "polys": [poly_to_str(g) for g in regular.polys],
        "regularity_s": regular.regularity_s,
        "pinned_prefix": regular.pinned_prefix,
        "seed": run.seed,
    }


def _cmd_atoms(args, run: RunConfig) -> dict:
    polys = _parse_family(args.gens, args.p, args.n)
    hist = factor_mod.atom_histogram(
        factor_mod.PolynomialFactor(polys),
        run.caps,
        samples=args.samples,
        seed=run.seed,
    )
    items = sorted(([list(k), v] for k, v in hist.items()), key=lambda kv: kv[0])
    return {"atoms": items, "seed": run.seed}


def _cmd_cubes(args, run: RunConfig) -> dict:
    polys = _parse_family(args.gens, args.p, args.n)
    report = factor_mod.parallelepiped_check(
        factor_mod.PolynomialFactor(polys), args.k, args.samples, seed=run.seed, caps=run.caps
    )
    return {
        "k": report.k,
        "samples": report.samples,
        "support_size": report.support_size,
        "predicted_exponent": report.predicted_exponent,
        "predicted_frequency": report.predicted_frequency,
        "max_deviation": report.max_deviation,
        "seed": run.seed,
    }


def _cmd_table(args, run: RunConfig) -> dict:
    polys = _parse_family(args.gens, args.p, args.n)
    f = parse_poly(args.poly, args.p, polys[0].n)
    f = extend_variables(f, polys[0].n)
    table, exact, agreement = factor_mod.measurable_table(
        f, factor_mod.PolynomialFactor(polys), run.caps
    )
    return {
        "gamma": _gamma_payload(table, run.caps),
        "exact": exact,
        "agreement": agreement,
    }


def _certificate_payload(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "r": cert.r,
        "D": cert.degree_cap,
        "cofactors": [poly_to_str(g) for g in cert.cofactors],
        "verified": True,
    }


def _cmd_nss(args, run: RunConfig) -> dict:
    gens = _parse_family(args.gens, args.p, args.n)
    q = extend_variables(parse_poly(args.q, args.p, None), gens[0].n)
    cert = nss_mod.find_certificate(
        nss_mod.IdealSpec(gens, q), args.dmax, args.rmax, run.caps
    )
    return {"certificate": _certificate_payload(cert), "found": cert is not None}


def _cmd_weak_nss(args, run: RunConfig) -> dict:
    gens = _parse_family(args.gens, args.p, args.n)
    cert = nss_mod.weak_certificate(gens, args.dmax, run.caps)
    return {"certificate": _certificate_payload(cert), "found": cert is not None}


def _cmd_radical(args, run: RunConfig) -> dict:
    gens = _parse_family(args.gens, args.p, args.n)
    q = extend_variables(parse_poly(args.q, args.p, None), gens[0].n)
    report = nss_mod.radical_membership(
        nss_mod.IdealSpec(gens, q), args.dmax, run.caps
    )
    return {
        "member": report.member,
        "certificate": _certificate_payload(report.certificate),
        "oracle_agrees": report.oracle_agrees,
        "route": report.route,
    }


def _cmd_count(args, run: RunConfig) -> dict:
    ctx = FieldCtx(args.p)
    gens = _parse_family(args.gens, args.p, args.n) if args.gens else []
    n = args.n or (gens[0].n if gens else None)
    if n is None:
        raise InputError("need --n when no generators are given")
    gens = [extend_variables(g, n) for g in gens]
    if args.mode == "exact":
        report = variety_mod.count_points_exact(gens, ctx, n, run.caps)
        return {"exact_count": report.exact_count, "empty": report.empty, "method": report.method}
    report = variety_mod.count_points_regularized(gens, args.s, _regularize_config(run), ctx, n)
    return {
        "approx_count": report.approx_count,
        "reduced_dimension": report.reduced_dimension,
        "empty": report.empty,
        "method": report.method,
        "seed": run.seed,
    }


def _cmd_profile(args, run: RunConfig) -> dict:
    gens = _parse_family(args.gens, args.p, args.n)
    prof = variety_mod.solution_profile(gens, args.s, _regularize_config(run))
    return {
        "exact_count": prof.exact_count,
        "reduced_dimension": prof.reduced_dimension,
        "reduced_zero_count": prof.reduced_zero_count,
        "u": prof.u,
        "cw_bound": prof.cw_bound,
        "cw_holds": prof.cw_holds,
        "axkatz_bound": prof.axkatz_bound,
        "axkatz_holds": prof.axkatz_holds,
        "interval": list(prof.interval),
        "in_interval": prof.in_interval,
        "seed": run.seed,
    }


def _rm_params(args) -> rm_mod.RMParams:
    return rm_mod.RMParams(args.p, args.n, args.d)


def _cmd_rm_mindist(args, run: RunConfig) -> dict:
    params = _rm_params(args)
    value = rm_mod.min_distance_empirical(params, run.caps)
    return {
        "min_distance": str(value),
        "formula": str(params.min_distance_formula()),
        "matches": value == params.min_distance_formula(),
    }


def _cmd_rm_listdecode(args, run: RunConfig) -> dict:
    params = _rm_params(args)
    center = parse_poly(args.center, args.p, args.n)
    result = rm_mod.list_decode_brute(params, center, args.radius, run.caps)
    return {
        "list_size": len(result),
        "radius": result.radius,
        "codewords": [
            {"poly": poly_to_str(f), "distance": str(dist)} for f, dist in result.entries
        ],
    }


def _cmd_rm_johnson(args, run: RunConfig) -> dict:
    radius, cap = rm_mod.johnson_bound(args.p, args.eps)
    return {"radius": radius, "list_cap": cap, "eps": args.eps}


def _cmd_rm_profile(args, run: RunConfig) -> dict:
    params = _rm_params(args)
    spec = rm_mod.CentersSpec(
        random_count=args.random_centers,
        noisy_count=args.noisy_centers,
        noise_rate=args.noise,
        all_codewords=args.all_codewords,
    )
    prof = rm_mod.list_size_profile(
        params, args.s, spec, seed=run.seed, caps=run.caps,
        bound_constant=args.bound_constant,
    )
    rows = [
        {"radius": row.radius, "center_kind": row.center_kind, "list_size": row.list_size}
        for row in prof.rows
    ]
    if run.fmt == "csv":
        return {"rows": rows}
    return {
        "rows": rows,
        "max_by_radius": {str(k): v for k, v in prof.max_by_radius.items()},
        "consistent_with_bound": prof.consistent_with_bound,
        "seed": run.seed,
    }


def _cmd_rm_fourier(args, run: RunConfig) -> dict:
    f = parse_poly(args.poly, args.p, args.n)
    alphas = rm_mod.simplex_fourier(f, caps=run.caps)
    entries = sorted(
        ([list(a), b, v] for (a, b), v in alphas.items() if abs(v) > 1e-12),
        key=lambda kv: (kv[0], kv[1]),
    )
    return {"coefficients": entries, "basis_size": len(alphas)}


def _cmd_rm_weakreg(args, run: RunConfig) -> dict:
    family = _parse_family(args.family, args.p, args.n)
    phi = rm_mod.SimplexFunction.embed(
        args.p, family[0].n, table=extend_variables(
            parse_poly(args.poly, args.p, None), family[0].n
        ).eval_table()
    )
    terms, _ = rm_mod.weak_regularity(phi, family, args.eps)
    return {"terms": [[i, a] for i, a in terms], "iterations": len(terms), "eps": args.eps}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="prime modulus")
    parser.add_argument("--n", type=int, default=None, help="variable count")
    parser.add_argument("--seed", default="0", help="64-bit seed or 'auto'")
    parser.add_argument("--format", choices=["json", "text", "csv"], default="json")
    parser.add_argument("--cap-enum", type=int, default=Caps.enum_cap)
    parser.add_argument("--cap-search", type=int, default=Caps.search_cap)
    parser.add_argument("--cap-codewords", type=int, default=Caps.codeword_cap)
    parser.add_argument("--cap-unknowns", type=int, default=Caps.unknowns_cap)
    parser.add_argument("--cap-reduced", type=int, default=Caps.reduced_scan_cap)


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(prog="polystruct", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("bias"); _add_common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    sp.add_argument("--samples", type=int, default=10000)
    sp.set_defaults(func=_cmd_bias)

    sp = subs.add_parser("gowers"); _add_common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    sp.add_argument("--samples", type=int, default=4096)
    sp.set_defaults(func=_cmd_gowers)

    sp = subs.add_parser("decompose"); _add_common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--retries", type=int, default=16)
    sp.add_argument("--mode", choices=["approx", "exact"], default="approx")
    sp.set_defaults(func=_cmd_decompose)

    sp = subs.add_parser("rank2"); _add_common(sp)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=_cmd_rank2)

    sp = subs.add_parser("regularize"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--pinned", type=int, default=0)
    sp.set_defaults(func=_cmd_regularize)

    sp = subs.add_parser("atoms"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(func=_cmd_atoms)

    sp = subs.add_parser("cubes"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(func=_cmd_cubes)

    sp = subs.add_parser("table"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=_cmd_table)

    sp = subs.add_parser("nss"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--rmax", type=int, default=3)
    sp.set_defaults(func=_cmd_nss)

    sp = subs.add_parser("weak-nss"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.set_defaults(func=_cmd_weak_nss)

    sp = subs.add_parser("radical"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.set_defaults(func=_cmd_radical)

    sp = subs.add_parser("count"); _add_common(sp)
    sp.add_argument("--gens", default="")
    sp.add_argument("--mode", choices=["exact", "regularized"], default="exact")
    sp.add_argument("--s", type=int, default=2)
    sp.set_defaults(func=_cmd_count)

    sp = subs.add_parser("profile"); _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--s", type=int, default=2)
    sp.set_defaults(func=_cmd_profile)

    sp = subs.add_parser("rm")
    rm_subs = sp.add_subparsers(dest="rm_command", required=True)
    for name, func in [
        ("mindist", _cmd_rm_mindist), ("listdecode", _cmd_rm_listdecode),
        ("johnson", _cmd_rm_johnson), ("profile", _cmd_rm_profile),
        ("fourier", _cmd_rm_fourier), ("weakreg", _cmd_rm_weakreg),
    ]:
        rp = rm_subs.add_parser(name); _add_common(rp)
        rp.set_defaults(func=func)
        if name in ("mindist", "listdecode", "profile"):
            rp.add_argument("--d", type=int, required=True)
        if name == "listdecode":
            rp.add_argument("--center", required=True)
            rp.add_argument("--radius", type=float, required=True)
        if name == "johnson":
            rp.add_argument("--eps", type=float, required=True)
        if name == "profile":
            rp.add_argument("--s", type=int, default=1)
            rp.add_argument("--random-centers", type=int, default=100)
            rp.add_argument("--noisy-centers", type=int, default=100)
            rp.add_argument("--noise", type=float, default=0.3)
            rp.add_argument("--all-codewords", action="store_true")
            rp.add_argument("--bound-constant", type=float, default=None)
        if name == "fourier":
            rp.add_argument("--poly", required=True)
        if name == "weakreg":
            rp.add_argument("--poly", required=True)
            rp.add_argument("--family", required=True)
            rp.add_argument("--eps", type=float, required=True)
    return parser


def dispatch(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "n", None) is not None and args.n < 0:
            raise InputError("--n must be nonnegative")
        run = RunConfig(
            seed=_resolve_seed(args.seed),
            caps=_build_caps(args),
            fmt=args.format,
        )
        _emit(args.func(args, run), run.fmt, out)
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_DOMAIN
    except CapExceeded as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_CAP
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_BUG
    except PolystructError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
