"""The traced run: wrappers around the public functions of each layer.

`Tracer.install()` replaces every traced function, in every `polystruct`
module namespace that binds it (for example `factor` calls its own imported
`exact_bias`), by a wrapper that records a span: name, start, end, parent
span and job id.  Spans stay in memory and are written once, at the end.
Self time is a span's duration minus the time of its child spans.  Calls of
`MultiPoly.eval`, which runs once per point, are timed and counted but not
stored as spans, so that memory stays flat.  Extra counters are taken at the
same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

from polystruct import rmcode
from polystruct.errors import DecompositionFailed

# layer -> traced public functions ("Class.method" for methods)
LAYERS = {
    "ffpoly": ["MultiPoly.eval_table", "MultiPoly.eval", "functional_reduce", "derivative"],
    "bias": ["exact_bias", "sampled_bias", "gowers_norm"],
    "decompose": ["approx_decompose", "exact_decompose", "quadratic_rank",
                  "decomposition_error"],
    "factor": ["regularize", "find_biased_combination", "combine", "atom_histogram",
               "measurable_table", "semantic_refines"],
    "nullstellensatz": ["find_certificate", "weak_certificate", "radical_membership",
                        "vanishes_on_variety"],
    "linalg": ["solve", "rank"],
    "variety": ["count_points_exact", "count_points_regularized", "solution_profile"],
    "rmcode": ["enumerate_codewords", "list_decode_brute", "list_size_profile",
               "rank_graph_reduction", "min_distance_empirical", "simplex_fourier",
               "weak_regularity"],
    "cli": ["dispatch"],
}
UNSTORED = {"ffpoly.eval"}
MAX_SPANS = 2_000_000


def _metric_name(layer: str, func: str) -> str:
    return f"{layer}.{func.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list[tuple] = []
        self.next_id = 0
        self.stack: list[list] = []  # [span id, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.table_s = 0.0  # inclusive time of eval_table
        self._restore: list[tuple] = []

    # -- counters taken at the boundaries ------------------------------------

    def _before(self, name, args):
        if name == "ffpoly.eval_table":
            return args[0]._table is not None
        return None

    def _after(self, name, bound, token, result, exc):
        c = self.counters
        failed = exc is not None
        if name == "ffpoly.eval_table":
            if token:
                c["ffpoly.eval_table.hits"] += 1
            else:
                f = bound.arguments["self"]
                c["ffpoly.eval_table.points"] += f.p ** f.n
        elif name == "bias.sampled_bias":
            c["bias.sampled_bias.samples"] += bound.arguments["samples"]
        elif name == "bias.gowers_norm":
            a = bound.arguments
            f, d = a["f"], a["d"]
            if a.get("mode", "exact") == "exact":
                c["bias.gowers_norm.tuples"] += f.p ** (f.n * (d + 1))
            else:
                c["bias.gowers_norm.tuples"] += a.get("samples", 4096) * 2 ** d
        elif name == "decompose.approx_decompose":
            if isinstance(exc, DecompositionFailed):
                c["decompose.approx_decompose.attempts"] += max(
                    1, bound.arguments.get("retries", 16))
            elif not failed:
                c["decompose.approx_decompose.attempts"] += result.attempts
            c["decompose.approx_decompose.successes"] += not failed
        elif name == "factor.find_biased_combination":
            c["factor.find_biased_combination.hits"] += (not failed and result is not None)
        elif name == "nullstellensatz.find_certificate":
            c["nullstellensatz.find_certificate.found"] += (not failed and result is not None)
        elif name == "linalg.solve":
            rows = bound.arguments["rows"]
            c["linalg.solve.unknowns"] += len(rows[0]) if rows else 0
            c["linalg.solve.solvable"] += (not failed and result is not None)
        elif name == "variety.count_points_regularized" and not failed:
            c["variety.count_points_regularized.reduced_dim"] += result.reduced_dimension
        elif name in ("rmcode.list_decode_brute", "rmcode.min_distance_empirical"):
            c["rmcode.comparisons"] += bound.arguments["params"].codeword_count()
        elif name == "rmcode.list_size_profile":
            a = bound.arguments
            spec, params = a["centers"], a["params"]
            words = params.codeword_count()
            centers = spec.random_count + spec.noisy_count + (words if spec.all_codewords else 0)
            c["rmcode.comparisons"] += words * centers * params.d
        elif name == "cli.dispatch":
            c["cli.dispatch.nonzero_exits"] += failed or result != 0

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        store = name not in UNSTORED
        sig = inspect.signature(fn)
        plain = name in ("ffpoly.eval", "ffpoly.functional_reduce", "ffpoly.derivative",
                         "factor.combine", "decompose.quadratic_rank", "linalg.rank")

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = None if plain else tracer._before(name, args)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            if store:
                frame = [tracer.next_id, 0.0]
                tracer.next_id += 1
            else:
                frame = [parent, 0.0]
            stack.append(frame)
            exc = None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if name == "ffpoly.eval_table":
                    tracer.table_s += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                if store and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((frame[0], name, t0, t1, parent, tracer.job))
                if not plain:
                    tracer._after(name, sig.bind(*args, **kwargs), token, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Put a wrapper in place of every traced function, wherever it is bound."""
        layers = {layer: importlib.import_module(f"polystruct.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if key == "polystruct" or key.startswith("polystruct.")]
        for layer, funcs in LAYERS.items():
            mod = layers[layer]
            for func in funcs:
                name = _metric_name(layer, func)
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(mod, func)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for traced job wall time wall_s."""
        out: dict[str, tuple[float, str]] = {}
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        for layer, funcs in LAYERS.items():
            share = 0.0
            for func in funcs:
                name = _metric_name(layer, func)
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_s"] = (self.self_s[name], "s")
                share += self.self_s[name]
            out[f"{layer}.share"] = (ratio(share, wall_s), "ratio")
        # what a table kernel would replace: eval_table with its eval calls
        out["ffpoly.eval_table.total_s"] = (self.table_s, "s")
        out["ffpoly.eval_table.points"] = (c["ffpoly.eval_table.points"], "count")
        out["ffpoly.eval_table.hit_ratio"] = (
            ratio(c["ffpoly.eval_table.hits"], self.calls["ffpoly.eval_table"]), "ratio")
        out["bias.sampled_bias.samples"] = (c["bias.sampled_bias.samples"], "count")
        out["bias.gowers_norm.tuples"] = (c["bias.gowers_norm.tuples"], "count")
        out["decompose.approx_decompose.attempts"] = (
            c["decompose.approx_decompose.attempts"], "count")
        out["decompose.approx_decompose.useful_ratio"] = (ratio(
            c["decompose.approx_decompose.successes"],
            c["decompose.approx_decompose.attempts"]), "ratio")
        out["factor.find_biased_combination.hit_ratio"] = (ratio(
            c["factor.find_biased_combination.hits"],
            self.calls["factor.find_biased_combination"]), "ratio")
        out["nullstellensatz.find_certificate.found_ratio"] = (ratio(
            c["nullstellensatz.find_certificate.found"],
            self.calls["nullstellensatz.find_certificate"]), "ratio")
        out["linalg.solve.unknowns"] = (c["linalg.solve.unknowns"], "count")
        out["linalg.solve.useful_ratio"] = (
            ratio(c["linalg.solve.solvable"], self.calls["linalg.solve"]), "ratio")
        out["variety.count_points_regularized.reduced_dim"] = (
            c["variety.count_points_regularized.reduced_dim"], "count")
        # codebooks built in this process, warm-up included
        out["rmcode.enumerate_codewords.builds"] = (
            rmcode._codewords.cache_info().misses, "count")
        out["rmcode.comparisons"] = (c["rmcode.comparisons"], "count")
        out["cli.dispatch.nonzero_exits"] = (c["cli.dispatch.nonzero_exits"], "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - self.top_level_s, "s")
        out["trace.overhead_ratio"] = (ratio(wall_s, untraced_wall_s), "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
