"""The library API that the benchmark scripts in `perfbench/` call.

The benchmark runs against the committed library, so a renamed or deleted
function breaks it only when it runs.  These tests fail first: every traced
name in `tracing.LAYERS` resolves, every `module.attr` that `tracing.py` and
`jobs.py` read from a `polystruct` module exists, and the decomposition and
regularization API the job checks use still behaves as they expect.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from polystruct import decompose, factor
from polystruct.config import DecomposeConfig, RegularizeConfig
from polystruct.ffpoly import parse_poly, points_lex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    layers = _load_tracing().LAYERS
    for layer, funcs in layers.items():
        module = importlib.import_module(f"polystruct.{layer}")
        for func in funcs:
            if "." in func:  # a method, wrapped on its class as the tracer does
                cls_name, meth = func.split(".")
                assert callable(getattr(module, cls_name).__dict__[meth]), f"{layer}.{func}"
            else:
                assert callable(getattr(module, func)), f"{layer}.{func}"


def _polystruct_attributes(path: Path):
    """(module, attr) for every `module.attr` read in the file, where module is a
    name the file binds with `from polystruct import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "polystruct"
               for alias in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


@pytest.mark.parametrize("script", ["tracing.py", "jobs.py"])
def test_benchmark_scripts_read_existing_attributes(script):
    used = _polystruct_attributes(PERFBENCH / script)
    assert used  # the scan found the file's library calls
    for module, attr in used:
        assert hasattr(importlib.import_module(f"polystruct.{module}"), attr), f"{module}.{attr}"


def test_decomposition_and_regularization_api_used_by_the_job_checks():
    f = parse_poly("x1*x2", 3)
    dec = decompose.exact_decompose(f, 1, DecomposeConfig(seed=1))
    for x in points_lex(3, 2):  # gamma takes a tuple of the polys' values
        assert dec.gamma(tuple(g.eval(x) for g in dec.polys)) == f.eval(x)
    approx = decompose.approx_decompose(
        f, 1, 1, seed=1, trust_bias=True, k_override=4, error_samples=64)
    assert all(len(h) == 2 for h in approx.directions)
    coarse = factor.PolynomialFactor([f])
    regular = factor.regularize(coarse, 1, RegularizeConfig(decompose=DecomposeConfig(seed=1)))
    assert factor.semantic_refines(regular, coarse)
