"""Golden CLI outputs: exit codes and stdout of a fixed argv set.

`golden_cli.json` holds, per argv, the exit code and stdout recorded from
`dispatch`.  Exit codes, ints, strings and bools must match exactly; floats
may move by at most 1e-9, so a change of summation order passes while any
change of a value, a draw or a format fails.  Edit a golden only for an
intended output change, and record that change in CHANGES.md.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from polystruct.cli import dispatch

FLOAT_TOL = 1e-9
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
_FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


def _assert_same(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _assert_same_text(got: str, want: str):
    """Text and CSV output: literal text exact, float literals within FLOAT_TOL."""
    got_parts, want_parts = _FLOAT.split(got), _FLOAT.split(want)
    assert len(got_parts) == len(want_parts), f"{got!r} != {want!r}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2:
            assert abs(float(g) - float(w)) <= FLOAT_TOL, f"float {g} != {w}"
        else:
            assert g == w, f"{g!r} != {w!r}"


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(case["argv"], out=out)
    assert code == case["exit"]
    want = case["stdout"]
    if want.startswith("{"):
        _assert_same(json.loads(out.getvalue()), json.loads(want))
    else:
        _assert_same_text(out.getvalue(), want)
