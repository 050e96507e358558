"""Dispatch, output formats, determinism, and exit codes."""

import argparse
import dataclasses
import io
import json
import time

import pytest

from polystruct.cli import EXIT_CAP, EXIT_DOMAIN, EXIT_OK, build_parser, dispatch
from polystruct.config import Caps, DecomposeConfig, RegularizeConfig


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def test_bias_subcommand_example():
    code, text = run(["bias", "--p", "3", "--poly", "x1*x2"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["schema"] == "polystruct/1"
    assert payload["magnitude"] == pytest.approx(1 / 3, abs=1e-9)


def test_nss_subcommand_example():
    code, text = run(["nss", "--p", "3", "--gens", "x1;x1+1", "--q", "1", "--dmax", "1"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["found"] and payload["certificate"]["r"] == 1
    assert payload["certificate"]["verified"]


def test_count_subcommand_example():
    code, text = run(["count", "--p", "3", "--gens", "x1*x2", "--n", "2", "--mode", "exact"])
    assert code == EXIT_OK
    assert json.loads(text)["exact_count"] == 5


def test_byte_identical_reruns():
    argv = ["decompose", "--p", "5", "--poly", "x1*x2", "--s", "1", "--seed", "12"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second

    argv2 = ["bias", "--p", "3", "--poly", "x1*x2", "--mode", "sampled", "--samples", "500"]
    _, a = run(argv2)
    _, b = run(argv2)
    assert a == b
    assert json.loads(a)["seed"] == 0  # default seed echoed


def test_unknown_subcommand_is_usage_error():
    code, _ = run(["frobnicate"])
    assert code == EXIT_DOMAIN


def test_dispatches_in_one_process_share_the_parser():
    exact = run(["bias", "--p", "3", "--poly", "x1*x2"])
    sampled = run(["bias", "--p", "3", "--poly", "x1*x2", "--mode", "sampled", "--seed", "4"])
    assert exact[0] == sampled[0] == EXIT_OK
    assert json.loads(sampled[1])["mode"] == "sampled"
    # options of one dispatch do not leak into the next
    assert run(["bias", "--p", "3", "--poly", "x1*x2"]) == exact
    assert build_parser() is build_parser()


def test_usage_error_after_a_successful_dispatch_exits_1():
    assert run(["count", "--p", "3", "--gens", "x1*x2", "--n", "2"])[0] == EXIT_OK
    assert run(["count", "--p", "3", "--gens", "x1*x2", "--mode", "bogus"])[0] == EXIT_DOMAIN
    assert run(["bias", "--p", "3"])[0] == EXIT_DOMAIN
    assert run(["count", "--p", "3", "--gens", "x1*x2", "--n", "2"])[0] == EXIT_OK


def test_cap_exceeded_exit_code():
    code, _ = run(["bias", "--p", "3", "--poly", "x1*x2", "--cap-enum", "4"])
    assert code == EXIT_CAP


def test_non_positive_caps_are_usage_errors():
    assert run(["bias", "--p", "3", "--poly", "x1", "--cap-enum", "-1"])[0] == EXIT_DOMAIN
    code, _ = run(["count", "--p", "3", "--gens", "x1", "--mode", "regularized",
                   "--cap-search", "0"])
    assert code == EXIT_DOMAIN


def test_huge_modulus_fails_fast_on_the_enumeration_cap():
    # a 61-bit prime: the primality check must not dominate, the cap must fire
    assert run(["bias", "--p", str(2**61 - 1), "--poly", "x1"])[0] == EXIT_CAP
    # the required amount p^(n(d+1)) has about 18,000 digits here
    assert run(["gowers", "--p", str(2**61 - 1), "--poly", "x1", "--d", "1000"])[0] == EXIT_CAP


def test_precondition_exit_code():
    # zero-bias polynomial cannot be decomposed
    code, _ = run(["decompose", "--p", "3", "--poly", "x1", "--s", "2"])
    assert code == EXIT_DOMAIN


def test_formats():
    code, text = run(["rank2", "--p", "5", "--poly", "x1*x2", "--format", "text"])
    assert code == EXIT_OK and "rank: 1" in text

    code2, csv_text = run(
        ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--s", "1",
         "--random-centers", "2", "--noisy-centers", "0", "--format", "csv"]
    )
    assert code2 == EXIT_OK
    lines = csv_text.strip().splitlines()
    assert lines[0] == "radius,center_kind,list_size"
    assert len(lines) == 3


def test_gowers_and_rm_subcommands():
    code, text = run(["gowers", "--p", "3", "--poly", "x1*x2", "--d", "2"])
    assert code == EXIT_OK
    assert json.loads(text)["norm"] == pytest.approx(3 ** -0.5, abs=1e-9)

    code2, text2 = run(["rm", "mindist", "--p", "5", "--n", "1", "--d", "2"])
    assert code2 == EXIT_OK
    assert json.loads(text2)["matches"]

    code3, text3 = run(["rm", "johnson", "--p", "3", "--eps", "0.04"])
    assert code3 == EXIT_OK
    assert json.loads(text3)["list_cap"] == pytest.approx(625.0)


def test_regularize_and_radical_round_trip():
    code, text = run(["regularize", "--p", "3", "--gens", "x1*x2", "--s", "1"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["regularity_s"] == 1 and payload["polys"]

    code2, text2 = run(
        ["radical", "--p", "5", "--gens", "x1^2", "--q", "x1", "--dmax", "2"]
    )
    assert code2 == EXIT_OK
    assert json.loads(text2)["member"] is True


def test_seed_auto_is_echoed():
    code, text = run(
        ["bias", "--p", "3", "--poly", "x1*x2", "--mode", "sampled", "--seed", "auto"]
    )
    assert code == EXIT_OK
    assert isinstance(json.loads(text)["seed"], int)



@pytest.mark.parametrize("argv", [
    ["gowers", "--p", "3", "--poly", "x1", "--d", "100000000"],
    ["gowers", "--p", "3", "--poly", "x1", "--d", "30", "--mode", "sampled", "--samples", "1"],
    ["cubes", "--p", "3", "--gens", "x1", "--k", "30", "--samples", "1"],
])
def test_huge_cube_orders_fail_fast_on_the_enumeration_cap(argv, capsys):
    start = time.perf_counter()
    code, _ = run(argv)
    assert code == EXIT_CAP
    assert time.perf_counter() - start < 1.0
    assert "enum_cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nss", "--p", "1000000007", "--n", "1", "--gens", "x1", "--q", "x1", "--dmax", "100000000"],
    ["weak-nss", "--p", "1000000007", "--n", "2", "--gens", "x1;x2+1", "--dmax", "30000"],
])
def test_huge_certificate_degrees_fail_fast_on_the_unknowns_cap(argv, capsys):
    # the monomials are counted against the cap before any is built
    start = time.perf_counter()
    code, _ = run(argv)
    assert code == EXIT_CAP
    assert time.perf_counter() - start < 1.0
    assert "unknowns_cap" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["800", "1600"])
def test_huge_codes_fail_fast_on_the_codeword_cap(n, capsys):
    # the monomials are counted against the cap before any is built
    start = time.perf_counter()
    code, _ = run(["rm", "mindist", "--p", "2", "--n", n, "--d", "1"])
    assert code == EXIT_CAP
    assert time.perf_counter() - start < 0.5
    assert "codeword_cap: 2^257+ exceeds" in capsys.readouterr().err


P61 = str(2**61 - 1)
P64 = str(2**64 + 13)  # a prime above the int64 range


@pytest.mark.parametrize("argv", [
    ["bias", "--p", P61, "--poly", "x1", "--mode", "sampled", "--samples", "10"],
    ["gowers", "--p", P61, "--poly", "x1", "--d", "1", "--mode", "sampled", "--samples", "10"],
    ["bias", "--p", P64, "--poly", str(2**64 + 12), "--mode", "sampled", "--samples", "10"],
    ["gowers", "--p", P64, "--poly", str(2**64 + 12), "--d", "1"],
    ["gowers", "--p", P64, "--poly", str(2**64 + 12), "--d", "2"],
    ["gowers", "--p", P64, "--poly", str(2**64 + 12), "--d", "3"],
    ["decompose", "--p", "3", "--poly", "x1^1000000000*x2", "--s", "1"],
    ["regularize", "--p", "3", "--gens", "x1^1000000000*x2", "--s", "1"],
])
def test_huge_fields_and_exponents_answer_at_once(argv):
    # phases only for values that occur; derivatives of the reduced polynomial
    start = time.perf_counter()
    code, text = run(argv)
    assert code == EXIT_OK
    assert time.perf_counter() - start < 1.0
    if argv[0] == "gowers" and argv[2] == P64:
        assert json.loads(text)["norm"] == 1.0


def test_wide_code_minimum_distance_answers_at_once():
    # 8,192 codewords of 4,096 points: one array scan, no per-codeword objects
    start = time.perf_counter()
    code, text = run(["rm", "mindist", "--p", "2", "--n", "12", "--d", "1"])
    assert code == EXIT_OK
    assert time.perf_counter() - start < 1.5
    assert json.loads(text)["min_distance"] == "1/2"


P64_ABOVE = "18446744073709551629"  # a prime above 2^64: no sampler draws from it


@pytest.mark.parametrize("argv", [
    ["bias", "--p", P64_ABOVE, "--poly", "x1", "--mode", "sampled", "--samples", "10"],
    ["atoms", "--p", P64_ABOVE, "--gens", "x1", "--samples", "10"],
])
def test_sampling_a_field_above_int64_is_unsupported(argv, capsys):
    assert run(argv) == (EXIT_DOMAIN, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2^63" in err


@pytest.mark.parametrize("argv,key,want", [
    (["bias", "--p", P64_ABOVE, "--poly", "5", "--mode", "sampled", "--samples", "10"],
     "magnitude", 1.0),
    (["atoms", "--p", P64_ABOVE, "--gens", "5", "--samples", "10"], "atoms", [[[5], 10]]),
    (["cubes", "--p", P64_ABOVE, "--gens", "5", "--k", "2", "--samples", "3"], "support_size", 1),
    (["gowers", "--p", P64_ABOVE, "--poly", "5", "--d", "2", "--mode", "sampled",
      "--samples", "3"], "norm", 1.0),
])
def test_empty_draws_over_a_field_above_int64_answer(argv, key, want):
    # n = 0: every draw is empty, so the estimators answer from the one point
    code, text = run(argv)
    assert code == EXIT_OK
    assert json.loads(text)[key] == want


# -- the settable values: a new flag or config field fails here until it is recorded

_COMMON = {"-h", "--help", "--p", "--n", "--seed", "--format", "--cap-enum", "--cap-search",
           "--cap-codewords", "--cap-unknowns"}
_OPTIONS = {
    "bias": {"--poly", "--mode", "--samples"},
    "gowers": {"--poly", "--d", "--mode", "--samples"},
    "decompose": {"--poly", "--s", "--t", "--retries", "--mode"},
    "rank2": {"--poly"},
    "regularize": {"--gens", "--s", "--pinned"},
    "atoms": {"--gens", "--samples"},
    "cubes": {"--gens", "--k", "--samples"},
    "table": {"--gens", "--poly"},
    "nss": {"--gens", "--q", "--dmax", "--rmax"},
    "weak-nss": {"--gens", "--dmax"},
    "radical": {"--gens", "--q", "--dmax"},
    "count": {"--gens", "--mode", "--s"},
    "profile": {"--gens", "--s"},
    "rm mindist": {"--d"},
    "rm listdecode": {"--d", "--center", "--radius"},
    "rm johnson": {"--eps"},
    "rm profile": {"--d", "--s", "--random-centers", "--noisy-centers", "--noise",
                   "--all-codewords", "--bound-constant"},
    "rm fourier": {"--poly"},
    "rm weakreg": {"--poly", "--family", "--eps"},
}


def _subcommand_options(parser, prefix=""):
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[prefix + name] = {o for a in sub._actions for o in a.option_strings}
                found.update(_subcommand_options(sub, f"{prefix}{name} "))
    return found


def test_settable_values_are_pinned():
    want = {name: _COMMON | extra for name, extra in _OPTIONS.items()}
    want["rm"] = {"-h", "--help"}
    assert _subcommand_options(build_parser()) == want
    assert [f.name for f in dataclasses.fields(Caps)] == [
        "enum_cap", "search_cap", "codeword_cap", "unknowns_cap"]
    assert [f.name for f in dataclasses.fields(DecomposeConfig)] == ["t", "retries", "seed", "caps"]
    assert [f.name for f in dataclasses.fields(RegularizeConfig)] == ["decompose"]


@pytest.mark.parametrize("argv", [
    ["rm", "listdecode", "--p", "3", "--n", "1", "--d", "1", "--center", "x1", "--radius", "nan"],
    ["rm", "listdecode", "--p", "3", "--n", "1", "--d", "1", "--center", "x1", "--radius", "inf"],
    ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--noise", "2"],
    ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--noise", "nan"],
    ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--random-centers", "-1"],
    ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--s", "-3", "--random-centers", "2",
     "--noisy-centers", "0"],
    ["rm", "profile", "--p", "3", "--n", "1", "--d", "1", "--bound-constant", "nan"],
])
def test_out_of_range_rm_inputs_are_domain_errors(argv, capsys):
    assert run(argv) == (EXIT_DOMAIN, "")
    assert capsys.readouterr().err.count("\n") == 1
