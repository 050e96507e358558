#!/usr/bin/env python3
"""polystruct benchmark: three seeded job mixes, run as a closed loop with one
client (a single process, one job at a time, no threads).

Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (job lists in jobs.py, built from the seed):

  structure     point counts, solution profiles, regularization + atom
                histograms and exact decompositions of random degree <= 2
                factors over F_3 / F_5; time goes to eval_table, exact_bias
                and the factor combination scan, every table fresh.
  codes         RM list decoding, profiles, rank graphs, minimum distance,
                exact Gowers norms, simplex Fourier and weak regularity;
                codebooks are built in the warm-up and reused.
  pointwise     no table above 5^3 points: nss / weak-nss / radical argv
                through cli.dispatch, where time goes to nullstellensatz,
                linalg.solve and polynomial arithmetic, and F_3^16 quadratics
                of planted rank above the enumeration cap (sampled bias, Gowers
                norm, atom histogram, approximate decomposition), evaluated
                one point at a time through MultiPoly.eval.

A run generates its inputs from --seed as rounds, each holding every job
template of the workload once with fresh instances, runs the warm-up, then
runs whole rounds (cycling) until --seconds have elapsed, timing each job and
checking each output untimed against polystruct.oracle or a closed form.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters that import polystruct, generate the inputs and warm up),
jobs_per_s, job_p50_s, job_p90_s, solved_frac and peak_rss_mb.  failed_frac
is printed on the summary line and follows from `failed` / `attempted`.
--trace 1 runs rounds untraced for half of --seconds, then the same rounds
traced, and reports per-layer calls, self times, counters and shares
(tracing.py).

Seed 1 is the default; seed 2 is held out for confirming claims.  Every run
also writes its environment, metrics and failing jobs to
.perfbench_out/<workload>-seed<seed>-trace<t>.json, and a traced run writes
its spans to .perfbench_out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ["structure", "codes", "pointwise"]
DEFAULT_SEED = 1  # seed 2 is held out for confirming claims
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def _import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "polystruct" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'polystruct'} not found; run from a full checkout")
    if str(src) not in sys.path:
        sys.path[:0] = [str(src), str(HERE)]
    import polystruct

    if Path(polystruct.__file__).resolve().parent != (src / "polystruct").resolve():
        sys.exit(f"perfbench: imported polystruct from {polystruct.__file__}, not {src}")


def setup(workload: str, seed: int):
    """Import the program, generate the job list and run the warm-up."""
    _import_program()
    import numpy as np

    import jobs

    rounds = jobs.build(workload, np.random.default_rng([seed, WORKLOADS.index(workload)]))
    warmup = jobs.WORKLOADS[workload][2]
    if warmup is not None:
        warmup()
    return rounds


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only set up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.round_times: list[float] = []
        self.solved = 0
        self.failures: list[dict] = []
        self.rounds = 0


def run_rounds(rounds, tally: Tally, seconds=None, count=None, tracer=None) -> None:
    """Whole rounds of the job list, cycling, until `seconds` have elapsed
    (at least one round), or exactly `count` rounds."""
    import jobs

    gc.collect()
    start = time.perf_counter()

    def more():
        if count is not None:
            return tally.rounds < count
        return tally.rounds == 0 or time.perf_counter() - start < seconds

    while more():
        r = tally.rounds % len(rounds)
        first = len(tally.times)
        for idx, job in enumerate(rounds[r]):
            job_id = f"{r}.{idx}"
            error = None
            if tracer is not None:
                tracer.job = job_id
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                output, solved = jobs.run(job)
            except Exception as exc:  # counted in failed_frac, never fatal
                error = f"raised {type(exc).__name__}: {exc}"
            tally.times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    if not jobs.check(job, output):
                        error = "output check failed"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                tally.solved += bool(solved)
            else:
                tally.failures.append({"job": job_id, "kind": job.kind, "error": error[:300]})
        tally.round_times.append(sum(tally.times[first:]))
        tally.rounds += 1


def environment(workload: str, seed: int, rounds) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": workload, "seed": seed, "rounds_in_list": len(rounds),
            "jobs_per_round": len(rounds[0]),
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "load": "closed loop, 1 client, serial"}


def end_to_end(tally: Tally, setup_s: float) -> dict:
    times = tally.times
    completed = len(times) - len(tally.failures)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (completed / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[-1], "s"),
        "solved_frac": (tally.solved / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> int:
    _import_program()
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    rounds = setup(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        import tracing

        # the same rounds untraced, then traced: their wall ratio is the overhead
        run_rounds(rounds, tally, seconds=args.seconds / 2)
        untraced_wall = sum(tally.times)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Tally()
        run_rounds(rounds, traced, count=tally.rounds, tracer=tracer)
        tracer.uninstall()
        metrics = tracer.metrics(sum(traced.times), untraced_wall)
        tally.times += traced.times
        tally.failures += traced.failures
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        run_rounds(rounds, tally, seconds=args.seconds)
        metrics = end_to_end(tally, setup_s)

    attempted = len(tally.times)
    env = environment(args.workload, args.seed, rounds)
    failed = len(tally.failures)
    summary = {**env, "rounds": tally.rounds, "round_times_s": tally.round_times,
               "attempted": attempted, "failed": failed,
               "failed_frac": failed / attempted, "failures": tally.failures,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    for f in tally.failures:
        print(f"# failed job {f['job']} ({f['kind']}): {f['error']}",
              file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {attempted} jobs ({tally.rounds} rounds of {len(rounds[0])}), "
          f"failed_frac={failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S * (SETUP_RUNS + 2))
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One thread per process, set before numpy loads: the load is one client,
    # one job at a time.  Child interpreters inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
