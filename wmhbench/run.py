"""Benchmark of the wmhseg program: the pinned two-stage pipeline on an
unseen-scanner cohort, and challenge-scale evaluation.

    python3 wmhbench/run.py --workload pinned_pipeline --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
`--trace 1` the per-layer metrics of a traced run). A failed correctness
check or a failed sub-command exits 1, a checkout without the program
exits 2.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACES = HERE / "trace"
BLAS_THREADS = "1"
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_EVALUATES = 3  # evaluate runs at least this often
CHECK_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pinned_pipeline", "challenge_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="evaluate repeats until its runs add up to this many CPU seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def release_memory() -> None:
    """Return freed heap memory to the system between phases, so that each
    phase starts from the live memory of the run, as a fresh process of
    each sub-command would, and the peak does not depend on how earlier
    phases left the allocator. Outside every timed region."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "wmhseg" / "__init__.py").is_file():
        print(f"no wmhseg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: Path) -> int:
    import wmhseg

    import layers
    import tracing
    import workloads
    from workloads import clock

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, wmhseg)

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    wl = workloads.WORKLOADS[args.workload](args.seed)
    attempted = failed = 0
    errors: list[str] = []

    def attempt(op: str, fn, *fn_args) -> float | None:
        """One set-up or phase, which returns its CPU seconds; None when a
        sub-command failed, whose operations then all count as failed."""
        nonlocal attempted, failed
        attempted += wl.ops[op]
        release_memory()
        phase(op)
        try:
            return fn(*fn_args)
        except workloads.OperationFailed as e:
            failed += wl.ops[op]
            errors.append(f"{op}: {e}")
            return None
        finally:
            phase("none")

    def timed_phase(p: str) -> float:
        t0 = clock()
        wl.run_phase(p)
        return clock() - t0

    setup_s = []
    for i in range(SETUPS):
        into = run_dir / f"setup{i}"
        into.mkdir(parents=True)
        seconds = attempt("setup", wl.setup, into)
        if seconds is None:
            break
        setup_s.append(seconds)
        if i < SETUPS - 1:
            shutil.rmtree(into)
    wl.work = run_dir / f"setup{SETUPS - 1}"

    phase_s: dict[str, list[float]] = {p: [] for p in wl.phases}

    def timed(p: str) -> None:
        seconds = attempt(p, timed_phase, p)
        if seconds is not None:
            phase_s[p].append(seconds)

    # one pass through the workload's phases, then evaluate again until its
    # runs add up to --seconds and number at least MIN_EVALUATES
    for p in wl.phases:
        if not failed:
            timed(p)
    while not failed and (sum(phase_s["evaluate"]) < args.seconds
                          or len(phase_s["evaluate"]) < MIN_EVALUATES):
        timed("evaluate")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if failed:
        # a sub-command failed: the run stops there, with no checks and no metrics
        return report(errors, attempted, failed, {})

    if len(set(wl.csv_texts)) > 1:
        errors.append("evaluate wrote different CSVs in different runs")
    checked = subprocess.run(
        [sys.executable, str(HERE / "check.py"), args.workload, str(wl.work), str(args.seed)],
        capture_output=True, text=True, timeout=CHECK_TIMEOUT_S,
    )
    sys.stderr.write(checked.stderr)
    try:
        check = json.loads(checked.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        check = {"errors": [f"check.py exited {checked.returncode} without a result"],
                 "metrics": {}}
    errors += check["errors"]

    if "wmh_dice" not in check["metrics"]:
        return report(errors, attempted, failed, {})
    # Mean, not median, over the runs of a phase: a short evaluate run falls
    # either in a quiet or in a busy spell of the host, 30% apart, so the
    # median of a few dozen jumps between the two; the mean weighs them by
    # the time spent in each.
    means = {p: fmean(t) for p, t in phase_s.items()}
    end_to_end = {
        "setup_s": (median(setup_s), "s"),
        "commands_s": (sum(means.values()), "s"),
        "evaluate_cases_per_s": (wl.cases["evaluate"] / means["evaluate"], "cases/s"),
        "wmh_dice": (check["metrics"]["wmh_dice"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(json.dumps({"phase_mean_s": means, "runs": {p: len(t) for p, t in phase_s.items()},
                      **check["metrics"]}), file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if tracer is not None:
        runs = {"setup": SETUPS, **{p: len(t) for p, t in phase_s.items()}}
        metrics, silent = layers.report(tracer, runs, wl.cases, wl.not_called)
        errors += [f"traced function recorded no call in {s}" for s in silent]
        summary = {"workload": args.workload, "seed": args.seed, "runs": runs,
                   "end_to_end": end_to_end, "per_layer": metrics}
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json", summary)
        print(json.dumps({"traced_end_to_end": end_to_end}), file=sys.stderr)
    return report(errors, attempted, failed, metrics)


def report(errors: list[str], attempted: int, failed: int, metrics: dict) -> int:
    """Print the result line; exit code 1 when anything failed."""
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
