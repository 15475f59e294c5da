"""Record one point of the benchmark trajectory as a JSON file at the
repository root.

Runs `wmhbench/run.py` on both workloads at each seed, untraced and then
traced (`--trace 1`), for the `run_seconds` that BENCHMARK.json fixes, and
times the Tier-1 test suite. The file holds each run's exit code, its
result line (the last line of its standard output, or null when that line
is not JSON) and the per-phase mean CPU seconds that the benchmark prints
to standard error; the seeds; the commit and whether the tree had
uncommitted changes; a host note; and the Tier-1 wall time with its
summary line.

Run from the repository root (about 6 minutes with one seed):

    python3 tools/bench_record.py --out BENCH_16.json --seeds 101
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pinned_pipeline", "challenge_eval")
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def last_json_line(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        (sys.executable, "wmhbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)),
        cwd=ROOT, capture_output=True, text=True,
    )
    run = {"workload": workload, "seed": seed, "trace": bool(trace),
           "exit_code": proc.returncode, "result": last_json_line(proc.stdout)}
    for line in proc.stderr.splitlines():
        if line.startswith('{"phase_mean_s"'):
            run["phases"] = json.loads(line)
    return run


def tier1() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src " + " ".join(("python",) + TIER1[1:]),
            "wall_s": round(wall, 1), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def host(note: str) -> dict:
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "load_avg_1m_at_start": os.getloadavg()[0],
            "note": note}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="file name under the repository root")
    p.add_argument("--seeds", type=int, nargs="+", default=[101])
    p.add_argument("--note", default="", help="free text about the host or the run")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"commit": git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
              "host": host(args.note), "seeds": args.seeds, "seconds": seconds}
    record["runs"] = [bench(w, seed, seconds, trace)
                      for trace in (0, 1) for w in WORKLOADS for seed in args.seeds]
    record["tier1"] = tier1()
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    failed = [r for r in record["runs"] if r["exit_code"] != 0 or r["result"] is None]
    for r in failed:
        print(f"{r['workload']} seed {r['seed']} trace {r['trace']}: exit {r['exit_code']}",
              file=sys.stderr)
    return 1 if failed or record["tier1"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
