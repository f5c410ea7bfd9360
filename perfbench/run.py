"""The extline benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload tables --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 36

Workloads (see README.md in this directory for why each exists):
tables, products, certify.  Each run starts the workload in a fresh
interpreter (worker.py) with EXTLINE_THREADS removed and a fixed
PYTHONHASHSEED, one job at a time: a closed loop with one client.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics: setup_s, small_jobs_per_s, large_wall_s, peak_rss_mb.
The three time metrics are calibrated: each time is divided by the time
of a fixed loop run next to it and scaled back to seconds (worker.py,
CAL_REF_S), which cancels most of a shared machine's speed swings.
With --trace 1 they are the per-layer metrics of one traced round (small
sweep and large set, after one untraced round), plus the
tracing overhead.  Every job output is checked against reference.json;
``failed`` counts jobs that raised, exited nonzero or printed other bytes.
``--workload all`` runs the three workloads in turn and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from worker import CAL_REF_S  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("small_jobs_per_s", "1/s"),
    ("large_wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Fresh interpreters started only to time set-up, half before and half
# after the workload's own interpreter, which gives one more sample.
SETUP_PROBES = 10
HASH_SEED = "0"
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("EXTLINE_THREADS", None)  # measure the default single-thread path
    env.pop("PYTHONPATH", None)  # the worker imports the program from ./src only
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # set-up compiles the same code in every run
    return env


def start_worker(args, deadline, extra=()):
    """Start worker.py; returns (process, wall seconds of set-up, calibrated
    seconds of set-up).  The worker calibrates at the start and at the end
    of its set-up and reports both times on its READY line, with the time
    its own calibration work took; that is taken out of the wall time
    before it is divided by the mean calibration time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    line = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if len(line) != 4 or line[0] != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    cal_start, cal_end, own_s = map(float, line[1:])
    setup -= own_s
    return proc, setup, setup / ((cal_start + cal_end) / 2) * CAL_REF_S


def finish(proc, deadline):
    """Wait for the worker until the deadline; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit and was stopped")
    return out


def probe_setup(args, deadline):
    proc, *setup = start_worker(args, deadline, ["--setup-only"])
    finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}")
    return setup


def run_workload(args):
    """Run one workload; returns (result JSON object, report dict)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }
    setups = [probe_setup(args, deadline) for _ in range(SETUP_PROBES // 2)]
    proc, *setup = start_worker(args, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    setups += [probe_setup(args, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    raw = json.loads(out.strip().splitlines()[-1])

    failed = raw["failed"]
    correct = failed == 0 and raw["threads_env"] is None and raw["hash_seed"] == HASH_SEED
    if args.trace:
        correct = correct and raw["hashes_equal"] and not raw["not_restored"]
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "small_jobs_per_s": raw["small_jobs"] / raw["small_scaled_s"],
            "large_wall_s": raw["large_scaled_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = {
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "job_list_digest": raw["job_list_digest"],
        "jobs": {"small": raw["small_jobs"], "large": raw["large_jobs"]},
        "verdicts": raw["verdicts"],
        "failed_ratio": f"{failed}/{raw['attempted']}",
        "failures": raw["failures"],
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
    }
    for key in ("calibration_s", "small_pass_s", "large_pass_s", "hashes_equal",
                "wrapped", "not_restored", "spans", "trace_file"):
        if key in raw:
            report[key] = raw[key]
    result = {"correct": correct, "attempted": raw["attempted"], "failed": failed,
              "metrics": metrics}
    return result, report


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload:9} {name:34} {m['value']:14.6f} {m['unit']}")
    print(f"{workload:9} {'failed_ratio':34} {result['failed']:>7}/{result['attempted']:<6} jobs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print("report " + json.dumps(report))
            print_metrics(name, result)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
