"""One workload in a fresh interpreter.

Started by run.py; not meant to be run by hand.  It imports the program
from ``<root>/src``, builds the job list, prints ``READY`` (the end of
set-up) with the calibration times around set-up, then runs the jobs in a
closed loop: one client, one job at a time, each job one in-process call
to ``extline.cli.main(argv)``.  Its last stdout line is a JSON object with
the raw samples and counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402

# Share of --seconds spent on passes over the small sweep; the rest goes
# to passes over the large set.
SMALL_SHARE = 0.15

# The speed of a shared machine swings by a quarter and more over seconds
# to minutes, as other tenants load its cores, and a whole run can fall in
# a slow or a fast stretch.  So every job is timed next to calibrate(),
# run just before and just after it on a clean heap, and the metrics use
# the job's wall time divided by the mean calibration time around it.
# That ratio is scaled back to seconds by CAL_REF_S, about the median
# calibration time on a 2-vCPU x86 VM with Python 3.11, so the metrics
# read as the wall time on that machine in its usual state.  calibrate() uses nothing from extline,
# so a change to the program moves only the job's side of the ratio.
CAL_REF_S = 0.0020
CAL_HEAP_OBJECTS = 100_000
_cal_heap = []  # tuples of 1000 one-element tuples, walked a tuple at a time


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_calibration_heap() -> float:
    """Build the heap calibrate() walks, once; returns its size in MB,
    read as the growth of the process's peak RSS while it is built.

    The heap is made of tuples of ints, which the collector stops tracking
    at the first collection: the program's own collections then never
    traverse it, and run as they would in a process of their own."""
    if _cal_heap:
        return 0.0
    before = peak_rss_mb()
    _cal_heap.extend(tuple((i,) for i in range(k, k + 1000))
                     for k in range(0, CAL_HEAP_OBJECTS, 1000))
    gc.collect()
    return peak_rss_mb() - before


def calibrate() -> float:
    """Geometric mean of the wall times of two fixed loops, near CAL_REF_S.

    The first is interpreter work: integer arithmetic, dict stores, str
    conversion.  The second walks a fixed heap of small tuples with
    gc.get_referents, the traversal the garbage collector makes.  The two
    react differently to the machine's swings: a job that spends its time
    in the interpreter follows the first, and a job with a large heap,
    whose collections take much of its time, follows the second more than
    the first.  Of the three, the geometric mean suits both kinds best.  The collector is off while the
    loops run, so that no collection lands in one of them.
    """
    if not _cal_heap:
        build_calibration_heap()
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(6000):
        table[i & 255] = acc
        acc = (acc * 31 + i) % 1000003
        acc += len(str(i))
    t1 = time.perf_counter()
    for chunk in _cal_heap:
        gc.get_referents(*chunk)
    t2 = time.perf_counter()
    if enabled:
        gc.enable()
    return math.sqrt((t1 - t0) * (t2 - t1))


def import_program(root: Path):
    """Import extline.cli from the checkout's src, and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import extline.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "extline").resolve():
        raise ImportError(f"extline imported from {cli.__file__}, not from {src}")
    return cli


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def run_job(cli, job):
    """(exit code or None if it raised, sha256 of stdout, stdout text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising job is a failed job, not a crash
        print(f"job raised: {job.key}: {exc!r}", file=sys.stderr)
        rc = None
    text = buf.getvalue()
    return rc, hashlib.sha256(text.encode()).hexdigest(), text


class Runner:
    """Runs passes over job lists and checks every output."""

    def __init__(self, cli, reference):
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = {}  # job key -> sha256 of its last output
        self.samples = {}  # job key -> [wall, calibration] of each run
        self.verdicts = {"zero": 0, "nonzero": 0}
        self.tracer = None

    def check(self, job, rc, sha):
        ref = self.reference.get(job.key)
        ok = rc == 0 and ref is not None and ref["exit"] == rc and ref["sha256"] == sha
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(job.key)

    def run_pass(self, job_list, tally=False):
        """Run each job once; returns the wall time of the pass."""
        wall = 0.0
        gc.collect()
        cal = calibrate()
        for job in job_list:
            if self.tracer is not None:
                self.tracer.begin_job(job.key)
            t0 = time.perf_counter()
            rc, sha, text = run_job(self.cli, job)
            dt = time.perf_counter() - t0
            wall += dt
            if self.tracer is not None:
                self.tracer.end_job()
            # Each CLI call starts on a clean heap, as it would in its own
            # process: the job's cyclic garbage (complexes refer to their
            # algebra and back) would otherwise slow the next job's
            # collections, and the calibration, by a varying amount.
            gc.collect()
            cal_after = calibrate()
            self.samples.setdefault(job.key, []).append([dt, (cal + cal_after) / 2])
            cal = cal_after
            self.check(job, rc, sha)
            self.hashes[job.key] = sha
            if tally and job.argv[0] == "yoneda-product" and rc == 0:
                verdict = next(iter(json.loads(text)["data"].values()))
                self.verdicts[verdict] += 1
        return wall

    def scaled_s(self, job_list):
        """Sum over the jobs of the median over their runs of wall time
        divided by calibration time, scaled by CAL_REF_S."""
        return sum(statistics.median(dt / cal for dt, cal in self.samples[job.key])
                   for job in job_list) * CAL_REF_S

    def calibration_s(self):
        """Median calibration time of the run."""
        return statistics.median(cal for runs in self.samples.values() for _, cal in runs)


def measure(runner, small, large, seconds):
    """Rounds of small-sweep passes and one large-set pass, while the next
    round is expected to end within `seconds`; at least one round.  After
    the first round the number of small passes per round is set so that
    they take about SMALL_SHARE of the time.  Both metrics are thus sampled
    across the whole run, not in one stretch of it.  Returns the wall
    times of the small passes and of the large passes."""
    small_walls, large_walls = [], []
    start = time.perf_counter()
    per_round = 1
    while True:
        for _ in range(per_round):
            small_walls.append(runner.run_pass(small, tally=not small_walls))
        large_walls.append(runner.run_pass(large, tally=len(large_walls) == 0))
        small_s = statistics.mean(small_walls)
        if len(large_walls) == 1:
            per_round = max(1, round(SMALL_SHARE / (1 - SMALL_SHARE) * large_walls[0] / small_s))
        expected = per_round * small_s + large_walls[-1]
        if time.perf_counter() - start + expected > seconds:
            break
    return small_walls, large_walls


def traced(runner, small, large, out_dir, tag):
    """One untraced pass, then one traced pass; returns the result fields.
    The tracer is imported here so that untraced set-up does not pay for it."""
    import tracer as tracer_module

    runner.run_pass(small, tally=True)
    plain_wall = runner.run_pass(large, tally=True)
    plain_hashes = dict(runner.hashes)
    tracer = tracer_module.Tracer()
    patches = tracer.install()
    runner.tracer = tracer
    try:
        runner.run_pass(small)
        traced_wall = runner.run_pass(large)
    finally:
        runner.tracer = None
        tracer.uninstall()
    not_restored = tracer_module.check_restored(patches)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{tag}.json"
    tracer.write(trace_path, {"run": tag, "large_wall_s": traced_wall})
    return {
        "per_layer": metrics,
        "hashes_equal": plain_hashes == runner.hashes,
        "wrapped": len(patches),
        "not_restored": not_restored,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(out_dir.parent)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # The calibration heap and the two calibrations around the program's
    # set-up are the benchmark's own work: their time is reported on the
    # READY line so that run.py can take it out of set-up time.
    t0 = time.perf_counter()
    heap_mb = build_calibration_heap()
    cal_start = calibrate()
    own_s = time.perf_counter() - t0
    root = Path(args.root)
    cli = import_program(root)
    job_list = joblib.jobs_for(args.workload, args.seed)
    t0 = time.perf_counter()
    cal_end = calibrate()
    own_s += time.perf_counter() - t0
    print(f"READY {cal_start!r} {cal_end!r} {own_s!r}", flush=True)
    if args.setup_only:
        return 0

    reference = load_reference()
    small = [j for j in job_list if not j.large]
    large = [j for j in job_list if j.large]
    runner = Runner(cli, reference)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(job_list),
        "small_jobs": len(small),
        "large_jobs": len(large),
        "job_list_digest": joblib.job_list_digest(job_list),
    }
    if args.trace:
        result.update(traced(runner, small, large, root / ".perfbench_out", args.workload))
    else:
        small_walls, large_walls = measure(runner, small, large, args.seconds)
        result["small_pass_s"] = small_walls
        result["large_pass_s"] = large_walls
        result["small_scaled_s"] = runner.scaled_s(small)
        result["large_scaled_s"] = runner.scaled_s(large)
        result["calibration_s"] = runner.calibration_s()
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "verdicts": runner.verdicts,
        # The calibration heap is the benchmark's, not the program's.
        "peak_rss_mb": peak_rss_mb() - heap_mb,
        "threads_env": os.environ.get("EXTLINE_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
