"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the correctness gate fires on a tampered reference (a negative
control), that calibrated times still show a program that got slower, that
the word generator is seeded, composable and covered by the
reference, and that tracing changes no output, restores every wrapped
attribute, writes a span tree with no dangling parent, and sees each
workload touch only the layers it is meant to.
Exits 1 if any check fails.  Takes a minute or two: the tracer checks
run every workload once untraced and once traced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
import tracer as tracer_module  # noqa: E402
from worker import Runner, import_program, load_reference, traced  # noqa: E402

CLI = import_program(HERE.parent)
REFERENCE = load_reference()


def check_tampered_reference_fails():
    job_list = joblib.jobs_for("tables", 0)[:3]
    honest = Runner(CLI, REFERENCE)
    honest.run_pass(job_list)
    assert honest.failed == 0, honest.failures

    tampered = dict(REFERENCE)
    key = job_list[1].key
    tampered[key] = {**tampered[key], "sha256": "0" * 64}
    runner = Runner(CLI, tampered)
    runner.run_pass(job_list)
    assert (runner.attempted, runner.failed) == (3, 1), (runner.attempted, runner.failed)
    assert runner.failures == [key]

    missing = {k: v for k, v in REFERENCE.items() if k != key}
    runner = Runner(CLI, missing)
    runner.run_pass(job_list)
    assert runner.failed == 1


class _SlowerCli:
    """extline.cli with a fixed stretch of busy CPU work in every call: a
    stand-in for a program that got slower."""

    def __init__(self, extra_s):
        self.extra_s = extra_s

    def main(self, argv):
        end = time.perf_counter() + self.extra_s
        while time.perf_counter() < end:
            pass
        return CLI.main(argv)


def check_calibration_keeps_slowdown():
    job_list = joblib.jobs_for("tables", 0)[:6]
    extra_s = 0.02
    plain, slower = Runner(CLI, REFERENCE), Runner(_SlowerCli(extra_s), REFERENCE)
    for _ in range(3):
        plain.run_pass(job_list)
        slower.run_pass(job_list)
    assert plain.failed == slower.failed == 0
    gap = slower.scaled_s(job_list) - plain.scaled_s(job_list)
    # Even on a machine twice as slow as the reference the scaled extra
    # work is half its wall time; the assertion leaves room below that.
    assert gap > 0.25 * len(job_list) * extra_s, f"slower program read only {gap:.4f} s slower"


def arrow_ends(n: int, name: str):
    """(source, target) of an arrow name, or ValueError if it is not one."""
    if name.startswith("x") and name.endswith("*"):
        i = int(name[1:-1])
        ends = (i + 1, i)
    elif name.startswith("x"):
        i = int(name[1:])
        ends = (i, i + 1)
    elif name.startswith("y"):
        i = int(name[1:])
        ends = (i, n + 1 - i)
    else:
        raise ValueError(f"not an arrow: {name!r}")
    if not 1 <= i <= (n if name.startswith("y") else n - 1):
        raise ValueError(f"arrow {name!r} out of range for n={n}")
    return ends


def is_composable(n: int, word: str) -> bool:
    names = word.split()
    try:
        ends = [arrow_ends(n, a) for a in names]
    except ValueError:
        return False
    return bool(ends) and all(a[1] == b[0] for a, b in zip(ends, ends[1:]))


def _words(job_list):
    return [(int(j.argv[2]), j.argv[6]) for j in job_list if j.argv[0] == "yoneda-product"]


def check_word_generator():
    a = _words(joblib.jobs_for("products", 7))
    assert a == _words(joblib.jobs_for("products", 7)), "same seed, different words"
    b = _words(joblib.jobs_for("products", 8))
    assert a != b, "a second seed gave the same words"
    mix = Counter((n, len(w.split())) for n, w in a)
    assert mix == Counter((n, len(w.split())) for n, w in b), "N/length mix differs"
    assert mix == Counter({(n, n): joblib.WORDS_PER_N for n in joblib.POOL_NS}), mix
    for n, w in a + b:
        assert is_composable(n, w), f"not composable at n={n}: {w}"
    for job in joblib.all_reference_jobs():
        assert job.key in REFERENCE, f"no reference for {job.key}"
    assert not is_composable(3, "x1 x1"), "composability check accepts x1 x1"


def _snapshot():
    """Identity of every attribute of every extline module and class."""
    import extline

    owners = [extline] + [getattr(extline, layer) for layer in tracer_module.LAYERS]
    owners += [v for m in owners[1:] for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def check_tracer():
    before = _snapshot()
    per_layer = {}
    for workload in joblib.WORKLOADS:
        job_list = joblib.jobs_for(workload, 7)
        runner = Runner(CLI, REFERENCE)
        out = traced(runner, [j for j in job_list if not j.large],
                     [j for j in job_list if j.large],
                     HERE.parent / ".perfbench_out", f"selftest-{workload}")
        assert out["hashes_equal"], f"{workload}: traced outputs differ from untraced"
        assert runner.failed == 0, runner.failures
        assert not out["not_restored"], out["not_restored"]
        with open(HERE.parent / out["trace_file"], encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        ids = {row[0] for row in spans}
        dangling = [row for row in spans if row[4] and row[4] not in ids]
        assert spans and not dangling, f"{workload}: {len(dangling)} spans with unknown parent"
        per_layer[workload] = out["per_layer"]
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"{len(changed)} attributes not restored"

    reps_calls = ("reps.cover_calls", "reps.hom_space_calls", "reps.iso_calls")
    for workload in ("tables", "products"):
        m = per_layer[workload]
        assert all(m[k] == 0 for k in reps_calls) and m["reps.self_s"] == 0, \
            f"{workload} touched reps"
    for workload in ("tables", "certify"):
        m = per_layer[workload]
        assert m["yoneda.compose_calls"] == 0, f"{workload} composed chain maps"
        assert m["linalg.rref_calls"] > 0, f"{workload} never called rref"
    m = per_layer["products"]
    assert m["yoneda.compose_calls"] > 0 and m["path_algebra.evaluate_word_calls"] > 0
    assert per_layer["certify"]["reps.iso_calls"] > 0


CHECKS = (check_tampered_reference_fails, check_calibration_keeps_slowdown,
          check_word_generator, check_tracer)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"PASS {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
