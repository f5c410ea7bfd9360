"""Golden outputs: every benchmark job reproduces the exit code and the
sha256 of the JSON output recorded in perfbench/reference.json.

The job lists come from perfbench/jobs.py, which imports nothing from
extline; the reference file is only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from extline.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _load_jobs()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["jobs"]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def small_jobs(workload):
    return [job for job in JOBS.jobs_for(workload, 0) if not job.large]


def wrong_jobs(jobs):
    wrong = []
    for job in jobs:
        recorded = REFERENCE[job.key]
        if run(job.argv) != (recorded["exit"], recorded["sha256"]):
            wrong.append(job.key)
    return wrong


@pytest.mark.parametrize("workload", JOBS.WORKLOADS)
def test_small_jobs_match_the_reference(workload):
    jobs = small_jobs(workload)
    assert jobs
    assert not wrong_jobs(jobs)


def test_every_other_reference_job_matches():
    # the large jobs and the pool words no seed-0 run draws
    jobs = JOBS.all_reference_jobs()
    assert {job.key for job in jobs} == set(REFERENCE)
    done = {job.key for workload in JOBS.WORKLOADS for job in small_jobs(workload)}
    assert not wrong_jobs([job for job in jobs if job.key not in done])
