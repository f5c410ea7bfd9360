"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

Runs every job any seed can produce (the fixed jobs of all workloads and
every word in the word pools) once and writes perfbench/reference.json
with the exit code and the sha256 of the JSON output of each.  It also
stores, for each pool word, its work (calls of ``LineAlgebra.compose``
counted by the tracer), which jobs.draw_words uses to stratify the draw.
Run it only at a commit whose outputs are known to be right: a run of the
benchmark counts every job whose output differs from this file as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblib  # noqa: E402
import tracer as tracer_module  # noqa: E402
from worker import import_program, run_job  # noqa: E402


def main() -> int:
    cli = import_program(HERE.parent)
    reference = {}
    for job in joblib.all_reference_jobs():
        rc, sha, _ = run_job(cli, job)
        if rc != 0:
            print(f"refusing to record a failing job: {job.key} (exit {rc})", file=sys.stderr)
            return 1
        reference[job.key] = {"exit": rc, "sha256": sha}

    work = {}
    for n in joblib.POOL_NS:
        work[str(n)] = []
        for word in joblib.word_pool(n):
            tracer = tracer_module.Tracer()
            tracer.install()
            try:
                run_job(cli, joblib.word_job(n, word))
            finally:
                tracer.uninstall()
            work[str(n)].append(tracer.calls("homs.LineAlgebra.compose"))

    out = {"jobs": dict(sorted(reference.items())), "word_work": work}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
