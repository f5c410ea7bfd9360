"""Workload definitions: the fixed job lists and the seeded word generator.

A job is one argv for ``extline.cli.main``.  Every job asks for
``--format json`` so its output can be hashed against the reference.
This module imports nothing from ``extline``, so run.py, the
reference recorder and the self-tests can build job lists without
loading the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("tables", "products", "certify")

# Words are drawn from a fixed pool per N, so that every word a run can
# draw has a recorded reference output.  The pool is built once from this
# seed; the run seed only chooses which pool words a run uses.
POOL_SEED = 20210128
POOL_SIZE = 64
WORDS_PER_N = 8
SMALL_WORD_NS = range(2, 7)
LARGE_WORD_N = 12
POOL_NS = (*SMALL_WORD_NS, LARGE_WORD_N)
PRODUCTS_CHAR = 3
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Job:
    argv: tuple
    large: bool

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _job(large: bool, *argv) -> Job:
    return Job(tuple(str(a) for a in argv) + ("--format", "json"), large)


# --------------------------------------------------------------- quiver


def arrows_from(n: int, v: int):
    """Arrows of the Ext quiver leaving vertex v, as (name, target).

    x_i : i -> i+1, x_i* : i+1 -> i (1 <= i < n), y_i : i -> n+1-i.
    """
    out = []
    if v < n:
        out.append((f"x{v}", v + 1))
    if v > 1:
        out.append((f"x{v - 1}*", v - 1))
    out.append((f"y{v}", n + 1 - v))
    return out


def random_walk(rng: random.Random, n: int, length: int) -> str:
    v = rng.randint(1, n)
    names = []
    for _ in range(length):
        name, v = rng.choice(arrows_from(n, v))
        names.append(name)
    return " ".join(names)


def word_pool(n: int):
    """Up to POOL_SIZE distinct random walks of length n, in draw order."""
    rng = random.Random(POOL_SEED * 100 + n)
    pool, seen = [], set()
    for _ in range(POOL_SIZE * 50):
        w = random_walk(rng, n, n)
        if w not in seen:
            seen.add(w)
            pool.append(w)
            if len(pool) == POOL_SIZE:
                break
    return pool


def load_word_work():
    """Recorded work per pool word, {n: [work of word 0, word 1, ...]}."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return {int(n): w for n, w in json.load(fh)["word_work"].items()}


def draw_words(seed: int, n: int, work):
    """WORDS_PER_N pool words for one N, chosen by the run seed.

    The pool is ordered by recorded work and cut into WORDS_PER_N strata of
    equal size; one word is drawn from each.  Every pool word can be drawn,
    but every run gets the same mix of cheap and dear words, so the seed
    moves which words run and not how much work they are in total.
    """
    pool = word_pool(n)
    order = sorted(range(len(pool)), key=lambda q: (work[q], q))
    rng = random.Random(seed * 1000 + n)
    words = []
    for s in range(WORDS_PER_N):
        stratum = order[s * len(pool) // WORDS_PER_N:(s + 1) * len(pool) // WORDS_PER_N]
        words.append(pool[rng.choice(stratum)])
    return words


def word_job(n: int, word: str) -> Job:
    return _job(n == LARGE_WORD_N, "yoneda-product", "--n", n, "--char", PRODUCTS_CHAR,
                "--word", word)


def _relations_job(n: int) -> Job:
    return _job(n == LARGE_WORD_N, "verify", "--suite", "relations", "--n", n,
                "--char", PRODUCTS_CHAR)


def _gamma_job() -> Job:
    return _job(True, "verify", "--suite", "gamma", "--n", 8, "--char", PRODUCTS_CHAR)


# ------------------------------------------------------------- workloads


def tables_jobs(seed: int):
    small = []
    for n in range(1, 7):
        small.append(_job(False, "ext-table", "--n", n))
        small.append(_job(False, "gamma-dims", "--n", n, "--char", 2))
        small.append(_job(False, "gamma-dims", "--n", n, "--char", 0))
    large = [
        _job(True, "ext-table", "--n", 20),
        _job(True, "gamma-dims", "--n", 12, "--char", 0),
    ]
    return small + large


def products_jobs(seed: int):
    work = load_word_work()
    small = []
    for n in SMALL_WORD_NS:
        small += [word_job(n, w) for w in draw_words(seed, n, work[n])]
        small.append(_relations_job(n))
    large = [word_job(LARGE_WORD_N, w) for w in draw_words(seed, LARGE_WORD_N, work[LARGE_WORD_N])]
    return small + large + [_relations_job(LARGE_WORD_N), _gamma_job()]


def certify_jobs(seed: int):
    small = []
    for char in (3, 0):
        for n in range(1, 7):
            for suite in ("syzygy", "resolution"):
                small.append(_job(False, "verify", "--suite", suite, "--n", n, "--char", char))
    large = [
        _job(True, "verify", "--suite", "syzygy", "--n", 16, "--char", 3),
        _job(True, "verify", "--suite", "resolution", "--n", 14, "--char", 0),
    ]
    return small + large


JOB_LISTS = {"tables": tables_jobs, "products": products_jobs, "certify": certify_jobs}


def jobs_for(workload: str, seed: int):
    return JOB_LISTS[workload](seed)


def all_reference_jobs():
    """Every job any seed can produce: fixed jobs plus all pool words."""
    jobs = [job for workload in ("tables", "certify") for job in jobs_for(workload, 0)]
    jobs += [_relations_job(n) for n in (*SMALL_WORD_NS, LARGE_WORD_N)] + [_gamma_job()]
    jobs += [word_job(n, w) for n in POOL_NS for w in word_pool(n)]
    return jobs


def job_list_digest(jobs) -> str:
    text = json.dumps([list(j.argv) for j in jobs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
