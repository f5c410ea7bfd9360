"""The demos exit 1 exactly when they print a failure line (MISMATCH or
FAIL), so that a run which reads only their exit status still catches a
broken oracle or relator.  Each demo runs in-process, once as it is and
once with one planted fault."""

import runpy
from pathlib import Path

import pytest

from extline import path_algebra as pa, reps, resolutions

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    """(exit status, stdout) of one demo."""
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return stop.value.code, capsys.readouterr().out


def drop_a_cover_vertex(monkeypatch):
    real = reps.projective_cover

    def broken(M, *rest):
        cov = real(M, *rest)
        cov.cover_vertices = cov.cover_vertices[:-1]
        return cov

    monkeypatch.setattr(reps, "projective_cover", broken)


def drop_the_first_relator(monkeypatch):
    real = pa.standard_relators
    monkeypatch.setattr(pa, "standard_relators", lambda n: real(n)[1:])


def flip_a_middle_relator(monkeypatch):
    real = pa.standard_relators

    def flipped(n):
        relators = real(n)
        (c1, w1), (c2, w2) = relators[2].terms
        relators[2] = pa.Relator("flipped", ((c1, w1), (-c2, w2)))
        return relators

    monkeypatch.setattr(pa, "standard_relators", flipped)


def certify_a_corrupted_resolution(monkeypatch):
    real = resolutions.verify_resolution

    def corrupted(cx, i):
        return real(resolutions.corrupted_resolution(cx.alg, i, cx.depth), i)

    monkeypatch.setattr(resolutions, "verify_resolution", corrupted)


DEMO_FAULTS = [
    ("ext_table_demo.py", "MISMATCH", drop_a_cover_vertex),
    ("path_algebra_demo.py", "MISMATCH", drop_the_first_relator),
    ("resolution_demo.py", "FAIL", certify_a_corrupted_resolution),
    ("yoneda_demo.py", "FAIL", flip_a_middle_relator),
]


@pytest.mark.parametrize("name,marker,plant", DEMO_FAULTS)
def test_demo_exits_1_exactly_when_it_prints_a_failure(name, marker, plant, monkeypatch, capsys):
    status, out = run_demo(name, capsys)
    assert (status, marker in out) == (0, False), out
    plant(monkeypatch)
    status, out = run_demo(name, capsys)
    assert (status, marker in out) == (1, True), out
