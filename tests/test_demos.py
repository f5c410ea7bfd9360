"""The demos exit 1 exactly when they print a failure line (MISMATCH or
FAIL), so that a run which reads only their exit status still catches a
broken oracle or relator.  Each demo runs in-process, once as it is and
once with one planted fault.  Unfaulted, each prints exactly the output
pinned by its sha256 in ``PINNED_STDOUT``: a change that means to alter
a demo's output updates its pin in the same change."""

import hashlib
import runpy
from pathlib import Path

import pytest

from extline import certify, path_algebra as pa, reps, resolutions

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
    real = certify.verify_exactness

    def corrupted(cx, i, *rest):
        return real(resolutions.corrupted_resolution(cx.alg, i, cx.depth), i, *rest)

    monkeypatch.setattr(certify, "verify_exactness", corrupted)


PINNED_STDOUT = {
    "ext_table_demo.py": "48c3642f1471bee0d037cb26046ee635a8ecc7ffa90500bfdf740b349aaa6037",
    "path_algebra_demo.py": "e68bdcf72643702dfe449df2bedd8aa7bf2742a4e3f7bd5995f136d0fc9f2b65",
    "resolution_demo.py": "8755ed2808bdcb563cc60ef3374fbae16900d072c6557e9f85fb4411a3c321e3",
    "yoneda_demo.py": "c686f675f2c01c54b63e8224d8504bc6fcab3decec8df130eebbe662e21a9e36",
}

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
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[name], out
    plant(monkeypatch)
    status, out = run_demo(name, capsys)
    assert (status, marker in out) == (1, True), out
