"""Command-line surface: schemas, formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from extline import cli, path_algebra
from extline.cli import build_parser, main, parse_word, poly_str
from extline.yoneda import ChainMapError


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "extline.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_poly_str():
    assert poly_str([1, 0, 0, 1]) == "1 + t^3"
    assert poly_str([1] + [0] * 3 + [-1]) == "1 - t^4"
    assert poly_str([0, 2]) == "2t"
    assert poly_str([]) == "0"


def test_ext_table_json_schema(tmp_path):
    out = tmp_path / "table.json"
    code = main(["ext-table", "--n", "2", "--max-deg", "7", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"n", "characteristic", "max_degree", "data", "checks"}
    assert payload["data"]["1,1"] == [1, 0, 0, 1, 1, 0, 0, 1]
    assert payload["checks"][0]["status"] == "pass"


def test_ext_table_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["ext-table", "--n", "3", "--format", "json", "--out", str(a)])
    main(["ext-table", "--n", "3", "--format", "json", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_ext_table_all_ones_row_n1():
    r = run_cli(["ext-table", "--n", "1", "--max-deg", "5", "--format", "json"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["data"]["1,1"] == [1] * 6


def test_poincare_command():
    r = run_cli(["poincare", "--n", "2", "--i", "1", "--j", "1"])
    assert r.returncode == 0
    assert "numerator: 1 + t^3" in r.stdout
    assert "denominator: 1 - t^4" in r.stdout
    r = run_cli(["poincare", "--n", "3", "--i", "2", "--j", "2", "--format", "json"])
    payload = json.loads(r.stdout)
    assert payload["numerator"] == "1 + t^2 + t^3 + t^5"
    r = run_cli(["poincare", "--n", "3", "--i", "1", "--j", "3", "--format", "json"])
    assert json.loads(r.stdout)["numerator"] == "t^2 + t^3"


def test_resolve_command_passes():
    r = run_cli(["resolve", "--n", "2", "--i", "1", "--max-deg", "4"])
    assert r.returncode == 0
    assert "P1 | P2 | P2 | P1 | P1 | period 4" in r.stdout


def test_resolve_reflected_term():
    r = run_cli(["resolve", "--n", "3", "--i", "2", "--max-deg", "6", "--format", "json"])
    payload = json.loads(r.stdout)
    assert payload["terms"].split(" | ")[3] == "P2"  # degree N lands on P_{N+1-i}


def test_resolve_corrupt_flag_fails():
    r = run_cli(["resolve", "--n", "3", "--i", "1", "--char", "0",
                 "--debug-corrupt-sign", "--format", "json"])
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failed and any("degree" in c["detail"] for c in failed)


def test_resolve_corrupt_flag_fails_over_q(capsys):
    # the rationals' int-backed scalars leave the sign control live
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert main(["resolve", "--n", str(n), "--i", str(i), "--char", "0",
                         "--debug-corrupt-sign", "--format", "json"]) == 1, (n, i)
            assert json.loads(capsys.readouterr().out)["checks"]


def test_verify_relations_vacuous_n1():
    r = run_cli(["verify", "--suite", "relations", "--n", "1", "--format", "json"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "PASS"


def test_verify_all_small():
    r = run_cli(["verify", "--suite", "all", "--n", "2", "--max-deg", "8"])
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_verify_gamma_suite():
    r = run_cli(["verify", "--suite", "gamma", "--n", "3", "--max-deg", "8",
                 "--format", "json"])
    assert r.returncode == 0


def test_gamma_dims_against_table():
    r = run_cli(["gamma-dims", "--n", "2", "--max-deg", "6", "--format", "json"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["data"]["1,2"] == [0, 1, 1, 0, 0, 1, 1]


def test_yoneda_product_command():
    r = run_cli(["yoneda-product", "--n", "3", "--word", "x1 x2", "--format", "json"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["data"]["1,3"] == "nonzero"
    r = run_cli(["yoneda-product", "--n", "3", "--word", "x1 x1*"])
    assert "zero" in r.stdout


def test_yoneda_product_of_a_long_word():
    # 600 arrows: a word map composed one arrow at a time recursed two
    # frames per arrow on a component read and overflowed the stack
    for word, verdict in (("x1 x1*", "class is zero"), ("y1 y3", "class is nonzero")):
        r = run_cli(["yoneda-product", "--n", "3", "--word", " ".join([word] * 300)])
        assert r.returncode == 0, (word, r.stderr)
        assert r.stdout.rstrip().endswith(verdict)


def test_word_parsing():
    assert parse_word(3, "x1, x2  y3") == (("x", 1), ("x", 2), ("y", 3))
    assert parse_word(3, "y1 x2*") == (("y", 1), ("xstar", 2))
    with pytest.raises(ValueError):
        parse_word(3, "z1")
    with pytest.raises(ValueError):
        parse_word(3, "y1*")


def test_usage_errors_exit_two():
    assert run_cli(["ext-table", "--n", "0"]).returncode == 2
    assert run_cli(["poincare", "--n", "2", "--i", "3", "--j", "1"]).returncode == 2
    assert run_cli(["resolve", "--n", "2"]).returncode == 2
    assert run_cli(["ext-table", "--n", "2", "--seed", "5"]).returncode == 2
    # an unwritable --out is an input error, not a failed verification
    for out in ("/nonexistent/x", "/"):
        r = run_cli(["ext-table", "--n", "2", "--out", out])
        assert r.returncode == 2, out
        assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
        assert r.stderr.startswith(f"error: cannot write {out}: ")
    for word in ("x5", "x3", "x3*", "x0", "y0", "y4"):
        r = run_cli(["yoneda-product", "--n", "3", "--word", word])
        assert r.returncode == 2, word
        assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    for word in ("", " , "):
        r = run_cli(["yoneda-product", "--n", "3", "--word", word])
        assert r.returncode == 2 and r.stderr == "error: --word names no arrow\n", word
    # a word that does not compose is named as it was typed, not by internal keys
    for word in ("x1 x1", "x2* x2*", "y1 y1"):
        r = run_cli(["yoneda-product", "--n", "3", "--word", word])
        expected = "error: word is not composable at {} -> {}\n".format(*word.split())
        assert r.returncode == 2 and r.stderr == expected, word
    # a word's degree is its own, so yoneda-product takes no --max-deg
    r = run_cli(["yoneda-product", "--n", "3", "--word", "x1 x2", "--max-deg", "5"])
    assert r.returncode == 2 and "unrecognized arguments: --max-deg 5" in r.stderr
    # (2^31 - 1)^2 is composite with no small factor; 2^89 - 1 is a prime
    # above the range where primality is decided exactly
    for char in (6, 1, -3, (2**31 - 1) ** 2, 2**89 - 1):
        r = run_cli(["ext-table", "--n", "2", f"--char={char}"], timeout=30)
        assert r.returncode == 2, char
        errors = [line for line in r.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("extline: error: --char: "), char
        assert "Traceback" not in r.stderr, char
    # no list can be indexed past sys.maxsize: such values overflowed (exit 3),
    # exhausted memory or ran without end before they were refused
    big = "100000000000000000000"
    for argv in (["poincare", "--n", "2", "--i", "1", "--j", "1", "--max-deg", big],
                 ["gamma-dims", "--n", "2", "--char", "0", "--max-deg", big],
                 ["verify", "--suite", "syzygy", "--n", big],
                 ["ext-table", "--n", big],
                 ["ext-table", "--n", "2", "--max-deg", big],
                 ["ext-table", "--n", str(sys.maxsize + 1)]):
        r = run_cli(argv, timeout=30)
        assert r.returncode == 2, argv
        errors = [line for line in r.stderr.splitlines() if "error:" in line]
        flag = "--max-deg" if "--max-deg" in argv else "--n"
        assert errors == [f"extline: error: {flag} must be at most {sys.maxsize}"], argv


@pytest.mark.parametrize("error,code,line", [
    (RuntimeError("boom\nsecond line"), 3, "extline: internal error: RuntimeError: boom second line"),
    (MemoryError(), 3, "extline: internal error: MemoryError: "),
    (ChainMapError("square fails at degree 4"), 1,
     "extline: verification failed: square fails at degree 4"),
])
def test_an_exception_in_a_layer_exits_with_one_line(error, code, line, monkeypatch, capsys):
    # a crash is not a verdict: it must not exit 1 as a failed check would,
    # except a chain map that failed its verification, which is one
    def broken(alg):
        raise error

    monkeypatch.setattr(path_algebra, "verify_chain_relations", broken)
    assert main(["verify", "--suite", "relations", "--n", "3"]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and not captured.out


def test_help_lists_the_exit_codes():
    r = run_cli(["--help"])
    assert r.returncode == 0
    assert " ".join(r.stdout.split()).endswith(
        "exit codes: 0 every check passed; 1 a check failed; 2 usage error; 3 internal error; "
        "141 stdout closed by its reader")


def test_a_closed_stdout_pipe_exits_141_in_silence():
    # the JSON table at N = 20 is about 300 kB, far past a pipe's buffer, so
    # the run must meet the closed pipe; neither main nor the flush at
    # interpreter exit may print anything about it
    proc = subprocess.Popen([sys.executable, "-m", "extline.cli", "ext-table", "--n", "20",
                             "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141 and err == b""


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_broken_pipe_in_process_exits_141(capsys):
    # a stream with no file descriptor: main still stops, and says nothing
    with contextlib.redirect_stdout(ClosedPipe()):
        assert main(["ext-table", "--n", "3", "--format", "json"]) == 141
    assert capsys.readouterr() == ("", "")


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_every_subcommand_names_its_handler():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, p in commands.choices.items():
        handler = p.get_default("func")
        assert handler == "cmd_" + name.replace("-", "_"), name
        assert callable(getattr(cli, handler)), name


def run_in_process(argv):
    """(exit code, stdout, stderr) of one ``main`` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_a_sequence_of_calls_prints_what_each_call_prints_alone(monkeypatch):
    # one process reuses the parser across usage errors, --help and
    # commands of every kind; each call must print and exit as it would in
    # a process of its own
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    sequence = [
        ["ext-table", "--n", "2"],
        ["ext-table", "--n", "0"],
        ["gamma-dims", "--n", "3", "--char", "3", "--format", "json"],
        ["--help"],
        ["verify", "--suite", "relations", "--n", "3", "--char", "0"],
        ["yoneda-product", "--n", "3", "--word", "x5"],
        ["resolve", "--n", "3", "--i", "2", "--format", "latex"],
        ["poincare", "--n", "2", "--i", "3", "--j", "1"],
        ["ext-table", "--n", "2"],
    ]
    in_sequence = [run_in_process(argv) for argv in sequence]
    alone = [run_cli(argv, env={**os.environ, "COLUMNS": "80"}) for argv in sequence]
    assert [rc for rc, _, _ in in_sequence] == [0, 2, 0, 0, 0, 2, 0, 2, 0]
    assert in_sequence == [(r.returncode, r.stdout, r.stderr) for r in alone]


def test_a_handler_wrapped_after_the_parser_was_built_still_runs(monkeypatch):
    # the benchmark's tracer wraps cmd_* functions after earlier calls built the parser
    build_parser()
    original, seen = cli.cmd_ext_table, []
    monkeypatch.setattr(cli, "cmd_ext_table", lambda args: seen.append(args.n) or original(args))
    assert run_in_process(["ext-table", "--n", "2"])[0] == 0
    assert seen == [2]


def test_zero_and_small_prime_characteristics_accepted(capsys):
    for char in (0, 7):
        assert main(["ext-table", "--n", "2", "--char", str(char)]) == 0, char
        assert not capsys.readouterr().err, char


def test_large_prime_characteristic_accepted():
    r = run_cli(["yoneda-product", "--n", "2", "--word", "x1",
                 "--char", str(2**61 - 1)], timeout=30)
    assert r.returncode == 0
    assert "class is nonzero" in r.stdout


def test_latex_output():
    r = run_cli(["ext-table", "--n", "2", "--max-deg", "3", "--format", "latex"])
    assert r.returncode == 0
    assert r.stdout.startswith("\\begin{tabular}")
    assert "\\end{tabular}" in r.stdout
