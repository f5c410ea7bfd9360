"""Command-line front end: tables, resolutions and verification reports,
serialized as JSON, aligned text, or LaTeX.

Subcommands: ext-table, poincare, resolve, verify, gamma-dims,
yoneda-product.  Exit codes (also in --help): 0 every check passed, 1 a
check failed, 2 usage error, 3 internal error.  Exits 2 and 3 explain
themselves on stderr, never with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import path_algebra
from .certify import verify_exactness, verify_syzygies
from .ext_table import (
    RouteMismatchError,
    ext_table,
    poincare_numerator,
    poincare_series,
)
from .fields import field_for_characteristic
from .homs import LineAlgebra, format_hom
from .resolutions import CheckResult, build_resolution, corrupted_resolution, verify_resolution
from .yoneda import ChainMapError


def poly_str(coeffs) -> str:
    out = ""
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = " - " if c < 0 else (" + " if out else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            mono = "t" if e == 1 else f"t^{e}"
            body = mono if mag == 1 else f"{mag}{mono}"
        out += sign + body
    return out or "0"


def psum_str(psum) -> str:
    return "+".join(f"P{j}" for j in psum)


# --------------------------------------------------------------- emitters


def _write_json(write, obj, pad: str = "\n") -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte.  With
    an indent the stdlib encodes one scalar per step in pure Python; here each
    list of scalars is one C-encoder call, its item separator holding the indent."""
    if not isinstance(obj, (dict, list, tuple)):
        return write(json.dumps(obj))
    inner, brackets = pad + "  ", "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return write(brackets)
    if isinstance(obj, dict):
        # the stdlib writes a non-str key (int, float, bool, None) as its JSON text, quoted
        items = [(json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                 for k, v in sorted(obj.items())]
    elif any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj))):
        items = [("", v) for v in obj]
    else:
        return write("[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1]
                     + pad + "]")
    for q, (key, value) in enumerate(items):
        write(("," if q else brackets[0]) + inner + key)
        _write_json(write, value, inner)
    write(pad + brackets[1])


def _write(stream, payload: dict, fmt: str) -> None:
    if fmt != "json":
        return (to_latex if fmt == "latex" else to_table)(stream.write, payload)
    _write_json(stream.write, payload)
    stream.write("\n")


def emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if not out_path:
        return _write(sys.stdout, payload, fmt)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(fh, payload, fmt)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)


def to_table(write, payload: dict) -> None:
    """Write the payload as aligned text, one line per call of ``write``."""
    write(f"n={payload['n']} characteristic={payload['characteristic']} "
          f"max_degree={payload['max_degree']}\n")
    data = payload.get("data", {})
    if data:
        width = max(len(key) for key in data) + 2
        if all(isinstance(v, (list, tuple)) for v in data.values()):
            write("cell".ljust(width) + " ".join(
                f"k={k}" for k in range(payload["max_degree"] + 1)) + "\n")
            # the entry of degree k is right-aligned under its "k=<k>" heading
            widths = [3 + len(str(k)) for k in range(max(map(len, data.values())))]
            for key in sorted(data, key=_cell_key):
                cells = " ".join(map(str.rjust, map(str, data[key]), widths))
                write(key.ljust(width) + cells + "\n")
        else:
            for key in sorted(data, key=_cell_key):
                write(f"{key}: {data[key]}\n")
    for extra in ("numerator", "denominator", "terms", "word", "classinfo"):
        if extra in payload:
            write(f"{extra}: {payload[extra]}\n")
    if "differentials" in payload:
        write("differentials:\n")
        for d in payload["differentials"]:
            write(f"  d_{d['degree']}: {d['source']} -> {d['target']}\n")
            for row in d["matrix"]:
                write("    [" + ", ".join(row) + "]\n")
    checks = payload.get("checks", [])
    if checks:
        write("checks:\n")
        for c in checks:
            detail = f"  ({c['detail']})" if c.get("detail") else ""
            write(f"  [{c['status'].upper():4}] {c['name']}{detail}\n")


def _cell_key(key: str):
    return tuple(int(x) for x in re.findall(r"-?\d+", key)) or (0,)


def to_latex(write, payload: dict) -> None:
    """Write the payload's data as a LaTeX tabular, one line per call of ``write``."""
    data = payload.get("data", {})
    K = payload["max_degree"]
    write("\\begin{tabular}{l" + "r" * (K + 1) + "}\n")
    write("cell & " + " & ".join(f"$k={k}$" for k in range(K + 1)) + " \\\\ \\hline\n")
    for key in sorted(data, key=_cell_key):
        row = data[key]
        if isinstance(row, (list, tuple)):
            write(f"$({key})$ & " + " & ".join(map(str, row)) + " \\\\\n")
        else:
            write(f"$({key})$ & \\multicolumn{{{K + 1}}}{{l}}{{{row}}} \\\\\n")
    write("\\end{tabular}\n")


def checks_payload(checks) -> list:
    return [{"name": c.name, "status": "pass" if c.ok else "fail", "detail": c.detail}
            for c in checks]


def _emit_report(args, max_degree, data, checks, **extras) -> None:
    """Emit the common payload of every command, plus its extras."""
    payload = {
        "n": args.n,
        "characteristic": args.char,
        "max_degree": max_degree,
        "data": data,
        "checks": checks_payload(checks),
        **extras,
    }
    emit(payload, args.format, args.out)


# --------------------------------------------------------------- commands


def cmd_ext_table(args) -> int:
    try:
        table = ext_table(args.n, args.max_deg)
        check = CheckResult("route agreement", True)
        data = {f"{i},{j}": row for (i, j), row in table.data.items()}
    except RouteMismatchError as exc:
        check = CheckResult("route agreement", False, str(exc))
        data = {}
    _emit_report(args, args.max_deg, data, [check])
    return 0 if check.ok else 1


def cmd_poincare(args) -> int:
    n = args.n
    num = poincare_numerator(n, args.i, args.j)
    series = poincare_series(n, args.i, args.j, args.max_deg)
    denom = [1] + [0] * (2 * n - 1) + [-1]
    _emit_report(args, args.max_deg, {f"{args.i},{args.j}": series}, [],
                 numerator=poly_str(num), denominator=poly_str(denom))
    return 0


def cmd_resolve(args) -> int:
    alg = LineAlgebra(args.n, args.field)
    depth = args.max_deg
    if args.debug_corrupt_sign:
        cx = corrupted_resolution(alg, args.i, depth)
    else:
        cx = build_resolution(alg, args.i, depth)
    checks = verify_resolution(cx, args.i) + verify_exactness(cx, args.i)
    terms = [psum_str(cx.term(k)) for k in range(depth + 1)]
    diffs = []
    for k in range(1, depth + 1):
        d = cx.diff(k)
        diffs.append({"degree": k, "source": psum_str(d.source), "target": psum_str(d.target),
                      "matrix": [[format_hom(alg, e) for e in row] for row in d.entries]})
    _emit_report(args, depth, {}, checks,
                 terms=" | ".join(terms) + f" | period {2 * args.n}", differentials=diffs)
    return 0 if all(c.ok for c in checks) else 1


def _resolution_suite(alg, args):
    """Each R_i's structural checks, then the oracle's, which realize its
    projective sums in one memo for the whole suite."""
    sums = {}
    for i in range(1, args.n + 1):
        cx = build_resolution(alg, i, args.max_deg)
        yield f"R_{i}: ", verify_resolution(cx, i) + verify_exactness(cx, i, sums)


# suite -> (alg, args) -> (name prefix, checks) groups, in the order "all" runs them
_SUITES = {
    "syzygy": lambda alg, args: [("", verify_syzygies(alg))],
    "resolution": _resolution_suite,
    "relations": lambda alg, args: [("relation: ", path_algebra.verify_chain_relations(alg))],
    "gamma": lambda alg, args: [("presentation: ", path_algebra.verify_presentation(
        alg, args.max_deg if args.max_deg is not None else 2 * args.n + 2))],
}


def cmd_verify(args) -> int:
    alg = LineAlgebra(args.n, args.field)
    checks = []
    for suite in list(_SUITES) if args.suite == "all" else [args.suite]:
        for prefix, group in _SUITES[suite](alg, args):
            checks += [CheckResult(prefix + c.name, c.ok, c.detail) for c in group]
    ok = all(c.ok for c in checks)
    _emit_report(args, args.max_deg if args.max_deg is not None else 4 * args.n, {}, checks,
                 status="PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_gamma_dims(args) -> int:
    K = args.max_deg
    gd = path_algebra.graded_dimension(args.n, K, args.field)
    data = {f"{i},{j}": row for (i, j), row in gd.data.items()}
    bad = path_algebra.dimension_mismatches(gd, ext_table(args.n, K))
    check = CheckResult("graded dimensions match Ext table", not bad, str(bad) if bad else "")
    _emit_report(args, K, data, [check])
    return 0 if check.ok else 1


_TOKEN = re.compile(r"^(x|y)(\d+)(\*?)$")


def parse_word(n: int, text: str):
    tokens = [t for t in re.split(r"[,\s.]+", text.strip()) if t]
    arrows = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"cannot parse arrow {tok!r} (expected like x1, x2*, y3)")
        kind, idx, star = m.group(1), int(m.group(2)), m.group(3)
        if kind == "y" and star:
            raise ValueError("turnaround arrows have no starred version")
        top = n if kind == "y" else n - 1
        if not 1 <= idx <= top:
            raise ValueError(f"arrow {tok!r} does not exist for N={n} "
                             f"(x and x* take 1..{n - 1}, y takes 1..{n})")
        arrows.append(("xstar" if star else kind, idx))
    if not arrows:
        raise ValueError("--word names no arrow")
    arrows = tuple(arrows)
    path_algebra.word_ends(n, arrows)  # ValueError unless composable
    return arrows


def cmd_yoneda_product(args) -> int:
    alg = LineAlgebra(args.n, args.field)
    try:
        word = parse_word(args.n, args.word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cls = path_algebra.evaluate_word(alg, word)
    verdict = "nonzero" if cls.nonzero else "zero"
    _emit_report(args, cls.k, {f"{cls.i},{cls.j}": verdict}, [],
                 word=path_algebra.format_word(word),
                 classinfo=f"Ext^{cls.k}(S_{cls.i}, S_{cls.j}) class is {verdict}")
    return 0


# ------------------------------------------------------------------ main


def _add_common(p, need_ij=False):
    p.add_argument("--n", type=int, required=True, help="number of simple modules")
    p.add_argument("--char", type=int, default=2,
                   help="field characteristic, 0 or a prime (default 2)")
    p.add_argument("--format", choices=["json", "table", "latex"], default="table")
    p.add_argument("--out", default=None, help="write output to this file")
    if need_ij:
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--j", type=int, required=True)


@functools.cache
def build_parser():
    """The parser of every command, built once per process: parsing leaves
    it as it was, so each ``main`` call can reuse it.  Each subcommand names
    its ``cmd_*`` handler as its ``func`` default."""
    parser = argparse.ArgumentParser(
        prog="extline",
        description="Exact Ext-algebra computations for the Brauer line algebra.",
        epilog="exit codes: 0 every check passed; 1 a check failed; 2 usage error; "
               "3 internal error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext-table", help="table of dim Ext^k(S_i, S_j)")
    p.set_defaults(func="cmd_ext_table")
    _add_common(p)

    p = sub.add_parser("poincare", help="Poincare series of one (i, j) cell")
    p.set_defaults(func="cmd_poincare")
    _add_common(p, need_ij=True)

    p = sub.add_parser("resolve", help="closed-form minimal resolution of S_i")
    p.set_defaults(func="cmd_resolve")
    _add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--debug-corrupt-sign", action="store_true",
                   help="negative control: damage one differential entry")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(func="cmd_verify")
    _add_common(p)
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")

    p = sub.add_parser("gamma-dims", help="graded dimensions of the presented algebra")
    p.set_defaults(func="cmd_gamma_dims")
    _add_common(p)

    p = sub.add_parser("yoneda-product", help="evaluate a word in the generators")
    p.set_defaults(func="cmd_yoneda_product", max_deg=None)
    _add_common(p)
    p.add_argument("--word", required=True,
                   help="arrows in path order, e.g. 'x1 x2' or 'y1 x2*'")
    for name, p in sub.choices.items():  # a word's degree is its own top degree
        if name != "yoneda-product":
            p.add_argument("--max-deg", type=int, default=None, help="top degree (default 4N)")
    return parser


def validate(parser, args):
    # past sys.maxsize no list can be indexed: a value there can only overflow or never end
    for flag, value in (("--n", args.n), ("--max-deg", args.max_deg)):
        if value is not None and value > sys.maxsize:
            parser.error(f"{flag} must be at most {sys.maxsize}")
    if args.n < 1:
        parser.error("--n must be at least 1")
    try:
        args.field = field_for_characteristic(args.char)
    except ValueError as exc:
        parser.error(f"--char: {exc}")
    if args.max_deg is None:
        if args.command not in ("verify", "yoneda-product"):
            args.max_deg = 4 * args.n
    elif args.max_deg < 0:
        parser.error("--max-deg must be nonnegative")
    for attr in ("i", "j"):
        if hasattr(args, attr) and getattr(args, attr) is not None:
            v = getattr(args, attr)
            if not 1 <= v <= args.n:
                parser.error(f"--{attr} must lie in 1..{args.n}")


def main(argv=None) -> int:
    """Run one command.  An exception ends it with one stderr line: exit 1
    for a chain map that failed its verification, exit 3 for any other,
    which is a fault of the run and not a verdict."""
    parser = build_parser()
    args = parser.parse_args(argv)
    validate(parser, args)
    try:
        # the cached parser names each handler rather than holding it, so that
        # a wrapper put on it later (a tracer, a test) still runs
        return globals()[args.func](args)
    except Exception as exc:
        text = " ".join(str(exc).split())
        if isinstance(exc, ChainMapError):
            print(f"extline: verification failed: {text}", file=sys.stderr)
            return 1
        print(f"extline: internal error: {type(exc).__name__}: {text}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
