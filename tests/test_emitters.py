"""The emitters: pinned bytes of --format table and --format latex, and the
JSON writer against the stdlib encoder.

Each pinned case runs one command for N = 1..6 and hashes the exit codes
and outputs together.  The hashes were recorded before the emitters were
rewritten row by row, so any change to the text a command prints shows
here; the JSON bytes of the benchmark jobs are pinned by
perfbench/reference.json.  The two ``--char 3`` resolve cases are the ones
whose matrices print signs, which F_2 does not have.  The ``gamma-dims``
JSON pins at N = 12 and 24 over chars 0, 2, 3 and 5, and at N = 5 through
degree 50, were recorded before the graded quotient read its first arrows
off its product tables.
"""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extline.cli import _write_json, main

COMMANDS = {
    "ext-table": lambda n: ["ext-table"],
    "poincare": lambda n: ["poincare", "--i", "1", "--j", str(n)],
    "gamma-dims": lambda n: ["gamma-dims"],
    "resolve": lambda n: ["resolve", "--i", str((n + 1) // 2)],
    "resolve-corrupt": lambda n: ["resolve", "--i", "1", "--debug-corrupt-sign"],
    "resolve-f3": lambda n: ["resolve", "--i", str((n + 1) // 2), "--char", "3"],
    "resolve-corrupt-f3": lambda n: ["resolve", "--i", "1", "--debug-corrupt-sign", "--char", "3"],
    "verify": lambda n: ["verify"],
}

PINNED = {
    ("ext-table", "table"):
        "19ed27492a1683306d271432a4a511de1b52d899cfb52ae5ba9932c6800cdd48",
    ("ext-table", "latex"):
        "504d4f9bffb8abba43f95e702cda5775d0836dc53635c0657aa617c8a178e429",
    ("poincare", "table"):
        "912c147a6f8c42ad1844d17e0797138e3b79c0b5102891fd16096be70cc733a3",
    ("poincare", "latex"):
        "a3aae480b81286df54eac2faddcb3701e72135f1b58ff63cb7442e864f22ef69",
    ("gamma-dims", "table"):
        "0629c6906419345bc2b26fca3012e92d3b9fbdfeed03aa84de30b1e8e372bbaa",
    ("gamma-dims", "latex"):
        "504d4f9bffb8abba43f95e702cda5775d0836dc53635c0657aa617c8a178e429",
    ("resolve", "table"):
        "b22a2aa5eed7cd6eee4c6b82af189365817a5ad0e003cc4d8018ea5d790f88a2",
    ("resolve", "latex"):
        "3bcfb50aebc57e02437f760095e34daf7e2d4362160a9a6645efcfa72205999b",
    ("resolve-corrupt", "table"):
        "9a83bf4e50eccb9ac158d3e23ffb7835d24547e77e37645e62f4aeec2b039a6d",
    ("resolve-corrupt", "latex"):
        "56ac51428724caff80a6d241871e6a2fd0de37add33255b552a5a697aebb746e",
    ("resolve-f3", "table"):
        "3381b28dae1299f63cd597426be647f5c3e6e291bb9aa8167a85c7206911f4f4",
    ("resolve-f3", "latex"):
        "3bcfb50aebc57e02437f760095e34daf7e2d4362160a9a6645efcfa72205999b",
    ("resolve-corrupt-f3", "table"):
        "61face4157e0f6003d70e48084eb7675dec35bf0634e602e6825e185c540a687",
    ("resolve-corrupt-f3", "latex"):
        "56ac51428724caff80a6d241871e6a2fd0de37add33255b552a5a697aebb746e",
    ("verify", "table"):
        "6dbb15c36138f2cf24e6d1482834dfedc9e35927c6dd1e2a091e4a599015c404",
    ("verify", "latex"):
        "3bcfb50aebc57e02437f760095e34daf7e2d4362160a9a6645efcfa72205999b",
}


def outputs_digest(command: str, fmt: str) -> str:
    digest = hashlib.sha256()
    for n in range(1, 7):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main([*COMMANDS[command](n), "--n", str(n), "--format", fmt])
        digest.update(f"{n} {rc}\n".encode())
        digest.update(buf.getvalue().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(PINNED))
def test_text_output_is_pinned(command, fmt):
    assert outputs_digest(command, fmt) == PINNED[(command, fmt)]


class LineRecorder(io.StringIO):
    """A stream that keeps every write it receives."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "latex"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_text_output_is_written_a_line_at_a_time(command, fmt):
    for n in (1, 4):
        out = LineRecorder()
        with contextlib.redirect_stdout(out):
            main([*COMMANDS[command](n), "--n", str(n), "--format", fmt])
        assert out.writes and all(w.endswith("\n") and w.count("\n") == 1 for w in out.writes)


# ------------------------------------------------------------ JSON writer

TRICKY_TEXT = st.sampled_from(['"', "\\", "\n", "a\"b\nc", "\u00e9", "\u2603", "\U0001f600", ""])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(2 ** 70), st.just(-(2 ** 70)),
    st.floats(), st.text(), TRICKY_TEXT,
)
KEYS = st.one_of(st.text(), TRICKY_TEXT)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(KEYS, inner, max_size=6),
        st.dictionaries(st.integers(), inner, max_size=3),
        st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=8),  # bools in int rows
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(PAYLOADS)
@example({"data": {"1,1": (1, 0, True), "1,2": [0, None, 2 ** 70]}, "checks": [], "e": {}})
@example([1, [2, (3, {})], "x", {"k": ()}, [], 1.5, -0.0, float("inf"), float("nan")])
@example({"\u00e9\"\n": ["\u2603", "a\\b"], "": [[[]]], "z": False})
def test_json_writer_equals_the_stdlib(payload):
    buf = io.StringIO()
    _write_json(buf.write, payload)
    assert buf.getvalue() == json.dumps(payload, sort_keys=True, indent=2)


# ------------------------------------------------------- graded quotient JSON

# sha256 of the stdout of `gamma-dims ... --format json`: the quotient's graded
# dimensions over each tested characteristic, and past the default 4N window
GAMMA_JSON_PINNED = {
    ("--n", "12", "--char", "0"):
        "ab15ff9954a22de043fb4e957823a95deb5b6365d96b3ec072dafc4c90b4b6f7",
    ("--n", "12", "--char", "2"):
        "870849733b87638bbd553c56db8fc8ffa9e5266f5872aa4e22af48d333e9fb7c",
    ("--n", "12", "--char", "3"):
        "0ee0910b6ee8e10306a906a5a4afa92f8bfcb0abcd15f36fa57b7659e325c18b",
    ("--n", "12", "--char", "5"):
        "ac483aae467b1c0d1309812f4607d7f06aacc01640963002f7b6bd8bfd5a78bd",
    ("--n", "24", "--char", "0"):
        "fd592a24b4e3ea8fcdd6c11bde0c4fc2b59cb736997a815776d6290a9bf1a0fe",
    ("--n", "24", "--char", "2"):
        "2fbca39fadc2381ae9fd95798cf4e726f25bc04727fe27a012d6d6c55e2afdeb",
    ("--n", "24", "--char", "3"):
        "3e47f7dd9cb00790a60ef829f338927790d8e7e7adc150489b7afddcaf303cfe",
    ("--n", "24", "--char", "5"):
        "4e5a7140044c67263b6e49d4ad253c3d8619a29276dce1f0d456bcbfd07b5d47",
    ("--n", "5", "--max-deg", "50"):
        "f3b1c4b51eaae254ad473382214571c3243c075c70240df95fd1ee0e33812eee",
}


@pytest.mark.parametrize("options", sorted(GAMMA_JSON_PINNED))
def test_gamma_dims_json_is_pinned(options):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["gamma-dims", *options, "--format", "json"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GAMMA_JSON_PINNED[options]
