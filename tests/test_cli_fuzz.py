"""Fuzzing the command line: whatever the arguments of any subcommand,
`exact1q` exits 0 (success), 2 (bad input) or 3 (I/O failure), never with
a traceback (1) or an internal error (4)."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from exact1q.cli import main

# Arities stop at 5 so that no slow input is reached; 25 is past the cap.
_ARITY_INTS = ["-1", "0", "1", "2", "3", "4", "5", "25"]
_ARITIES = st.sampled_from(_ARITY_INTS)
# Free text never starts an option, so no drawn token becomes `--out`.
_JUNK = st.sampled_from(["", "x", "-", "--", "1/0", "1/2", "-1/2", "3.5", "--bogus", "-h"]) | st.text(
    alphabet="ab01/,. é", max_size=5
)
# Placeholders for the files the `files` fixture writes.
_FILES = st.sampled_from(["{fn}", "{const}", "{bad}", "{witness}", "{missing}", "{dir}", "x"])
_OUT = st.sampled_from([[], [], ["--out", "{out}"], ["--out", "{dir}"], ["--out", "{missing}/out"]])
_RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=6).map(str)


def _rational_list(sizes):
    lists = st.sampled_from(sizes).flatmap(lambda k: st.lists(_RATIONALS, min_size=k, max_size=k))
    return lists.map(",".join) | _JUNK


_PROFILES = st.sampled_from([("0,2,6", "1/6,1/12"), ("0,3", "1/4"), ("0,1,3", "1/4,1/8")]) | st.tuples(
    st.lists(_ARITIES, min_size=1, max_size=3).map(lambda ks: ",".join(["0"] + ks)) | _JUNK,
    _rational_list([1, 2, 3]),
)
_COMMANDS = {
    "decide": st.tuples(_FILES).map(list),
    "reduce": st.tuples(_FILES).map(list),
    "represent": st.tuples(_FILES).map(list),
    "polyfn": _rational_list([0, 1, 2, 3, 4, 5, 25]).map(lambda c: ["--coeffs", c]),
    "construct": _PROFILES.map(lambda ka: ["--k", ka[0], "--a", ka[1]]),
    "dj": _ARITIES.map(lambda n: ["--n", n]),
    "enumerate": st.tuples(_ARITIES, st.sampled_from(["csv", "json", "xml"])).map(
        lambda nf: ["--n", nf[0], "--format", nf[1]]
    ),
    "tables": _ARITIES.map(lambda n: ["--n", n]),
    "simulate": st.tuples(_FILES, _FILES).map(lambda fw: [fw[0], "--witness", fw[1]]),
}


@st.composite
def _args(draw, command):
    args = draw(_COMMANDS[command])
    if draw(st.integers(0, 3)) == 0:
        # shuffle in junk, then cut: options go missing, values lose their flags
        args = draw(st.permutations(args + draw(st.lists(_JUNK, max_size=2))))
        args = args[: draw(st.integers(0, len(args)))]
    return args + draw(_OUT)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    contents = {
        "fn": {"n": 2, "ones": ["01", "10"], "zeros": ["00", "11"]},
        "const": {"n": 2, "ones": ["01"], "zeros": []},
        "witness": {"z0": "0", "z": ["1/2", "1/2"]},
    }
    paths = {"dir": str(root), "missing": str(root / "missing"), "out": str(root / "out")}
    for name, data in contents.items():
        (root / f"{name}.json").write_text(json.dumps(data))
        paths[name] = str(root / f"{name}.json")
    (root / "bad.json").write_text("{not json")
    paths["bad"] = str(root / "bad.json")
    return paths


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            return exc.code


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_exits_0_2_or_3(files, command, data):
    argv = [command] + data.draw(_args(command))
    argv = [arg.format(**files) if "{" in arg else arg for arg in argv]
    assert _exit_code(argv) in (0, 2, 3), argv
