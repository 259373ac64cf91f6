import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from exact1q.cli import build_parser, main
from exact1q.jsonio import (
    function_from_dict,
    function_to_dict,
    parse_rational,
    witness_from_dict,
    witness_to_dict,
)
from exact1q.core import from_strings
from exact1q.errors import ArityTooLargeError, SchemaError
from exact1q.construct import dj_family
from exact1q.feasibility import decide

from seeded import seeded_functions


@pytest.fixture
def deutsch_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"n": 2, "ones": ["01", "10"], "zeros": ["00", "11"]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_roundtrip(capsys, deutsch_file):
    code, out, _ = run(capsys, "decide", deutsch_file)
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["witness"] == {"z0": "0", "z": ["1/2", "1/2"]}


def test_decide_constant_is_exit_2(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"n": 2, "ones": ["00", "11"], "zeros": []}))
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2
    assert "non-constant" in err


def test_missing_file_is_exit_3(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/fn.json")
    assert code == 3


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "argv, content",
    [
        (["polyfn", "--coeffs", "1/0"], None),
        # within the arity cap, but 2**21 masks to list
        (["polyfn", "--coeffs", ",".join(["1/21"] * 21)], None),
        # every mask of weight >= 11 of 21 bits: 1,048,576 masks to list
        (["dj", "--n", "21"], None),
        # every mask of weight 11 of 22 bits: 705,432 masks to list
        (["construct", "--k", "0,22", "--a", "1/22"], None),
        # 24 one-bit groups: 2,704,156 masks, refused before any level solution is listed
        (["construct", "--k", ",".join(map(str, range(25))), "--a", ",".join(["1/24"] * 24)], None),
        (["construct", "--k", "0,2", "--a", "1/0"], None),
        (["construct", "--k", "a", "--a", "1/2"], None),
        (["decide", "{file}"], b"\xff\xfe{}"),
        (["enumerate", "--n", "-3"], None),
        (["enumerate", "--n", "0"], None),
        (["decide", "{file}"], b'{"n": true, "ones": ["1"], "zeros": ["0"]}'),
        (["decide", "{file}"], b'{"n": ' + b"9" * 5000 + b', "ones": [], "zeros": []}'),
    ],
    ids=["zero-denominator-coeffs", "polyfn-past-mask-cap", "dj-past-mask-cap", "construct-past-mask-cap",
         "construct-one-bit-groups-past-mask-cap",
         "zero-denominator-a", "non-integer-k", "non-utf8-file", "negative-arity", "zero-arity", "bool-arity",
         "int-past-digit-limit"],
)
def test_bad_user_input_is_exit_2(capsys, tmp_path, argv, content):
    # one diagnostic line, no traceback, and nothing on stdout
    if content is not None:
        path = tmp_path / "fn.json"
        path.write_bytes(content)
        argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("exact1q: ") and err.count("\n") == 1


def test_reduce_emits_schema(capsys, deutsch_file):
    code, out, _ = run(capsys, "reduce", deutsch_file)
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "ones": ["01", "10"], "zeros": ["00"]}
    # emitted function JSON re-parses to an equal value
    assert function_to_dict(function_from_dict(data)) == data


def test_represent_and_polyfn(capsys, deutsch_file):
    code, out, _ = run(capsys, "represent", deutsch_file)
    assert code == 0
    assert json.loads(out) == {"coefficients": ["1", "1"]}

    code, out, _ = run(capsys, "polyfn", "--coeffs", "1/2,1/2,1/2")
    assert code == 0
    data = json.loads(out)
    assert data["zeros"] == ["000"]
    assert data["ones"] == ["011", "101", "110"]


def test_construct_and_dj(capsys):
    code, out, _ = run(capsys, "construct", "--k", "0,2,6", "--a", "1/6,1/12")
    assert code == 0
    data = json.loads(out)
    assert data["level_solutions"] == [[1, 4], [2, 2]]
    assert len(data["function"]["ones"]) == 8

    code, out, _ = run(capsys, "dj", "--n", "4")
    assert code == 0
    family = json.loads(out)
    assert [len(fn["ones"]) for fn in family] == [6, 4, 1]


def test_construct_small_listing_past_the_arity_cap(capsys):
    # 22 variables, but only 2 masks to list: bit 1 alone, or the others
    code, out, _ = run(capsys, "construct", "--k", "0,1,22", "--a", "1/2,1/42")
    assert code == 0
    data = json.loads(out)
    assert data["function"]["ones"] == ["0" + "1" * 21, "1" + "0" * 21]
    assert data["level_solutions"] == [[0, 21], [1, 0]]


def test_construct_bad_profile_is_exit_2(capsys):
    code, _, err = run(capsys, "construct", "--k", "0,2", "--a", "1/8")
    assert code == 2
    assert "total weight" in err


def test_enumerate_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["enumerate", "--n", "3", "--out", str(a)]) == 0
    assert main(["enumerate", "--n", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == (
        "support,feasible,witness,symmetric,fewer_bits,dj_computable,"
        "maximal,included_by,non_trivial"
    )
    assert len(lines) == 1 + 127


@pytest.mark.parametrize("command", ["enumerate", "tables"])
def test_workers_flag_is_gone(capsys, command):
    # classification runs in one process; the flag is rejected while parsing
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["enumerate", "--n", "4", "--format", "csv"],
            "df51cf537cd7aa6db9463bb04b9c5ab5ecdab84a2f9ad52067664d00bd52170f",
        ),
        (
            ["tables", "--n", "4"],
            "5575ccf5c2e94668609c67f96227cfc5131425b522ea56198add789bb7cac251",
        ),
        (
            ["enumerate", "--n", "5", "--format", "json"],
            "3738e7c9a619c85296e190bcb6ec6479c3833aea836794a5ff0dbe3f1300113c",
        ),
        (
            ["tables", "--n", "3"],
            "24c6175128e0ee37c6261a1b7357da8323b2d36ce4c6d11c8eb1d5e704472077",
        ),
        (
            ["enumerate", "--n", "4", "--format", "json"],
            "cc53fb4f30a3c99de2e6e40c10679d55667a884b6dda250e71f75cfc86789080",
        ),
        (
            ["enumerate", "--n", "5", "--format", "csv"],
            "5f5f9e562dca27eae4b198a7830898ebe77a408d38b1460ae8ce0dcf08b3bfd7",
        ),
    ],
)
def test_output_bytes_pinned(tmp_path, argv, digest):
    # SHA-256 of the output of the exhaustive classifiers: every support
    # classified at n=3 and n=4, every maximal feasible support at n=5
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_rows_match_the_records(tmp_path, n):
    # the rows written from the cover map, one formatted tail per distinct
    # cover entry, are the records' rows, in CSV and in JSON
    from exact1q.classify import _mask_strings, enumerate_reduced
    from exact1q.cli import _CSV_COLUMNS, _enumerate_rows, _record_row

    rows = [_record_row(rec, _mask_strings(n)) for rec in enumerate_reduced(n)]
    assert [[label, *tail] for label, tail in _enumerate_rows(n, tuple)] == rows
    out = tmp_path / "out"
    assert main(["enumerate", "--n", str(n), "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(",".join(row) for row in [list(_CSV_COLUMNS), *rows]) + "\n"
    assert main(["enumerate", "--n", str(n), "--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps([dict(zip(_CSV_COLUMNS, row)) for row in rows], indent=2) + "\n"


def test_decide_output_bytes_pinned(tmp_path):
    # SHA-256 of the `decide` JSON for the seeded n = 10..12 functions
    # (feasible, infeasible by the equalities alone, infeasible by the
    # sign constraints) and the middle dj_family(12) level (220 rows). The
    # feasible-only digest pins every witness; the full one also pins each
    # lifted certificate.
    family = dj_family(12)
    digest, feasible_digest = hashlib.sha256(), hashlib.sha256()
    for f in seeded_functions((10, 11, 12)) + [family[len(family) // 2]]:
        fn, out = tmp_path / "fn.json", tmp_path / "out.json"
        fn.write_text(json.dumps(function_to_dict(f)))
        assert main(["decide", str(fn), "--out", str(out)]) == 0
        digest.update(out.read_bytes())
        if json.loads(out.read_text())["feasible"]:
            feasible_digest.update(out.read_bytes())
    assert feasible_digest.hexdigest() == "83350b07fbfd5aa4c6717666efc0a7b047f849fa5a82903374a643699238ff74"
    assert digest.hexdigest() == "62e343d8fdf02aae10675cdd9a34436b03bce22c5dc390851e572621317a5d13"


def test_public_names_resolve():
    # a deleted name must not linger in the export list
    import exact1q

    assert [name for name in exact1q.__all__ if not hasattr(exact1q, name)] == []


def test_import_does_not_load_numpy(deutsch_file, tmp_path):
    # the package needs only the standard library: the CLI starts without
    # numpy, every command runs with numpy blocked, and nothing starts a
    # process pool
    import exact1q

    src = str(Path(exact1q.__file__).parents[1])
    code = (
        "import sys; import exact1q.cli; "
        "sys.exit(bool({'numpy', 'multiprocessing'} & set(sys.modules)))"
    )
    probe = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"])
    assert probe.returncode == 0

    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"z0": "0", "z": ["1/2", "1/2"]}))
    commands = [
        ["decide", deutsch_file],
        ["reduce", deutsch_file],
        ["represent", deutsch_file],
        ["polyfn", "--coeffs", "1/2,1/4,1/4"],
        ["construct", "--k", "0,2,6", "--a", "1/6,1/12"],
        ["dj", "--n", "4"],
        ["enumerate", "--n", "3"],
        ["tables", "--n", "3"],
        ["simulate", deutsch_file, "--witness", str(wfile)],
    ]
    outs = [tmp_path / f"{argv[0]}.out" for argv in commands]
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    blocked = (
        "import json, sys; sys.modules['numpy'] = None; "
        f"sys.path.insert(0, {src!r}); from exact1q.cli import main; "
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    )
    argvs = [argv + ["--out", str(out)] for argv, out in zip(commands, outs)]
    probe = subprocess.run([sys.executable, "-c", blocked, json.dumps(argvs)])
    assert probe.returncode == 0
    assert all(out.stat().st_size for out in outs)
    assert json.loads(outs[-1].read_text())["min_success"] >= 1 - 1e-9


def test_internal_error_is_exit_4(capsys, monkeypatch, deutsch_file):
    from exact1q import cli
    from exact1q.errors import InternalError

    def broken(f):
        raise InternalError("solver self-check failed")

    monkeypatch.setattr(cli, "decide", broken)
    code, out, err = run(capsys, "decide", deutsch_file)
    assert code == 4
    assert out == ""
    assert err.startswith("exact1q: internal error: solver self-check failed")


def test_tables_n3_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["tables", "--n", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n"] == 3
    assert all(row["agree"] for row in report["rows"])
    assert report["derived_nontrivial_count"] == 0


def test_simulate_cli(capsys, deutsch_file, tmp_path):
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(witness_to_dict(decide(f).witness)))
    code, out, _ = run(capsys, "simulate", deutsch_file, "--witness", str(wfile))
    assert code == 0
    data = json.loads(out)
    assert data["min_success"] >= 1 - 1e-9


def test_rational_parsing():
    assert parse_rational("3/4") == parse_rational("6/8")
    assert str(parse_rational("-2")) == "-2"
    # a zero denominator, and more digits than int() converts
    for bad in ("0.5", "1e-3", "a/b", "", "1/0", "1" * 5000):
        with pytest.raises(SchemaError):
            parse_rational(bad)


def test_witness_schema_consistency():
    w = witness_from_dict({"z0": "0", "z": ["1/2", "1/2"]})
    assert witness_to_dict(w) == {"z0": "0", "z": ["1/2", "1/2"]}
    with pytest.raises(SchemaError):
        witness_from_dict({"z0": "1/4", "z": ["1/2", "1/2"]})
    with pytest.raises(SchemaError):
        witness_from_dict({"z": ["0.5", "0.5"]})


def test_function_json_duplicate_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        function_from_dict({"n": 2, "ones": ["01", "01"], "zeros": []})
    with pytest.raises(SchemaError, match="bad bitstring"):
        function_from_dict({"n": 2, "ones": ["012"], "zeros": []})


def test_parser_is_built_once(monkeypatch, capsys, deutsch_file):
    # argparse setup costs far more than a parse, and in-process callers
    # run `main` once per command
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["decide", deutsch_file]) == 0
    assert main(["reduce", deutsch_file]) == 0
    assert built.count("exact1q") <= 1
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "n, rule",
    [("5", "catalog covers n = 3 and n = 4 only"), ("2", "catalog covers n = 3 and n = 4 only"),
     ("0", "arity must be a positive integer")],
    ids=["n5", "n2", "n0"],
)
def test_tables_arity_gate_is_exit_2(capsys, n, rule):
    # the gate is `catalog.rows_for` behind `check_arity`, not argparse
    code, out, err = run(capsys, "tables", "--n", n)
    assert (code, out) == (2, "")
    assert rule in err and err.count("\n") == 1


def test_simulate_witness_length_mismatch_is_exit_2(capsys, deutsch_file, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"z": ["1/4", "1/4", "1/4"]}))
    code, out, err = run(capsys, "simulate", deutsch_file, "--witness", str(wfile))
    assert (code, out) == (2, "")
    assert "weight vector has 3 entries, function has 2" in err


def test_function_json_arity_goes_through_check_arity():
    with pytest.raises(ArityTooLargeError, match="exceeds the cap of 24"):
        function_from_dict({"n": 25, "ones": [], "zeros": []})
    for bad in ("2", True, 0):
        with pytest.raises(SchemaError, match="arity must be a positive integer"):
            function_from_dict({"n": bad, "ones": [], "zeros": []})
