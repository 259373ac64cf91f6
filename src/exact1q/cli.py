"""Command-line front end.

Exit codes: 0 success; 2 precondition or input errors (with a one-line
diagnostic); 3 I/O failures; 4 internal invariant violations (bugs).
Output is UTF-8 and byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterator

from .classify import (
    _dj_keys,
    _mask_strings,
    _PartLabels,
    _records,
    _symmetric_keys,
    classify,
    reproduce_tables,
)
from .construct import construct, dj_family, level_solutions, profile
from .errors import Exact1qError, InternalError, SchemaError
from .feasibility import decide
from .jsonio import (
    function_to_dict,
    load_function,
    load_witness,
    parse_rational,
    result_to_dict,
)
from .poly import function_of, polynomial, represent
from .reduction import reduce
from .simulate import success_probabilities

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out_path)


def _cmd_decide(args) -> None:
    f = load_function(args.function)
    _emit(result_to_dict(decide(f)), args.out)


def _cmd_reduce(args) -> None:
    f = load_function(args.function)
    _emit(function_to_dict(reduce(f).as_function()), args.out)


def _cmd_represent(args) -> None:
    f = load_function(args.function)
    p = represent(reduce(f))
    _emit({"coefficients": [str(c) for c in p.coefficients]}, args.out)


def _cmd_polyfn(args) -> None:
    coeffs = [parse_rational(c) for c in args.coeffs.split(",")]
    classes = function_of(polynomial(coeffs))
    _emit(classes.as_bitstrings(), args.out)


def _int_list(text: str) -> list[int]:
    try:
        return [int(k) for k in text.split(",")]
    except ValueError:
        raise SchemaError(f"bad integer list {text!r}: expected e.g. 0,2,6") from None


def _cmd_construct(args) -> None:
    boundaries = _int_list(args.k)
    values = [parse_rational(a) for a in args.a.split(",")]
    prof = profile(boundaries, values)
    fn = construct(prof)
    payload = {
        "function": function_to_dict(fn),
        "level_solutions": [list(sol) for sol in level_solutions(prof)],
    }
    _emit(payload, args.out)


def _cmd_dj(args) -> None:
    _emit([function_to_dict(fn) for fn in dj_family(args.n)], args.out)


_CSV_COLUMNS = (
    "support",
    "feasible",
    "witness",
    "symmetric",
    "fewer_bits",
    "dj_computable",
    "maximal",
    "included_by",
    "non_trivial",
)


_BOOL = ("false", "true")


def _record_row(rec, names: tuple[str, ...]) -> list[str]:
    """The CSV cells of a record; `names` is `_mask_strings` of its arity."""
    fewer_bits = rec.fewer_bits
    return [
        ";".join([names[m] for m in rec.support]),
        _BOOL[rec.feasible],
        " ".join(map(str, rec.witness.z)) if rec.witness else "",
        _BOOL[rec.symmetric],
        _BOOL[fewer_bits],
        _BOOL[rec.dj_computable],
        _BOOL[rec.maximal],
        "" if rec.included_by is None else ";".join([names[m] for m in rec.included_by]),
        _BOOL[rec.non_trivial],
    ]


def _enumerate_rows(n: int, shape: Callable[[list[str]], object]) -> Iterator[tuple[str, object]]:
    """(support label, shape(the other eight cells)) of each row of
    `enumerate --n n`, in support-key order, written from the cover map
    (`classify.classify`) with no record per key.

    The eight cells depend only on the key's cover entry (witness row,
    zero-bit key, class key), on whether the key is that class key, and on
    its two level flags. They are formatted and shaped once per distinct
    tuple of these: the first key that has it gets its record from
    `_records` and its whole row from `_record_row`, so every flag keeps
    its one definition (122 distinct tails over the 32,767 rows at n=4,
    none repeated at n=5). Every later key gets only its label, two
    lookups in lazily built part tables (`_PartLabels`). The cache is keyed
    on ints and bools: a row's weights are one object per table row, so
    their id names the row and no Fraction is hashed."""
    keys, cover = classify(n)
    names = _mask_strings(n)
    symmetric, dj_computable = _symmetric_keys(n), _dj_keys(n)
    low, high = _PartLabels(names, 0), _PartLabels(names, 8)
    tails = {}
    for key in keys:
        hit = cover.get(key)
        if hit is None:
            entry = key in symmetric, key in dj_computable
        else:
            entry = key in symmetric, key in dj_computable, id(hit[0]), hit[1], hit[2], hit[2] == key
        tail = tails.get(entry)
        if tail is not None:
            yield (low[key & 255] + high[key >> 8])[1:], tail
        else:
            cells = _record_row(_records(n, [key], cover)[0], names)
            tails[entry] = tail = shape(cells[1:])
            yield cells[0], tail


def _json_tail(cells: list[str]) -> str:
    """What `json.dumps(rows, indent=2)` writes after a row's support cell."""
    items = [f',\n    "{column}": {json.dumps(cell)}' for column, cell in zip(_CSV_COLUMNS[1:], cells)]
    return "".join(items) + "\n  }"


def _cmd_enumerate(args) -> None:
    """Rows are written from the cover map (`_enumerate_rows`), with one
    formatted tail per distinct cover entry, in CSV or as the text
    `json.dumps(rows, indent=2)` writes for the rows as dicts; a label is
    bitstrings and ";", which JSON writes as they are. Records serve the
    API (`enumerate_reduced`)."""
    if args.format == "csv":
        rows = _enumerate_rows(args.n, lambda cells: "," + ",".join(cells))
        lines = [",".join(_CSV_COLUMNS)] + [label + tail for label, tail in rows]
        _write("\n".join(lines) + "\n", args.out)
    else:
        rows = _enumerate_rows(args.n, _json_tail)
        items = [f'  {{\n    "support": "{label}"{tail}' for label, tail in rows]
        _write("[\n" + ",\n".join(items) + "\n]\n", args.out)


def _cmd_tables(args) -> None:
    report = reproduce_tables(args.n)
    _emit(report.to_json_dict(), args.out)


def _cmd_simulate(args) -> None:
    f = load_function(args.function)
    w = load_witness(args.witness)
    report = success_probabilities(f, w)
    _emit(report.to_json_dict(), args.out)


def _parent(*names, **options) -> argparse.ArgumentParser:
    """A help-less parser holding one argument, for subcommands to share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `exact1q` parser, built once per process: building it costs some
    thirty times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="exact1q",
        description="Single-query decidability toolkit for promise Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = _parent("--out")
    function = _parent("function", help="function JSON file")
    arity = _parent("--n", type=int, required=True)

    def command(name, fn, text, *parents):
        p = sub.add_parser(name, help=text, parents=[*parents, out])
        p.set_defaults(fn=fn)
        return p

    command("decide", _cmd_decide, "decide a function; emit witness or certificate", function)
    command("reduce", _cmd_reduce, "emit the canonical reduced form", function)
    command("represent", _cmd_represent, "degree-1 coefficients of the reduced form", function)
    command("polyfn", _cmd_polyfn, "input classes a degree-1 polynomial defines").add_argument(
        "--coeffs", required=True, help="comma-separated rationals, e.g. 1/2,1/2"
    )
    p = command("construct", _cmd_construct, "function computed by a grouped weight profile")
    p.add_argument("--k", required=True, help="group boundaries, e.g. 0,2,6")
    p.add_argument("--a", required=True, help="group weights, e.g. 1/6,1/12")
    command("dj", _cmd_dj, "single-level family reachable by equal superposition", arity)
    command("enumerate", _cmd_enumerate, "classify every reduced support at arity n", arity).add_argument(
        "--format", choices=("csv", "json"), default="csv"
    )
    command("tables", _cmd_tables, "re-derive the bundled 3/4-bit catalog", arity)
    command("simulate", _cmd_simulate, "state-vector run of a witness on a function", function).add_argument(
        "--witness", required=True, help="witness JSON file"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except InternalError as err:
        print(f"exact1q: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exact1qError as err:
        print(f"exact1q: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as err:
        print(f"exact1q: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
