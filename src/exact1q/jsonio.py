"""JSON wire formats: functions, rationals, weight vectors.

Rationals travel as exact "p/q" (or integer "p") strings, which is what
`str` makes of a `Fraction`; decimals are rejected everywhere so no
precision is ever lost in transit.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .core import PartialBooleanFn, check_arity, mask_to_string, string_to_mask
from .errors import SchemaError
from .feasibility import FeasibilityResult, WeightVector

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    literal = text.strip() if isinstance(text, str) else ""
    if not _RATIONAL_RE.match(literal):
        raise SchemaError(f"bad rational literal {text!r}: expected 'p' or 'p/q'")
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise SchemaError(f"bad rational literal {text!r}: zero denominator") from None
    except ValueError as err:  # more digits than int() converts
        raise SchemaError(f"bad rational literal: {err}") from None


def _parse_mask_list(items: Any, n: int, field: str) -> list[int]:
    if not isinstance(items, list) or any(not isinstance(s, str) for s in items):
        raise SchemaError(f"{field!r} must be a list of bitstrings")
    seen = set()
    masks = []
    for s in items:
        if s in seen:
            raise SchemaError(f"duplicate bitstring {s!r} in {field!r}")
        seen.add(s)
        masks.append(string_to_mask(s, n))
    return masks


def function_from_dict(data: Any) -> PartialBooleanFn:
    if not isinstance(data, dict):
        raise SchemaError("function JSON must be an object")
    missing = {"n", "ones", "zeros"} - set(data)
    if missing:
        raise SchemaError(f"function JSON missing fields: {sorted(missing)}")
    n = check_arity(data["n"])
    ones = _parse_mask_list(data["ones"], n, "ones")
    zeros = _parse_mask_list(data["zeros"], n, "zeros")
    return PartialBooleanFn(n, ones=ones, zeros=zeros)


def function_to_dict(f: PartialBooleanFn) -> dict:
    return {
        "n": f.n,
        "ones": [mask_to_string(m, f.n) for m in f.ones],
        "zeros": [mask_to_string(m, f.n) for m in f.zeros],
    }


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as err:  # bad JSON, bytes not UTF-8, or an int past int()'s digit limit
            raise SchemaError(f"{path}: invalid JSON ({err})") from err


def load_function(path: str) -> PartialBooleanFn:
    return function_from_dict(_load_json(path))


def witness_from_dict(data: Any) -> WeightVector:
    if not isinstance(data, dict) or "z" not in data:
        raise SchemaError("witness JSON must be an object with a 'z' array")
    if not isinstance(data["z"], list):
        raise SchemaError("'z' must be a list of rational strings")
    z = tuple(parse_rational(v) for v in data["z"])
    w = WeightVector(z)
    if "z0" in data and parse_rational(data["z0"]) != w.z0:
        raise SchemaError("'z0' does not equal 1 - sum(z)")
    return w


def witness_to_dict(w: WeightVector) -> dict:
    return {"z0": str(w.z0), "z": [str(v) for v in w.z]}


def load_witness(path: str) -> WeightVector:
    return witness_from_dict(_load_json(path))


def result_to_dict(result: FeasibilityResult) -> dict:
    out: dict = {"feasible": result.feasible}
    if result.feasible:
        out["witness"] = witness_to_dict(result.witness)
    else:
        out["certificate"] = [str(m) for m in result.certificate.multipliers]
    return out
