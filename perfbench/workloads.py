"""Workload definitions: the requests each pass sends, and the checks on
what comes back.

Checks never trust the output they check. Enumeration records are
compared with reference sets recorded from the seed commit
(`reference.json`) and every witness is re-verified; `decide` answers are
re-verified, must be feasible where the input was built feasible, and must
agree with `represent` and `simulate`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

HERE = os.path.dirname(os.path.abspath(__file__))

CSV_COLUMNS = (
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

SUCCESS_TOL = 1e-9


#: Arities of the decide_large functions, cycled through the |D| grid.
DECIDE_ARITIES = (10, 11, 12, 13)

#: Weight pairs of the two-group profiles the feasible inputs come from.
_GROUP_WEIGHTS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


@dataclass(frozen=True)
class EnumSpec:
    """One `exact1q enumerate` call per pass; its records are the operations.

    The reference flags are recorded under the workload's name.
    """

    n: int
    fmt: str
    min_passes: ClassVar[int] = 1


@dataclass(frozen=True)
class DecideSpec:
    """A closed loop of decide requests on generated function files.

    Each pass sends `batch` requests: half built feasible, half random.
    Their difference-set sizes |D| follow one log-spaced grid from `d_lo`
    to `d_hi` and the arities cycle through `DECIDE_ARITIES`, so every pass
    and every seed carry the same mix of sizes; the seed picks the
    functions.
    """

    batch: int = 40
    min_passes: int = 5
    d_lo: int = 16
    d_hi: int = 80


# ---------------------------------------------------------------------------
# decide_large inputs
# ---------------------------------------------------------------------------

def _feasible_function(rng: random.Random, n: int, d: int):
    """d of the 1-inputs of a function exact1q's own constructions decide.

    The source is an equal-superposition level (`dj_family`) or a
    two-group weight profile (`construct`); any subset of its 1-inputs is
    decided by the same algorithm.
    """
    from exact1q import PartialBooleanFn, construct, dj_family, profile
    from exact1q.errors import EmptySupportError

    while True:
        if rng.random() < 0.5:
            source = rng.choice(dj_family(n))
        else:
            k = rng.randint(1, n - 1)
            a, b = rng.choice(_GROUP_WEIGHTS)
            total = a * k + b * (n - k)
            # target weight T with total/2 <= T <= total, so the profile's
            # weights a/(2T), b/(2T) sum to a value in [1/2, 1]
            target = (total + 1) // 2 + rng.randint(0, 1)
            try:
                source = construct(profile([0, k, n], [Fraction(a, 2 * target), Fraction(b, 2 * target)]))
            except EmptySupportError:
                continue
        if len(source.ones) >= d:
            return PartialBooleanFn(n, ones=rng.sample(source.ones, d), zeros=source.zeros)


def _random_function(rng: random.Random, n: int, d: int) -> tuple[list[int], list[int]]:
    zeros = rng.sample(range(1 << n), rng.choice((2, 3, 4)))
    ones: list[int] = []
    diffs: set[int] = set()
    taken = set(zeros)
    while len(diffs) < d:
        o = rng.randrange(1 << n)
        if o in taken:
            continue
        taken.add(o)
        ones.append(o)
        diffs.update(o ^ z for z in zeros)
    return zeros, ones


def decide_requests(spec: DecideSpec, seed: int, pass_index: int) -> list[dict]:
    """The pass's functions, as {"n", "zeros", "ones", "built_feasible"}.

    Feasible ones are bit-relabelled and XOR-translated by a nonzero t, so
    the 0-input is t rather than all-zeros.
    """
    from exact1q import permute_bits

    rng = random.Random(f"decide_large:{seed}:{pass_index}")
    half = spec.batch // 2
    grid = [
        round(spec.d_lo * (spec.d_hi / spec.d_lo) ** (j / max(1, half - 1)))
        for j in range(half)
    ]
    out = []
    for j, d in enumerate(grid):
        n = DECIDE_ARITIES[j % len(DECIDE_ARITIES)]
        f = permute_bits(_feasible_function(rng, n, d), rng.sample(range(1, n + 1), n))
        t = rng.randrange(1, 1 << n)
        ones = [m ^ t for m in f.ones]
        out.append({"n": n, "zeros": [t], "ones": ones, "built_feasible": True})
        n = DECIDE_ARITIES[(j + 1) % len(DECIDE_ARITIES)]
        zeros, ones = _random_function(rng, n, d)
        out.append({"n": n, "zeros": zeros, "ones": ones, "built_feasible": False})
    rng.shuffle(out)
    return out


def function_json(fn: dict) -> str:
    n = fn["n"]
    return json.dumps(
        {
            "n": n,
            "ones": [format(m, f"0{n}b") for m in sorted(fn["ones"])],
            "zeros": [format(m, f"0{n}b") for m in sorted(fn["zeros"])],
        }
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def support_key(support: list[int]) -> int:
    key = 0
    for m in support:
        key |= 1 << (m - 1)
    return key


def parse_records(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != CSV_COLUMNS:
            raise ValueError("CSV header does not match the record columns")
        return [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]
    return json.loads(text)


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad flag {text!r}")
    return text == "true"


def check_enumeration(text: str, n: int, fmt: str, ref: dict) -> dict:
    """Each emitted record is an operation; a missing one counts as failed."""
    from exact1q import FeasibilityResult, ReducedFn, WeightVector, verify_result

    records = ref["records"]
    expected = set(range(1, 1 << ((1 << n) - 1))) if records is None else set(records)
    feasible, maximal, non_trivial = (set(ref[k]) for k in ("feasible", "maximal", "non_trivial"))
    try:
        rows = parse_records(text, fmt)
    except ValueError:
        rows = []
    seen: set[int] = set()
    failed = unexpected = 0
    counts = {"records": 0, "feasible": 0, "maximal": 0}
    for row in rows:
        try:
            support = sorted(int(s, 2) for s in row["support"].split(";"))
            key = support_key(support)
            flags = [_bool(row[c]) for c in ("feasible", "maximal", "non_trivial")]
        except (KeyError, ValueError, TypeError, AttributeError):
            failed += 1
            unexpected += 1
            continue
        counts["records"] += 1
        counts["feasible"] += flags[0]
        counts["maximal"] += flags[1]
        if key in seen or key not in expected:
            failed += 1
            unexpected += 1
            continue
        seen.add(key)
        ok = flags == [key in feasible, key in maximal, key in non_trivial]
        if ok and flags[0]:
            try:
                z = tuple(Fraction(v) for v in row["witness"].split(" "))
                result = FeasibilityResult(True, witness=WeightVector(z))
                ok = verify_result(ReducedFn(n, support), result)
            except Exception:  # a witness that does not even parse is a failed record
                ok = False
        failed += not ok
    missing = len(expected - seen)
    return {
        "attempted": len(expected) + unexpected,
        "failed": failed + missing,
        "counts": counts,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_decide(fn: dict, stem: str, codes: list[int]) -> tuple[bool, bytes]:
    """Re-verify one request's answers; returns (ok, output bytes)."""
    from exact1q import (
        FarkasWitness,
        FeasibilityResult,
        PartialBooleanFn,
        WeightVector,
        reduce,
        verify_decision,
        verify_result,
    )

    blob = b""
    for suffix in (".decide.json", ".represent.json", ".simulate.json"):
        if os.path.exists(stem + suffix):
            with open(stem + suffix, "rb") as handle:
                blob += handle.read()
    answer = _load_json(stem + ".decide.json")
    if not codes or codes[0] != 0 or not isinstance(answer, dict):
        return False, blob
    f = PartialBooleanFn(fn["n"], ones=fn["ones"], zeros=fn["zeros"])
    try:
        if answer["feasible"] is True:
            z = tuple(Fraction(v) for v in answer["witness"]["z"])
            result = FeasibilityResult(True, witness=WeightVector(z))
        else:
            mult = tuple(Fraction(v) for v in answer["certificate"])
            result = FeasibilityResult(False, certificate=FarkasWitness(mult))
        if not verify_decision(f, result):
            return False, blob
        if not result.feasible:
            return not fn["built_feasible"], blob
        if codes[1:] != [0, 0]:
            return False, blob
        # reduction law: the reduced form is feasible too, and represent's
        # coefficients are twice a witness of it
        coeffs = _load_json(stem + ".represent.json")["coefficients"]
        g = reduce(f)
        half = tuple(Fraction(c) / 2 for c in coeffs)
        if not verify_result(g, FeasibilityResult(True, witness=WeightVector(half))):
            return False, blob
        report = _load_json(stem + ".simulate.json")
        return report["min_success"] >= 1 - SUCCESS_TOL, blob
    except Exception:  # any malformed or inconsistent answer is a failed request
        return False, blob
