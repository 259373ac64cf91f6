#!/usr/bin/env python3
"""Record `reference.json`: the enumeration flags the checks compare with.

    python3 perfbench/record_reference.py

Run it only on a commit whose enumeration output is trusted; the file in
the repository was recorded at the seed commit. For each enumeration it
stores the support keys (bit m-1 set iff mask m is in the support) of the
feasible, maximal and non-trivial records, the record keys when the
enumeration is not exhaustive, and the output's SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from exact1q.cli import main as cli_main  # noqa: E402

from workloads import parse_records, support_key  # noqa: E402

#: name -> (n, format, exhaustive)
ENUMERATIONS = {"enum3": (3, "csv", True), "enum4": (4, "csv", True), "vertex5": (5, "json", False)}


def record(n: int, fmt: str, exhaustive: bool) -> dict:
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = os.path.join(tmp, "out")
        if cli_main(["enumerate", "--n", str(n), "--format", fmt, "--out", out]) != 0:
            raise SystemExit(f"enumerate --n {n} failed")
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
    keys = {flag: [] for flag in ("records", "feasible", "maximal", "non_trivial")}
    for row in parse_records(text, fmt):
        key = support_key([int(s, 2) for s in row["support"].split(";")])
        keys["records"].append(key)
        for flag in ("feasible", "maximal", "non_trivial"):
            if row[flag] == "true":
                keys[flag].append(key)
    if exhaustive:
        keys["records"] = None
    return {"n": n, **keys, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def main() -> None:
    ref = {name: record(*args) for name, args in ENUMERATIONS.items()}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(ref, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
