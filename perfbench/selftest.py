#!/usr/bin/env python3
"""Fast self-test of the benchmark (about ten seconds).

    python3 perfbench/selftest.py

Runs the harness on small stand-ins (enumeration at n=3, a handful of
decide requests) with tracing off and on, and checks that the metrics
emitted are exactly those `BENCHMARK.json` names, and that corrupted
outputs (a flipped feasible flag, a dropped record, a wrong decide
answer) are counted as failed operations. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
from workloads import DecideSpec, EnumSpec, check_decide, check_enumeration, decide_requests, function_json

SMALL = {
    "enum3": EnumSpec(n=3, fmt="csv"),
    "decide_small": DecideSpec(batch=6, min_passes=1, d_lo=4, d_hi=12),
}


def _expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def check_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"] for m in bench[key]}
        for name, spec in SMALL.items():
            _, result = run.run(name, spec, seed=7, seconds=0, trace=trace)
            got = set(result["metrics"])
            _expect(got == wanted, f"{name} trace={int(trace)} emits every {key} metric, and no other")
            _expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)} is correct")
            if trace:
                _expect(result["metrics"]["fail_ratio"]["value"] == 0, f"{name} fail_ratio is 0")


def check_enum_corruption(workdir: str) -> None:
    from exact1q.cli import main as cli_main

    ref = run.load_reference()["enum3"]
    out = os.path.join(workdir, "enum3.csv")
    _expect(cli_main(["enumerate", "--n", "3", "--format", "csv", "--out", out]) == 0, "enumerate --n 3 runs")
    with open(out, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    clean = check_enumeration("".join(lines), 3, "csv", ref)
    _expect(clean["attempted"] == 127 and clean["failed"] == 0, "clean n=3 output: 127 records, none failed")

    row = next(i for i, line in enumerate(lines) if line.split(",")[1] == "true")
    fields = lines[row].split(",")
    fields[1] = "false"
    flipped = lines[:row] + [",".join(fields)] + lines[row + 1 :]
    bad = check_enumeration("".join(flipped), 3, "csv", ref)
    _expect(bad["failed"] == 1 and bad["attempted"] == 127, "a flipped feasible flag is one failed record")

    dropped = check_enumeration("".join(lines[:-1]), 3, "csv", ref)
    _expect(dropped["failed"] == 1, "a missing record is one failed record")


def check_decide_corruption(workdir: str) -> None:
    import exact1q.cli as cli
    from child import run_request

    fn = next(f for f in decide_requests(SMALL["decide_small"], 3, 0) if f["built_feasible"])
    stem = os.path.join(workdir, "f")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        handle.write(function_json(fn))
    codes = run_request(cli.main, {"kind": "decide", "function": stem + ".json", "stem": stem})
    _expect(check_decide(fn, stem, codes)[0], "a clean decide request passes its checks")

    with open(stem + ".decide.json", encoding="utf-8") as handle:
        answer = json.load(handle)
    answer["witness"]["z"][0] = "1/3" if answer["witness"]["z"][0] != "1/3" else "1/5"
    with open(stem + ".decide.json", "w", encoding="utf-8") as handle:
        json.dump(answer, handle)
    _expect(not check_decide(fn, stem, codes)[0], "a wrong witness is a failed request")
    _expect(not check_decide(fn, stem, [0, 0, 4])[0], "a simulate crash is a failed request")


def main() -> int:
    start = time.monotonic()
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_enum_corruption(workdir)
        check_decide_corruption(workdir)
        check_metric_names()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest passed in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
