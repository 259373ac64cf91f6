#!/usr/bin/env python3
"""Record the benchmark's end-to-end numbers at this checkout's head.

    python3 bench/record.py

Runs `perfbench/run.py --trace 0 --seed 1 --seconds <run_seconds>` K = 3
times for each workload of `BENCHMARK.json`, the workloads taking turns so
that the machine's slow phases fall on all of them, and writes
`bench/BENCH_<date>_<sha>.json`. For each workload the file holds the
median and quartiles of every end-to-end metric (at the benchmark's
reference speed), the summed `correct`/`attempted`/`failed`, and each
run's metadata line without its per-pass lists (`digests` keeps its
distinct values). `src_sha256` identifies the code measured. When `src/`,
`perfbench/` or `BENCHMARK.json` differ from the commit, the file is named
`BENCH_<date>_<sha>-src<first 7 hex of src_sha256>.json`, so each
uncommitted version of the code gets its own name. Stops without writing
when a run exits nonzero or has a wrong or failed operation.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
K = 3


def _run(workload: str, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: (metadata line, result line)."""
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"record: {workload} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"record: {workload} run not correct: {result['failed']} failed of {result['attempted']} operations")
    return info, result


def _head() -> tuple[str, bool]:
    """The head commit's short sha, and whether the measured files differ
    from it."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout

    try:
        sha = git("rev-parse", "--short=7", "HEAD").strip()
        dirty = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json").strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit", True
    return sha, bool(dirty)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _brief(info: dict) -> dict:
    """A run's metadata line without the per-pass lists."""
    info = {key: value for key, value in info.items() if not key.startswith("pass_")}
    info["digests"] = list(dict.fromkeys(info["digests"]))
    return info


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in workloads}
    for _ in range(K):
        for name in workloads:
            runs[name].append(_run(name, bench["run_seconds"]))

    src = {info["src_sha256"] for pairs in runs.values() for info, _ in pairs}
    if len(src) != 1:
        raise SystemExit(f"record: the code changed during the runs ({len(src)} src_sha256 values)")
    (src,) = src
    record = {}
    for name, pairs in runs.items():
        results = [result for _, result in pairs]
        record[name] = {
            "runs": len(pairs),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                metric: {"unit": unit, **_summary([r["metrics"][metric]["value"] for r in results])}
                for metric, unit in metrics.items()
            },
            "info": [_brief(info) for info, _ in pairs],
        }
    sha, dirty = _head()
    date = time.strftime("%Y-%m-%d", time.gmtime())
    payload = {
        "date": date,
        "git_sha": sha,
        "dirty": dirty,
        "src_sha256": src,
        "command": ["python3", "perfbench/run.py", "--trace", "0", "--seed", str(SEED),
                    "--seconds", str(bench["run_seconds"])],
        "k": K,
        "workloads": record,
    }
    name = f"{sha}-src{src[:7]}" if dirty else sha
    path = os.path.join(HERE, f"BENCH_{date}_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
