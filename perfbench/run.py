#!/usr/bin/env python3
"""Benchmark of exact1q, run from the root of a source checkout.

    python3 perfbench/run.py --workload enum4 --seed 1 --seconds 10 --trace 0

Workloads (all one process, one worker, a closed loop with one client):

* enum4        `exact1q enumerate --n 4 --format csv`: 32,767 tiny LPs plus
               8,780 bit-pinning probes; the solver is ~97% of the time.
* vertex5      `exact1q enumerate --n 5 --format json`: witness-first mode,
               mostly square integer solves in classify; few LPs.
* decide_large a seeded stream of generated function files at n=10..13;
               each request runs `decide`, and on a feasible answer
               `represent` and `simulate`: a few large unreduced LPs.

Every pass runs in a fresh interpreter (`child.py`), so caches start cold.
Passes repeat until `--seconds` of measured work is done (at least one
pass, and at least 200 requests for decide_large). Times are measured and
reported at the reference speed (`speed.py`), which takes the shared
machine's speed phases out of them; raw times are on the metadata line.
With `--trace 1` the run instead makes one untraced and one traced pass on
the same inputs and reports per-layer numbers from the traced one
(`spans.py`).

Every output is checked; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it holds
run metadata. Exits 1 without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import layer_metrics
from workloads import (
    DecideSpec,
    EnumSpec,
    check_decide,
    check_enumeration,
    decide_requests,
    function_json,
    load_reference,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = {
    "enum4": EnumSpec(n=4, fmt="csv"),
    "vertex5": EnumSpec(n=5, fmt="json"),
    "decide_large": DecideSpec(),
}

#: Whole-run limit; every process is given what is left of it.
RUN_LIMIT_S = 170.0
#: Fresh-interpreter imports timed before the first pass and after the last.
SETUP_SAMPLES = 4


class BenchError(Exception):
    """The program could not be run or measured; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the workloads are defined at one worker
    env.pop("EXACT1Q_WORKERS", None)
    # an installed package has its bytecode compiled; so does the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(argv: list[str], deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=left, env=_env(), cwd=ROOT
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError("a process did not finish within the run time limit") from err
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def time_imports(count: int, deadline: float) -> list[tuple[float, float]]:
    """(raw, reference-speed) times of `import exact1q`, each in a fresh
    interpreter."""
    code = (
        "import time; t = time.perf_counter(); import exact1q; t = time.perf_counter() - t; "
        f"import sys; sys.path.insert(0, {HERE!r}); import speed; print(t, speed.at_reference_speed(t))"
    )
    out = []
    for _ in range(count):
        raw, scaled = _run([sys.executable, "-c", code], deadline).split()
        out.append((float(raw), float(scaled)))
    return out


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _enum_requests(spec: EnumSpec, passdir: str):
    out = os.path.join(passdir, f"enum.{spec.fmt}")
    argv = ["enumerate", "--n", str(spec.n), "--format", spec.fmt, "--out", out]
    return [{"kind": "enumerate", "argv": argv, "out": out}]


def _check_enum(spec: EnumSpec, reqs: list[dict], ref: dict) -> dict:
    """Check the pass's records against `ref`, the workload's reference entry."""
    out = reqs[0]["out"]
    try:
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        text = ""
    check = check_enumeration(text, spec.n, spec.fmt, ref)
    check["out_bytes"] = _size(out)
    return check


def _decide_requests(spec: DecideSpec, seed: int, index: int, passdir: str):
    reqs = []
    for i, fn in enumerate(decide_requests(spec, seed, index)):
        stem = os.path.join(passdir, f"f{i:03d}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            handle.write(function_json(fn))
        reqs.append({"kind": "decide", "function": stem + ".json", "stem": stem, "fn": fn})
    return reqs


def _check_decide(reqs: list[dict], summary: dict) -> dict:
    failed, blobs = 0, []
    for req, codes in zip(reqs, summary["codes"]):
        ok, blob = check_decide(req["fn"], req["stem"], codes)
        failed += not ok
        blobs.append(blob)
    return {
        "attempted": len(reqs),
        "failed": failed,
        "counts": {"records": 0, "feasible": 0, "maximal": 0},
        "sha256": hashlib.sha256(b"".join(blobs)).hexdigest(),
        "out_bytes": sum(len(b) for b in blobs),
    }


def run_pass(name: str, spec, seed: int, index: int, traced: bool, deadline: float, ref: dict) -> dict:
    """One pass in a fresh interpreter, then its outputs checked."""
    passdir = os.path.join(WORK, f"{name}-{os.getpid()}-{index}{'-traced' if traced else ''}")
    os.makedirs(passdir, exist_ok=True)
    try:
        if isinstance(spec, EnumSpec):
            reqs = _enum_requests(spec, passdir)
        else:
            reqs = _decide_requests(spec, seed, index, passdir)
        spans_path = os.path.join(WORK, f"spans-{name}.json")
        job = {
            "src": SRC,
            "trace": traced,
            "spans": spans_path,
            "requests": [{k: v for k, v in r.items() if k != "fn"} for r in reqs],
        }
        job_path = os.path.join(passdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        lines = _run([sys.executable, os.path.join(HERE, "child.py"), job_path], deadline).splitlines()
        if not lines:
            raise BenchError("a pass printed no summary")
        summary = json.loads(lines[-1])
        if isinstance(spec, EnumSpec):
            summary["check"] = _check_enum(spec, reqs, ref[name])
        else:
            summary["check"] = _check_decide(reqs, summary)
        if traced:
            with open(spans_path, encoding="utf-8") as handle:
                summary["trace"] = json.load(handle)
        return summary
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics, each weighted by the mass a
    Beta((n+1)p, (n+1)(1-p)) density puts on its rank interval. A single
    order statistic jumps whenever the rank falls between two |D| classes
    of the decide_large grid; this mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8  # Simpson's rule on each rank interval
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, steps))
        weights.append(ends + inner)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "exact1q")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as handle:
                digest.update(fname.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def run(name: str, spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (run metadata, result object)."""
    if not os.path.isfile(os.path.join(SRC, "exact1q", "__init__.py")):
        raise BenchError(f"no exact1q package under {SRC}")
    sys.path.insert(0, SRC)
    import exact1q  # noqa: F401  (the checks use it; fail here if it is broken)
    import numpy

    ref = load_reference()
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    load_before = os.getloadavg()
    passes, setup = [], []
    if trace:
        passes = [run_pass(name, spec, seed, 0, traced, deadline, ref) for traced in (False, True)]
    else:
        # the first import compiles the bytecode and is not counted
        setup = time_imports(SETUP_SAMPLES + 1, deadline)[1:]
        measured = 0.0
        while len(passes) < spec.min_passes or measured < seconds:
            passes.append(run_pass(name, spec, seed, len(passes), False, deadline, ref))
            measured += passes[-1]["wall"]
        # samples on both sides of the passes straddle more of the machine's drift
        setup += time_imports(SETUP_SAMPLES, deadline)
    attempted = sum(p["check"]["attempted"] for p in passes)
    failed = sum(p["check"]["failed"] for p in passes)
    latencies = [x for p in passes for x in p["latencies"]]
    if trace:
        plain, traced = passes
        metrics = layer_metrics(traced["trace"], traced["elapsed"])
        counts = traced["check"]["counts"]
        metrics.update({f"classify.{k}": v for k, v in counts.items()})
        metrics["cli.out_bytes"] = traced["check"]["out_bytes"]
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "req_p50_ms": 1000 * hd_quantile(latencies, 0.50),
            "req_p95_ms": 1000 * hd_quantile(latencies, 0.95),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }

    ref_digest = ref.get(name, {}).get("sha256")
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "requests": len(latencies),
        "setup_raw_s": statistics.median(raw for raw, _ in setup) if setup else None,
        "setup_samples": len(setup),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall"] for p in passes],
        "pass_raw_cpu_s": [p["raw_cpu"] for p in passes],
        "pass_steal_s": [p["steal"] for p in passes],
        "pass_probe_median_s": [p["probe_median"] for p in passes],
        "fail_ratio": failed / attempted,
        "digests": [p["check"]["sha256"] for p in passes],
        "digest_matches_seed": None if ref_digest is None
        else all(p["check"]["sha256"] == ref_digest for p in passes),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
