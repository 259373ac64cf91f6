"""One timed pass of a workload, in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the source tree to import exact1q from, the requests to
send through `exact1q.cli.main`, and whether to trace. A fresh process per
pass means the import chain and the solver's process-wide cache start
cold, as they do for a command-line user. The last line of stdout is a
JSON summary; the commands' outputs stay in the job's directory for the
parent to check.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback

from speed import SpeedClock


class Clock:
    """Calls `exact1q.cli.main`, timing only what is spent in it.

    The benchmark's reading of one command's answer and writing of the
    next command's input are not timed. Times are kept raw and at the
    reference speed (`speed.SpeedClock`).
    """

    def __init__(self, main, speed):
        self._main = main
        self.speed = speed

    def __call__(self, argv: list[str]) -> int:
        self.speed.start()
        try:
            return self._main(argv)
        finally:
            self.speed.stop()


def run_request(main, req: dict) -> list[int]:
    """Exit codes of the request's commands; -1 for an uncaught exception."""
    try:
        return _commands(main, req)
    except Exception:  # a crash is a failed request, not a failed benchmark
        traceback.print_exc()
        return [-1]


def _commands(main, req: dict) -> list[int]:
    if req["kind"] == "enumerate":
        return [main(req["argv"])]
    fn, stem = req["function"], req["stem"]
    codes = [main(["decide", fn, "--out", stem + ".decide.json"])]
    if codes[0] != 0:
        return codes
    with open(stem + ".decide.json", encoding="utf-8") as handle:
        answer = json.load(handle)
    if answer.get("feasible") is True:
        with open(stem + ".witness.json", "w", encoding="utf-8") as handle:
            json.dump(answer["witness"], handle)
        codes.append(main(["represent", fn, "--out", stem + ".represent.json"]))
        codes.append(main(["simulate", fn, "--witness", stem + ".witness.json", "--out", stem + ".simulate.json"]))
    return codes


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    import exact1q.cli as cli

    origin = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if origin != os.path.abspath(job["src"]):
        raise SystemExit(f"exact1q imported from {origin}, not {job['src']}")
    feasibility = sys.modules["exact1q.feasibility"]

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    speed = SpeedClock()
    clock = Clock(cli.main, speed)
    latencies, codes = [], []
    speed.install()
    try:
        for i, req in enumerate(job["requests"]):
            before = speed.norm_wall
            if tracer is None:
                codes.append(run_request(clock, req))
            else:
                tracer.request = i
                sid = tracer.open("bench.request")
                try:
                    codes.append(run_request(clock, req))
                finally:
                    tracer.close(sid)
            latencies.append(speed.norm_wall - before)
    finally:
        speed.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        cached = getattr(feasibility, "_decide_cached", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        cache = {"hits": info.hits, "misses": info.misses} if info else None
        tracer.dump(job["spans"], {"cache": cache, "wall": speed.elapsed})
    probes = sorted(speed.probes)
    print(
        json.dumps(
            {
                "wall": speed.norm_wall,
                "cpu": speed.norm_cpu,
                "raw_wall": speed.wall,
                "raw_cpu": speed.cpu,
                "steal": speed.steal,
                "elapsed": speed.elapsed,
                "probe_median": probes[len(probes) // 2],
                "rss_mb": rss_mb,
                "latencies": latencies,
                "codes": codes,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
