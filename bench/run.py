"""specrep benchmark: closed-loop CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload all                  # every metric of every workload
    python3 bench/run.py --workload setsys-query --seed 3 --seconds 55 --trace 0
    python3 bench/run.py --workload ring-zr --trace 1    # traced pass: per-layer metrics

Each workload runs in its own fresh worker interpreter (bench/worker.py),
one at a time.  With --trace 0 the run measures set-up time over several
fresh interpreters and then the untraced closed loop, and reports the
end-to-end metrics; with --trace 1 it runs the traced pass and reports the
per-layer metrics.  Every metric is printed as one line (workload, name,
value, unit); the last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 10  # fresh interpreters timed per run; the median is reported
WORKER_TIMEOUT = 170

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["error_rate"] = "ratio"


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """The environment of a CLI user: the checkout's sources and the default caps."""
    env = dict(os.environ)
    env.pop("SPECREP_CAP_POINTS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def launch(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it can serve; returns it with the seconds that took."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed to start (is src/specrep present?): {line.strip()!r}")
    return proc, ready


def setup_samples() -> list[float]:
    """Set-up times of fresh interpreters; one unrecorded launch warms the bytecode cache."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc, ready = launch(["probe"])
        if proc.wait(timeout=WORKER_TIMEOUT) != 0:
            raise BenchError("set-up probe failed")
        if i:
            samples.append(ready)
    return samples


def run_workload(workload: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    workdir = os.path.join(WORKDIR, f"{workload}-seed{seed}-trace{trace}")
    if os.path.isdir(workdir):
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
    samples = [] if trace else setup_samples()
    args = ["serve", workload, str(seed), str(seconds), str(trace), workdir]
    proc, ready = launch(args + (["--record-digests"] if record else []))
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    if not trace:
        summary["metrics"]["setup_s"] = statistics.median(samples + [ready])
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite bench/digests/ from the first rounds of the given seed")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if not args.trace:
        wanted.append("error_rate")  # printed only: it is 0 on a healthy commit, so BENCHMARK.json omits it

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            summary = run_workload(workload, args.seed, args.seconds, args.trace, args.record_digests)
            result["attempted"] += summary["attempted"]
            result["failed"] += summary["failed"]
            for problem in summary["problems"]:
                print(f"{workload}: FAILED {problem}")
            prefix = "" if len(names) == 1 else f"{workload}."
            for name in wanted:
                value = summary["metrics"][name]
                print(f"{workload:15s} {name:45s} {value:16.4f} {UNITS[name]}")
                if name != "error_rate":
                    result["metrics"][prefix + name] = {"value": value, "unit": UNITS[name]}
            print(f"{workload:15s} {'requests':45s} {summary['attempted']:16d} count "
                  f"({summary['rounds']} rounds, seed {args.seed})")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
