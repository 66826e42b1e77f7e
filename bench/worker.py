"""One fresh interpreter per workload run: serve CLI requests in a closed loop.

Spawned by run.py with the checkout's src/ on PYTHONPATH:

    python3 bench/worker.py probe
    python3 bench/worker.py serve WORKLOAD SEED SECONDS TRACE WORKDIR [--record-digests]

Both modes import specrep.cli, build the parser and print "ready"; that
is the set-up every CLI invocation pays.  `serve` then runs the workload and
prints one JSON summary as its last line.
"""

from __future__ import annotations

import sys


def _ready():
    from specrep import cli

    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return cli


if __name__ == "__main__":
    CLI = _ready()

import contextlib  # noqa: E402  (the harness imports come after the set-up is timed)
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = [m["name"] for m in json.load(_fh)["per_layer"]]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100  # so the 90th percentile has at least ten samples beyond it
TRACE_ROUNDS = 1  # rounds in the traced pass; fixed, so its counts are exact
DIGEST_SEED = 0
DIGEST_ROUNDS = 3
HARD_STOP_S = 120  # past --seconds, a run stops here even short of MIN_REQUESTS, to end within 180 s


def find_caches() -> list[tuple[str, object]]:
    """Every functools cache on a specrep module attribute, found generically."""
    found: dict[int, tuple[str, object]] = {}
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "specrep" or modname.startswith("specrep.")):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None)):
                found.setdefault(id(obj), (f"{modname}.{attr}", obj))
    return sorted(found.values(), key=lambda item: item[0])


class Server:
    """Runs requests through cli.main in-process, one at a time."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.caches = find_caches()

    def materialize(self, req: workloads.Request) -> list[str]:
        text = req.text()
        path = os.path.join(self.workdir, f"r{req.rid:05d}.json")
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return [path if a == "{path}" else a for a in req.argv]

    def reset(self) -> None:
        """Give the next request the caches a fresh process would see."""
        for _, cache in self.caches:
            cache.cache_clear()
        gc.collect()

    def cache_use(self) -> dict[str, list[int]]:
        """[hits, misses] of every cache the last request used, read before the next clear."""
        out = {}
        for name, cache in self.caches:
            info = cache.cache_info()
            if info.hits or info.misses:
                out[name] = [info.hits, info.misses]
        return out

    def serve(self, argv: list[str]) -> tuple[int, str, str, float]:
        self.reset()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed request, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        return code, out.getvalue(), err.getvalue(), t1 - t0


def _digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]


def _digest_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "digests", f"{workload}.json")


def load_digests(workload: str, seed: int) -> list[str]:
    if seed != DIGEST_SEED:
        return []
    try:
        with open(_digest_path(workload), encoding="utf-8") as fh:
            return json.load(fh)["stdout_sha256"]
    except FileNotFoundError:
        return []


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _record(req: workloads.Request, argv: list[str], code: int, out: str, err: str, dt: float,
            digests: list[str], caches: dict) -> dict:
    """One request's result, verified, as written to requests.jsonl."""
    problems = checks.verify(req, code, out, err)
    digest = _digest(out)
    if req.rid < len(digests) and digests[req.rid] != digest:
        problems.append("stdout bytes differ from the recorded digest")
    return {"rid": req.rid, "cls": req.cls, "argv": argv, "props": req.props, "code": code,
            "ms": dt * 1000.0, "digest": digest, "caches": caches, "problems": problems}


def run_untraced(server: Server, workload: str, seed: int, seconds: float, rounds: int | None = None) -> dict:
    """The closed loop: whole rounds until `seconds` have passed and MIN_REQUESTS ran.

    With `rounds` set, runs exactly that many rounds instead, without
    comparing digests, to record them.  Instance files of a round are
    written before it starts and outputs are verified after each request;
    neither is timed.
    """
    digests = load_digests(workload, seed) if rounds is None else []
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if r == rounds:
                break
        elif r and elapsed >= seconds and (len(records) >= MIN_REQUESTS or elapsed >= HARD_STOP_S):
            break
        reqs = workloads.round_requests(workload, seed, r, len(records))
        argvs = [server.materialize(req) for req in reqs]
        for req, argv in zip(reqs, argvs):
            code, out, err, dt = server.serve(argv)
            records.append(_record(req, argv, code, out, err, dt, digests, server.cache_use()))
        r += 1
    return {"records": records, "rounds": r}


def e2e_metrics(records: list[dict]) -> dict:
    lat = [rec["ms"] for rec in records]
    failed = sum(bool(rec["problems"]) for rec in records)
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 90),
        "throughput_rps": len(lat) / (sum(lat) / 1000.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / len(records),
    }


def _structure_problems(reqs: list[workloads.Request], agg: dict) -> dict[int, list[str]]:
    """The known call structure, checked per request on the traced counts."""
    out: dict[int, list[str]] = {}
    for req in reqs:
        calls = agg["per_request"].get(req.rid, {})
        counts = agg["request_counters"].get(req.rid, {})
        want = {}
        command = req.argv[0]
        if command == "analyze":
            want["engine.intersection_table"] = 3
        elif command == "check-theorems" and req.kind == "zmod":
            want["topology.spectral_subbasis"] = 3
            want["rings.build_irr_space"] = 3
        elif command == "check-theorems" and req.kind == "tables":
            want["rings.is_arithmetical"] = 6
        elif command == "zr-check":
            k = req.props["k"]
            if counts.get("zrdesk.pool_uniqueness_check.checks", 0) != 3 ** k - 2 ** k:
                out.setdefault(req.rid, []).append("pool sweep did not make 3^k - 2^k checks")
        for name, n in want.items():
            if calls.get(name, 0) != n:
                out.setdefault(req.rid, []).append(f"{name} ran {calls.get(name, 0)} times, expected {n}")
    return out


def layer_metrics(names: list[str], agg: dict, extra: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the aggregated trace.

    `<function>.calls` and `<function>.ms` come from the spans, `<layer>.self_ms`
    from the self times, the remaining counts from the tracer's counters.
    """
    counters = agg["counters"]
    scanned = counters.get("engine.upset_masks.scanned", 0)
    derived = {f"{layer}.self_ms": value for layer, value in agg["self_ms"].items()}
    derived["engine.upset_masks.yield"] = counters.get("engine.upset_masks.returned", 0) / scanned if scanned else 0.0
    derived["trace.spans"] = agg["spans"]
    derived.update(extra)
    out = {}
    for name in names:
        function, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat == "calls":
            out[name] = agg["calls"].get(function, 0)
        elif stat == "ms":
            out[name] = agg["ms"].get(function, 0.0)
        else:
            out[name] = counters.get(name, 0)
    return out


def run_traced(server: Server, workload: str, seed: int) -> dict:
    """The fixed requests of the first rounds, each served untraced and then traced.

    Interleaving the two passes request by request lets both see the same
    process state, so their difference is the tracing overhead.
    """
    digests = load_digests(workload, seed)
    tracer = spans.Tracer()
    records, requests = [], []
    for r in range(TRACE_ROUNDS):
        reqs = workloads.round_requests(workload, seed, r, len(records))
        argvs = [server.materialize(req) for req in reqs]
        requests += reqs
        for req, argv in zip(reqs, argvs):
            code, out, err, dt = server.serve(argv)
            caches = server.cache_use()
            tracer.request = req.rid
            tracer.install()
            try:
                traced = server.serve(argv)
            finally:
                tracer.remove()
            rec = _record(req, argv, code, out, err, dt, digests, caches)
            rec["traced_ms"] = traced[3] * 1000.0
            if traced[:2] != (code, out):
                rec["problems"].append("traced stdout differs from the untraced run")
            records.append(rec)
    agg = tracer.aggregate()
    structure = _structure_problems(requests, agg)
    for rec in records:
        rec["problems"] += structure.get(rec["rid"], [])
    extra = {"trace.overhead_ms": sum(rec["traced_ms"] - rec["ms"] for rec in records)}
    layers = layer_metrics(PER_LAYER, agg, extra)
    return {"records": records, "rounds": TRACE_ROUNDS, "layers": layers, "tracer": tracer, "agg": agg}


def _write_records(workdir: str, records: list[dict]) -> None:
    with open(os.path.join(workdir, "requests.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def serve_main(cli, argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir = argv[0], int(argv[1]), float(argv[2]), int(argv[3]), argv[4]
    record = "--record-digests" in argv
    os.makedirs(workdir, exist_ok=True)
    server = Server(cli, workdir)
    if trace:
        run = run_traced(server, workload, seed)
        metrics = run["layers"]
        run["tracer"].write(os.path.join(workdir, "spans.tsv.gz"))
        layer_report = {k: v for k, v in run["agg"].items() if k not in ("per_request", "request_counters")}
        with open(os.path.join(workdir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(layer_report, fh, indent=1, sort_keys=True)
    else:
        run = run_untraced(server, workload, seed, seconds, rounds=DIGEST_ROUNDS if record else None)
        metrics = e2e_metrics(run["records"])
    records = run["records"]
    _write_records(workdir, records)
    if record:
        with open(_digest_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "stdout_sha256": [rec["digest"] for rec in records]}, fh, indent=0)
            fh.write("\n")
    summary = {
        "workload": workload,
        "attempted": len(records),
        "failed": sum(bool(rec["problems"]) for rec in records),
        "rounds": run["rounds"],
        "problems": [f"request {rec['rid']} ({rec['cls']}): {p}" for rec in records for p in rec["problems"]][:20],
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"]:
        sys.exit(0)
    sys.exit(serve_main(CLI, sys.argv[2:]))
