"""Tests of the benchmark itself: generators, output checks and the tracer.

Run from the repository root with `python3 -m pytest -q bench/tests`.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from specrep import cli  # noqa: E402


def _cheap(workload: str, seed: int = 0) -> list[workloads.Request]:
    """Requests of round 0 that run in milliseconds."""
    keep = {
        "setsys-query": lambda r: r.props["n"] <= 13 and "--oracle" not in r.argv,
        "ring-zr": lambda r: r.cls in ("decompose-zmod-fast", "analyze-tables", "analyze-zr", "critical-zr")
        or (r.kind == "zmod" and r.props["size"] < 20_000 and r.argv[0] != "check-theorems")
        or (r.cls == "zr-check" and r.props["k"] <= 7),
    }[workload]
    return [r for r in workloads.round_requests(workload, seed, 0, 0) if keep(r)]


@pytest.fixture
def server(tmp_path):
    return worker.Server(cli, str(tmp_path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    def snapshot(seed, round_index):
        reqs = workloads.round_requests(workload, seed, round_index, 0)
        return [(r.cls, r.argv, r.text(), r.props) for r in reqs]

    assert snapshot(11, 2) == snapshot(11, 2)
    assert snapshot(11, 2) != snapshot(12, 2)
    assert snapshot(11, 2) != snapshot(11, 3)
    texts = [r.text() or " ".join(r.argv) for i in range(5) for r in workloads.round_requests(workload, 11, i, 0)]
    assert len(set(texts)) == len(texts), "every request has its own instance"


def test_generated_instances_record_their_properties():
    for req in workloads.round_requests("setsys-query", 3, 0, 0):
        assert req.props["n"] == len(req.instance["points"])
        assert req.props["D"] == len(req.instance["universe"])
        assert 1 <= req.props["upsets"] <= 2 ** req.props["n"]
    for req in workloads.round_requests("ring-zr", 3, 0, 0):
        if req.kind == "zr-pool":
            assert req.props["k"] == len(req.props["pool"])
        elif req.kind == "zr":
            assert req.props["k"] == len(req.instance["zr"]["pool"])
        elif req.kind == "zmod" and req.instance is not None:
            assert req.props["size"] == req.instance["ring"]["zmod"]


def test_count_upsets_matches_brute_force():
    sets = [frozenset(s) for s in ({1}, {1, 2}, {2}, {1, 2, 3}, {3})]
    n = len(sets)
    brute = sum(
        all(not (m >> i & 1) or all(m >> j & 1 for j in range(n) if sets[i] <= sets[j]) for i in range(n))
        for m in range(1 << n)
    )
    assert workloads.count_upsets(sets) == brute


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cheap_requests_pass_verification(workload, server):
    for req in _cheap(workload):
        code, out, err, _ = server.serve(server.materialize(req))
        assert checks.verify(req, code, out, err) == [], req.cls


def _first(workload: str, cls: str) -> workloads.Request:
    return next(r for r in _cheap(workload) if r.cls == cls)


def test_verification_flags_corrupted_outputs(server):
    req = _first("setsys-query", "analyze")
    code, out, err, _ = server.serve(server.materialize(req))
    good = json.loads(out)
    assert checks.verify(req, code, out, err) == []

    bad = json.loads(out)
    bad["minimal_representations"][0] = bad["minimal_representations"][0][1:]
    assert checks.verify(req, code, json.dumps(bad), err)
    bad = dict(good, unique_minimal=not good["unique_minimal"])
    assert checks.verify(req, code, json.dumps(bad), err)
    bad = dict(good, critical=sorted(good["points"]))
    assert checks.verify(req, code, json.dumps(bad), err)
    assert checks.verify(req, 4, out, err)
    assert checks.verify(req, code, out[: len(out) // 2], err)

    req = _first("ring-zr", "decompose-zmod-fast")
    code, out, err, _ = server.serve(server.materialize(req))
    assert checks.verify(req, code, out, err) == []
    bad = json.loads(out)
    bad["components"] = bad["components"][1:] + ["(1)"]
    assert checks.verify(req, code, json.dumps(bad), err)

    req = _first("ring-zr", "zr-check")
    code, out, err, _ = server.serve(server.materialize(req))
    assert checks.verify(req, code, out, err) == []
    bad = json.loads(out)
    bad["checks"] -= 1
    assert checks.verify(req, code, json.dumps(bad), err)

    for req in (r for r in _cheap("ring-zr") if r.cls == "analyze-zr"):
        code, out, err, _ = server.serve(server.materialize(req))
        bad = json.loads(out)
        witnessed = [e["witnesses_rational"] for e in bad["points"].values() if e["witnesses_rational"]]
        if witnessed:
            witnessed[0][next(iter(witnessed[0]))] = "1/4"
            assert checks.verify(req, code, json.dumps(bad), err)
            break
    else:
        pytest.fail("no zr analysis with a rational witness in round 0")


def _module_state() -> dict:
    state = {}
    for modname, mod in sys.modules.items():
        if mod is not None and (modname == "specrep" or modname.startswith("specrep.")):
            for attr, obj in vars(mod).items():
                state[(modname, attr)] = obj
                if isinstance(obj, type):
                    for name, desc in vars(obj).items():
                        state[(modname, attr, name)] = desc
    return state


def test_tracer_restores_every_patched_attribute(server):
    before = _module_state()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {key for key, obj in _module_state().items() if before.get(key) is not obj}
        assert ("specrep.engine", "analysis_core") in patched
        assert ("specrep.zrdesk", "analysis_core") in patched
        assert ("specrep.rings", "represents_mask") in patched
        assert ("specrep.rings", "FiniteRing", "from_tables") in patched
        assert cli.engine.upset_masks.cache_info() is not None
        req = _first("setsys-query", "analyze")
        server.serve(server.materialize(req))
    finally:
        tracer.remove()
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_stdout_are_identical(workload, server):
    tracer = spans.Tracer()
    reqs = _cheap(workload)
    for req in reqs:
        argv = server.materialize(req)
        plain = server.serve(argv)
        tracer.request = req.rid
        tracer.install()
        try:
            traced = server.serve(argv)
        finally:
            tracer.remove()
        assert traced[:3] == plain[:3], req.cls
    agg = tracer.aggregate()
    assert worker._structure_problems(reqs, agg) == {}
    assert set(agg["self_ms"]) == set(spans.LAYERS)
    roots = {tracer.names[tracer.span_name[i]] for i in range(agg["spans"]) if tracer.span_parent[i] < 0}
    assert roots == {"cli.main"} and agg["calls"]["cli.main"] == len(reqs)


def test_self_times_add_up_to_the_root_spans(server):
    tracer = spans.Tracer()
    req = _first("ring-zr", "critical-zr")
    argv = server.materialize(req)
    tracer.request = 0
    tracer.install()
    try:
        server.serve(argv)
    finally:
        tracer.remove()
    agg = tracer.aggregate()
    assert sum(agg["self_ms"].values()) == pytest.approx(agg["ms"]["cli.main"])
    assert all(v > -1e-6 for v in agg["self_ms"].values())
