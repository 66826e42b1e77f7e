"""CLI behavior: schemas, exit codes, determinism, output formats."""

import collections
import json
import math
import pathlib

from specrep import cli, engine, rings, setsystems, theorems, zrdesk

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_analyze_i1(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "i1.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["command"] == "analyze"
    assert payload["minimal_representations"] == [["B1", "B2"]]
    assert payload["points"]["B1"]["witnesses"]["irredundant"] == "c"
    assert payload["points"]["B2"]["witnesses"]["irredundant"] == "b"


def test_analyze_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", str(FIXTURES / "i1.json"))
    code2, out2, _ = run(capsys, "analyze", str(FIXTURES / "i1.json"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_schema_field(tmp_path, capsys):
    path = write(tmp_path, "x.json", {"universe": ["a"], "C": ["a"], "A": [], "points": {"B": ["a"]}})
    code, _, err = run(capsys, "analyze", path)
    assert code == 1
    assert "schema" in err


def test_unknown_field_rejected(tmp_path, capsys):
    path = write(
        tmp_path,
        "x.json",
        {"schema": 1, "universe": ["a", "b"], "C": ["a", "b"], "A": ["a"],
         "points": {"B": ["a"]}, "extra": 1},
    )
    code, _, err = run(capsys, "analyze", path)
    assert code == 1


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n  "universe": [}', encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 2" in err


def test_a_equals_c_exits_one(capsys):
    code, _, err = run(capsys, "analyze", str(FIXTURES / "bad_a_equals_c.json"))
    assert code == 1
    assert "A must be a proper subset of C" in err


def test_non_representation_exits_two(tmp_path, capsys):
    path = write(
        tmp_path,
        "norep.json",
        {"schema": 1, "universe": ["a", "b"], "C": ["a", "b"], "A": ["a"],
         "points": {"B1": ["a", "b"]}},
    )
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "'b'" in err


def test_cap_exceeded_exits_three(capsys):
    code, _, err = run(capsys, "minimal", str(FIXTURES / "i1.json"), "--cap-points", "2")
    assert code == 3
    assert "cap" in err


def test_env_var_sets_default_cap(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_CAP_POINTS, "2")
    code, _, _ = run(capsys, "minimal", str(FIXTURES / "i1.json"))
    assert code == 3


def test_nonpositive_cap_rejected(capsys):
    code, _, err = run(capsys, "minimal", str(FIXTURES / "i1.json"), "--cap-points", "0")
    assert code == 1


def test_check_theorems_pass(capsys):
    code, out, _ = run(capsys, "check-theorems", str(FIXTURES / "i1.json"))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_theorems_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(
        theorems,
        "run_family_suite",
        lambda family, cap=20: [theorems.CheckResult("probe", "fail", "synthetic")],
    )
    code, out, _ = run(capsys, "check-theorems", str(FIXTURES / "i1.json"), "--format", "text")
    assert code == 4
    assert "FAIL probe" in out


def test_decompose_file_and_inline_agree(capsys):
    code1, out1, _ = run(capsys, "decompose", str(FIXTURES / "zmod12.json"))
    code2, out2, _ = run(capsys, "decompose", "--ring", "zmod:12", "--ideal", "6")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["components"] == ["(2)", "(3)"]


def test_decompose_text_line(capsys):
    code, out, _ = run(capsys, "decompose", "--ring", "zmod:12", "--ideal", "6", "--format", "text")
    assert code == 0
    assert out == "(6) = (2) ∩ (3), unique, strongly irredundant\n"


def test_decompose_bad_inline_ring(capsys):
    code, _, err = run(capsys, "decompose", "--ring", "gf:4", "--ideal", "2")
    assert code == 1


def test_zmod_above_the_element_cap_is_verified_only_under_oracle(capsys):
    code, out, _ = run(capsys, "decompose", "--ring", "zmod:5000000", "--ideal", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == ["(8)", "(25)"]
    assert (payload["verified"], payload["unique"], payload["strongly_irredundant"]) == (False, None, None)
    code, text, _ = run(capsys, "decompose", "--ring", "zmod:5000000", "--ideal", "200", "--format", "text")
    assert text == "(200) = (8) ∩ (25)\n"
    code, out, _ = run(capsys, "decompose", "--ring", "zmod:5000000", "--ideal", "200", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert (payload["verified"], payload["unique"], payload["strongly_irredundant"]) == (True, True, True)


def test_verified_decomposition_of_a_huge_modulus_is_the_golden(capsys):
    # 735134400 = 2^6 3^3 5^2 7 11 13 17: 15 irreducibles over (0) on 1344 divisor classes
    argv = ["decompose", "--ring", "zmod:735134400", "--ideal", "0", "--oracle"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / "zmod735134400_decompose_oracle.json").read_text(encoding="utf-8")
    payload = json.loads(out)
    want = sorted(p ** e for p, e in rings.factorize(735134400).items())
    assert [int(c.strip("()")) for c in payload["components"]] == want
    assert payload["verified"] is True


def test_decomposition_past_the_point_cap_is_not_reported_verified(capsys):
    # (1024) lies under the 10 irreducibles (2^k): more than the cap of 5
    # skips the uniqueness search, and --oracle, which forces it, exits 3
    argv = ["decompose", "--ring", "zmod:1024", "--ideal", "0", "--cap-points", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == ["(1024)"]
    assert (payload["verified"], payload["unique"], payload["strongly_irredundant"]) == (False, None, None)
    assert run(capsys, *argv, "--format", "text")[1] == "(1024) = (1024)\n"
    assert run(capsys, *argv, "--oracle")[0] == 3


def test_element_free_analysis_above_the_element_cap(tmp_path, capsys):
    # the family of (d) in zmod(10^6) is the prime powers over d, on divisor
    # classes; its core is the deepest power of each prime, the unique
    # minimal representation
    n, g = 10 ** 6, 3000
    fac = rings.factorize(math.gcd(g, n))
    powers = sorted(f"({p ** k})" for p, e in fac.items() for k in range(1, e + 1))
    deepest = sorted(f"({p ** e})" for p, e in fac.items())
    path = write(tmp_path, "zmod.json", {"schema": 1, "ring": {"zmod": n}, "ideal": g})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["points"]) == powers
    assert sorted(payload["critical_core"]) == deepest
    assert [sorted(z) for z in payload["minimal_representations"]] == [deepest]
    assert payload["unique_minimal"] is True
    code, out, _ = run(capsys, "minimal", path)
    assert code == 0
    assert [sorted(z) for z in json.loads(out)["minimal_representations"]] == [deepest]
    code, out, _ = run(capsys, "critical", path)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["critical_core"]) == deepest
    assert payload["unique_minimal"] is True


def test_zr_check_pool_flag(capsys):
    code, out, _ = run(capsys, "zr-check", "--pool", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == 5 and payload["passed"] is True


def test_check_theorems_pool_sweep_honours_the_point_cap(capsys):
    pool = str(FIXTURES / "zr_pool235.json")
    assert run(capsys, "zr-check", pool, "--cap-points", "2")[0] == 3
    code, out, _ = run(capsys, "check-theorems", pool, "--cap-points", "2")
    assert code == 0
    checks = {entry["name"]: entry for entry in json.loads(out)["checks"]}
    assert checks["pool-uniqueness-sweep"] == {
        "name": "pool-uniqueness-sweep", "status": "skip",
        "detail": "pool of 3 primes exceeds the sweep cap of 2"}


def test_zr_analyze_rational_witnesses(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "zr_pool235.json"))
    assert code == 0
    payload = json.loads(out)
    entry = payload["points"]["Z(2)"]
    assert entry["witnesses_rational"]["irredundant"] == "1/2"


def test_dot_format_and_sidecar(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "analyze", str(FIXTURES / "i1.json"), "--format", "dot", "--dot", str(target)
    )
    assert code == 0
    assert out.startswith("digraph")
    assert target.read_text() == out


def test_dot_format_rejected_for_minimal(capsys, tmp_path):
    sidecar = tmp_path / "m.dot"
    for flags in (("--format", "dot"), ("--dot", str(sidecar))):
        code, out, err = run(capsys, "minimal", str(FIXTURES / "i1.json"), *flags)
        assert (code, out, err) == (1, "", "error: dot output only applies to analyze\n"), flags
    assert not sidecar.exists()


def test_missing_input_is_error(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    assert "instance file" in err


def test_unreadable_input(capsys):
    code, _, err = run(capsys, "analyze", "does_not_exist.json")
    assert code == 1


def test_table_ring_instance(capsys):
    code, out, _ = run(capsys, "check-theorems", str(FIXTURES / "f2xy_tables.json"))
    assert code == 0
    payload = json.loads(out)
    assert any(c["name"] == "decomposition-checks" and c["status"] == "skip" for c in payload["checks"])


def test_analyze_oracle_flag(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "i1.json"), "--oracle")
    assert code == 0


def test_minimal_oracle_catches_a_mutated_search(capsys, monkeypatch):
    for name in ("i1", "two_minimal", "critical_above", "isolated_redundant", "zmod12", "zr_pool235"):
        assert run(capsys, "minimal", str(FIXTURES / f"{name}.json"), "--oracle")[0] == 0
    assert run(capsys, "minimal", str(FIXTURES / "i1.json"), "--oracle", "--cap-points", "2")[0] == 3
    search = engine.minimal_closed_core
    monkeypatch.setattr(engine, "minimal_closed_core", lambda *args: search(*args)[:1])
    path = str(FIXTURES / "two_minimal.json")
    engine.unique_minimal_analysis.cache_clear()
    try:
        assert run(capsys, "minimal", path)[0] == 0
        code, _, err = run(capsys, "minimal", path, "--oracle")
        assert code == 4
        assert "minimal-closed fast path disagrees with the exhaustive oracle" in err
    finally:
        engine.unique_minimal_analysis.cache_clear()


def test_usage_error_exits_one(capsys):
    code = cli.main(["analyze", "--format", "yaml"])
    captured = capsys.readouterr()
    assert code == 1


def test_main_builds_no_parser(capsys, monkeypatch):
    """The parser is built once, at import; main() only parses."""
    import argparse

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "analyze", str(FIXTURES / "i1.json"))[0] == 0
    assert run(capsys, "decompose", "--ring", "zmod:12", "--ideal", "6")[0] == 0
    assert run(capsys, "zr-check", "--pool", "2,3,5", "--format", "text")[0] == 0
    assert run(capsys, "analyze", "--format", "yaml")[0] == 1
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_share_no_state(capsys):
    """Flags, usage errors and --help leave nothing behind for the next call."""
    want = (GOLDEN / "i1_analyze.json").read_text(encoding="utf-8")
    i1 = str(FIXTURES / "i1.json")
    code, out, _ = run(capsys, "analyze", i1, "--format", "text", "--oracle", "--cap-points", "3")
    assert code == 0 and out.startswith("B1: ")
    assert run(capsys, "analyze", i1) == (0, want, "")

    code, out, err = run(capsys, "analyze", "--format", "yaml")
    assert code == 1 and out == "" and "usage:" in err
    code, out, _ = run(capsys, "analyze", "--help")
    assert code == 0 and "--cap-points" in out
    assert run(capsys, "analyze", i1) == (0, want, "")


def test_one_order_and_one_analysis_per_family(capsys, monkeypatch):
    """Each family builds its inclusion order once and derives each analysis fact once.

    Builds are counted wherever a specrep module holds `to_spec_space`;
    `intersection_table` calls are counted with cache hits, three per
    analyze (search, minimal representations, analysis core).  The search,
    the minimal-point check and the raw critical mask run once per command,
    however many readers the family's analysis has.
    """
    calls = collections.Counter()

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    build = setsystems.to_spec_space
    for module in (setsystems, engine, theorems, rings, zrdesk):
        if hasattr(module, "to_spec_space"):
            monkeypatch.setattr(module, "to_spec_space", counting("order", build))
    table = engine.intersection_table
    monkeypatch.setattr(engine, "intersection_table", counting("table", table))
    for key, name in (("search", "minimal_closed_core"), ("minimal", "_minimal_points_checked"),
                      ("critical", "critical_mask")):
        monkeypatch.setattr(engine, name, counting(key, getattr(engine, name)))

    def counts(*argv):
        table.cache_clear()
        engine.unique_minimal_analysis.cache_clear()
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        return dict(calls), json.loads(out)

    i1 = str(FIXTURES / "i1.json")
    zmod12 = str(FIXTURES / "zmod12.json")
    once = {"search": 1, "minimal": 1, "critical": 1}
    assert counts("analyze", i1)[0] == {"order": 1, "table": 3, **once}
    assert counts("analyze", i1, "--oracle")[0] == {"order": 1, "table": 3, **once}
    assert counts("critical", i1)[0] == {"order": 1, "table": 3, **once}
    assert counts("minimal", i1)[0] == {"order": 1, "table": 2, "search": 1, "minimal": 1}
    got, payload = counts("decompose", zmod12)
    assert payload["verified"] and got == {"order": 1}
    got = counts("check-theorems", i1)[0]
    assert {key: got[key] for key in once} == once
    got = counts("check-theorems", zmod12)[0]
    assert {key: got[key] for key in once} == once and got["order"] == 3
