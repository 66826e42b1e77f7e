"""CLI behavior: schemas, exit codes, determinism, output formats."""

import collections
import contextlib
import io
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

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


_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=-(1 << 200), max_value=1 << 200)
           | st.text() | st.sampled_from(["", "\\", '"', "\n\t\x00\x7f", "\u00e9\u2603\U0001f600", "</script>"])
           | st.floats(allow_nan=True))
# lists of non-empty name lists, the shape of minimal's rows, and such lists with one row spoilt
_NAMES = st.text() | st.sampled_from(["", "\\", '"', "\n\t\x00\x1f\x7f", "\u00e9\u2603\U0001f600"])
_NAME_LISTS = st.lists(st.lists(_NAMES, min_size=1, max_size=4), min_size=1, max_size=5)


@st.composite
def _spoilt_name_lists(draw):
    """A list of name lists with an empty row inserted, a row made a tuple, or a non-string leaf in a row."""
    rows = draw(_NAME_LISTS)
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    spoil = draw(st.sampled_from(("empty", "tuple", "leaf")))
    if spoil == "empty":
        rows.insert(i, [])
    elif spoil == "tuple":
        rows[i] = tuple(rows[i])
    else:
        rows[i].insert(draw(st.integers(min_value=0, max_value=len(rows[i]))),
                       draw(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True)))
    return rows


_PAYLOADS = st.recursive(
    _LEAVES | _NAME_LISTS | _spoilt_name_lists(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_PAYLOADS)
def test_render_json_equals_json_dumps(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _Name(str):
    pass


@pytest.mark.parametrize("payload", [
    [["a", "b"], ["c"], ["d", 7]],  # a non-string leaf only in the last row
    [["a"], ["b", None]],
    [["a", _Name("b\u00e9")], [_Name("")]],  # a str subclass is written as a string
    [["a"], [], ["b"]],
    {"rows": [["a", "b"], [True]], "more": [[]]},
], ids=["int-in-last-row", "null-in-last-row", "str-subclass", "empty-row", "in-a-dict"])
def test_render_json_writes_spoilt_name_lists_as_json_dumps(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


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


_I1_TEXT = json.dumps(json.loads((FIXTURES / "i1.json").read_text(encoding="utf-8")), indent=1)


@pytest.mark.parametrize("content, err", [
    (_I1_TEXT.replace("\n", "\r\n").encode(), ""),
    (_I1_TEXT.replace("\n", "\r\n").replace('"universe"', "universe", 1).encode(),
     "error: {path}: invalid JSON at line 3, column 2\n"),
    (b'{\r"schema": 1,\r"universe" ["a"]\r}', "error: {path}: invalid JSON at line 3, column 12\n"),
    (b'{\r\n"schema": 1,\r"x": 1,\n  "universe" ["a"]}', "error: {path}: invalid JSON at line 4, column 14\n"),
    (b"\r\r\r", "error: {path}: invalid JSON at line 4, column 1\n"),
    (b"\xef\xbb\xbf" + _I1_TEXT.encode(), "error: {path}: invalid JSON at line 1, column 1\n"),
    (b'{"schema": 1, "x": "\xff"}',
     "error: {path}: unreadable JSON: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n"),
    (_I1_TEXT.encode("utf-16"),
     "error: {path}: unreadable JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    (b"", "error: {path}: invalid JSON at line 1, column 1\n"),
    (b'{"schema"\x00: 1}', "error: {path}: invalid JSON at line 1, column 10\n"),
], ids=["crlf", "crlf-syntax-error", "lone-cr-syntax-error-on-line-3", "mixed-newlines", "only-cr", "utf8-bom",
        "invalid-utf8-byte", "utf16-with-bom", "empty", "nul"])
def test_load_reads_bytes_as_text_mode_did(tmp_path, capsys, content, err):
    """Exit code and stderr of each edge case, as reading the file in text mode gave them."""
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    code, out, got = run(capsys, "analyze", str(path))
    assert (code, got) == ((1, err.format(path=path)) if err else (0, ""))
    if not err:
        assert out == (GOLDEN / "i1_analyze.json").read_text(encoding="utf-8")


def test_load_of_a_directory_or_a_missing_file(tmp_path, capsys):
    assert run(capsys, "analyze", str(tmp_path)) == (1, "", f"error: cannot read {tmp_path}: Is a directory\n")
    missing = tmp_path / "nope.json"
    assert run(capsys, "analyze", str(missing)) == (
        1, "", f"error: cannot read {missing}: No such file or directory\n")


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


_COMMANDS = ["analyze", "minimal", "critical", "decompose", "zr-check", "check-theorems"]
_OPTIONS = ["--format", "--cap-points", "--oracle", "--dot", "--ring", "--ideal", "--pool"]
_PLAIN_WORDS = _COMMANDS + _OPTIONS * 3 + ["json", "text", "dot", "yaml", "3", "0", " 7", "x", "x.json", "zmod:12",
                                            "2,3,5", "out.dot", ""]
_ARGV_WORDS = _PLAIN_WORDS + ["--format=text", "--cap-points=4", "--form", "--or", "--ora", "--po", "-h", "--help",
                              "--", "-", "-1", "-x", "--bogus", "-1 2", "analyz"]


@settings(max_examples=3000, derandomize=True, deadline=None)
@given(st.sampled_from(_COMMANDS * 4 + ["-h", "--help", "", "--oracle", "bogus"]),
       st.lists(st.sampled_from(_ARGV_WORDS), max_size=7) | st.lists(st.sampled_from(_PLAIN_WORDS), max_size=7))
def test_fast_args_returns_what_argparse_returns(first, rest):
    """Every word of every kind, plain or not; where the fast path answers, argparse answers the same."""
    argv = [first, *rest]
    fast = cli._fast_args(argv)
    if fast is not None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                slow = cli._PARSER.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the fast path took {argv!r}, which argparse refuses: {err.getvalue()}")
        assert fast == slow


@pytest.mark.parametrize("argv", [
    ["analyze", "x.json"],
    ["analyze", "x.json", "--format", "text"],
    ["analyze", "--oracle", "x.json", "--cap-points", "12", "--dot", "x.dot"],
    ["minimal", "x.json", "--format", "json", "--format", "text"],
    ["decompose", "--ring", "zmod:12", "--ideal", "6"],
    ["zr-check", "--pool", "2,3,5", "--format", "text"],
    ["check-theorems", ""],
])
def test_fast_args_take_plain_argv(argv):
    assert cli._fast_args(argv) == cli._PARSER.parse_args(argv)


# ------------------------------------------- analyze and minimal JSON against the payload route

_LABELS = ["a", "b", "c", "x10", "x9", "", '"', "\\", "\u00e9", "\U0001f600", "Z", "d e", "\n"]
_POINT_NAMES = ["P10", "P2", "", '"', "\\", "a\nb", "\x00\x1f", "\u00e9", "\u2603", "\U0001f600", "</x>", "Z", "a",
                *(f"x{i}" for i in range(12))]
_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def _random_set_system(rng):
    """A set system of 1-14 points that represents: A inside every member, C meeting their intersection in A."""
    n = rng.randint(1, 14)
    u = rng.randint(max(2, n.bit_length()), 8)
    full = (1 << u) - 1
    members = rng.sample(range(full), n)  # distinct, none the whole universe
    inter = full
    for m in members:
        inter &= m
    target = inter & rng.randrange(full + 1)
    rest = full & ~inter
    fixed = target | (rest & rng.randrange(1, full + 1) or rest & -rest)
    labels = rng.sample(_LABELS, u)

    def listed(mask):
        out = [labels[i] for i in range(u) if mask >> i & 1]
        rng.shuffle(out)
        return out

    names = rng.sample(_POINT_NAMES, n)
    return {"schema": 1, "universe": labels, "C": listed(fixed), "A": listed(target),
            "points": {name: listed(m) for name, m in zip(names, members)}}


def _random_ring(rng):
    factors = rng.sample(_PRIMES[:5], rng.randint(1, 3))
    n = math.prod(p ** rng.randint(1, 3) for p in factors)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    return {"schema": 1, "ring": {"zmod": n}, "ideal": rng.choice(divisors)}


def _random_zr(rng):
    """A zr family over 2-6 primes whose members, with the fixed ring, cover the target."""
    pool = sorted(rng.sample(_PRIMES, rng.randint(2, 6)))
    while True:
        target = sorted(rng.sample(pool, rng.randint(2, len(pool))))
        fixed = sorted(rng.sample(target, rng.randint(0, len(target) - 1)))
        choices = [list(c) for r in (1, 2, 3) for c in itertools.combinations(target, r)]
        members = rng.sample(choices, rng.randint(1, min(len(choices), 8)))
        if set().union(*map(set, members)) | set(fixed) == set(target):
            return {"schema": 1, "zr": {"pool": pool, "target": target, "C": fixed, "members": members}}


def _reference_analyze(path, cap, oracle):
    """analyze's JSON as report_to_dict, the instance echo and render_json give it."""
    instance = cli.load_instance(path)
    family = cli._family_of(instance)
    payload = engine.report_to_dict(engine.build_report(family, cap=cap, oracle=oracle))
    if instance.kind == "set-system":
        ctx = family.context
        payload["instance"] = {
            "universe": list(ctx.universe),
            "C": list(ctx.labels_of(ctx.fixed_mask)),
            "A": list(ctx.labels_of(ctx.target_mask)),
            "points": {name: list(family.member_labels(i)) for i, name in enumerate(family.names)},
        }
    elif instance.kind == "ring":
        payload["instance"] = {"ring": instance.ring.describe(), "ideal": instance.ideal.name}
    else:
        payload["instance"] = {"pool": list(instance.pool.primes)}
        for entry in payload["points"].values():
            entry["witnesses_rational"] = {flag: f"1/{label}" for flag, label in entry["witnesses"].items()}
    return cli.render_json({"schema": 1, "command": "analyze", **payload}) + "\n"


def _reference_minimal(path, cap):
    family = cli._family_of(cli.load_instance(path))
    analysis = engine.unique_minimal_analysis(family, cap)
    closed, minimal = engine._name_lists(family, analysis._closed_masks, analysis._minimal_masks)
    return cli.render_json({"schema": 1, "command": "minimal", "minimal_closed_representations": closed,
                            "minimal_representations": minimal}) + "\n"


@pytest.mark.parametrize("seed", range(90))
def test_analyze_and_minimal_json_equal_the_payload_route(tmp_path, capsys, seed):
    rng = random.Random(seed)
    instance = (_random_set_system, _random_ring, _random_zr)[seed % 3](rng)
    path = write(tmp_path, "instance.json", instance)
    n = len(cli._family_of(cli.load_instance(path)))
    caps = [engine.DEFAULT_POINT_CAP] + ([rng.randint(1, n - 1)] if n > 1 else [])
    for cap in caps:
        flags = [] if cap == engine.DEFAULT_POINT_CAP else ["--cap-points", str(cap)]
        assert run(capsys, "analyze", path, *flags) == (0, _reference_analyze(path, cap, False), ""), flags
        code, out, _ = run(capsys, "analyze", path, *flags, "--oracle")
        if cap < n:  # the oracles are capped
            assert (code, out) == (3, ""), flags
        else:
            assert (code, out) == (0, _reference_analyze(path, cap, True))
        code, out, err = run(capsys, "minimal", path, *flags)
        if cap < n:
            assert (code, out) == (3, ""), flags
        else:
            assert (code, out, err) == (0, _reference_minimal(path, cap), "")


@pytest.mark.parametrize("name", ["i1", "two_minimal", "critical_above", "isolated_redundant", "setsys13",
                                  "setsys16_deep", "zmod12", "zmod2560", "z60_tables", "zr_pool235"])
def test_fixture_json_equals_the_payload_route(capsys, name):
    path = str(FIXTURES / f"{name}.json")
    assert run(capsys, "analyze", path) == (0, _reference_analyze(path, engine.DEFAULT_POINT_CAP, False), "")
    assert run(capsys, "analyze", path, "--cap-points", "2") == (0, _reference_analyze(path, 2, False), "")
    assert run(capsys, "minimal", path) == (0, _reference_minimal(path, engine.DEFAULT_POINT_CAP), "")


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
