"""Exit-code contract on malformed input: a field diagnostic and exit 1, never a traceback.

Each case runs the CLI twice in a fresh interpreter and checks the exit
code, that stderr carries no Python traceback, and that stdout is the same
both times.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from specrep import engine, zrdesk

ROOT = pathlib.Path(__file__).resolve().parent.parent
I1 = str(ROOT / "fixtures" / "i1.json")


def _run_twice(argv, env_extra=None):
    env = dict(os.environ)
    env.pop("SPECREP_CAP_POINTS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    runs = [
        subprocess.run([sys.executable, "-m", "specrep.cli", *argv], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode
    for proc in runs:
        assert "Traceback" not in proc.stderr
    return runs[0]


def _instance(tmp_path, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "command, instance, field",
    [
        ("analyze", {"zr": {"pool": [2, 3], "target": [2, 3], "C": [], "members": 5}}, "zr.members"),
        ("decompose", {"ring": {"tables": {"add": 5, "mul": 5}}, "ideal": [0]}, "ring.tables.add"),
        ("decompose", {"ring": {"tables": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}}, "ideal": [5]},
         "ideal element 5"),
        ("decompose", {"ring": {"zmod": 12}, "ideal": True}, "field 'ideal'"),
        *[("decompose", {"ring": {"tables": {"add": [[0, bad], [1, 0]], "mul": [[0, 0], [0, 1]]}}, "ideal": [0]},
           "error: field 'ring.tables.add' must be a list of integer lists\n") for bad in (True, 1.5, [1])],
    ],
    ids=["zr-members-not-a-list", "table-not-a-list", "ideal-element-out-of-range", "ideal-true",
         "table-entry-true", "table-entry-float", "table-entry-list"],
)
def test_malformed_instance_exits_one(tmp_path, command, instance, field):
    proc = _run_twice([command, _instance(tmp_path, {"schema": 1, **instance})])
    assert proc.returncode == 1
    assert field in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, flag", [
    (["zr-check", str(ROOT / "fixtures" / "zr_pool235.json"), "--pool", "2,3"], "--pool"),
    (["decompose", str(ROOT / "fixtures" / "zmod12.json"), "--ring", "zmod:12", "--ideal", "6"], "--ring"),
    (["decompose", str(ROOT / "fixtures" / "zmod12.json"), "--ideal", "3"], "--ideal"),
    (["zr-check", "--pool", ""], "--pool"),
    (["decompose", "--ideal", "3"], "--ideal"),
], ids=["file-and-pool", "file-and-ring", "file-and-ideal", "empty-pool", "ideal-without-ring"])
def test_inline_flag_misuse_exits_one(argv, flag):
    # an instance file with an inline flag would silently drop one of the two
    proc = _run_twice(argv)
    assert proc.returncode == 1
    assert flag in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_removed_cap_ring_flag_exits_one():
    # a usage error: argparse's usage lines, then one error line
    proc = _run_twice(["decompose", "--ring", "zmod:12", "--ideal", "6", "--cap-ring", "5"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "unrecognized arguments: --cap-ring" in errors[0]


def test_dot_into_missing_directory_exits_one(tmp_path):
    target = tmp_path / "missing" / "hasse.dot"
    proc = _run_twice(["analyze", I1, "--dot", str(target)])
    assert proc.returncode == 1
    assert "cannot write" in proc.stderr
    assert not target.exists()


def test_cap_points_above_the_ceiling_exits_one():
    over = str(engine.POINT_CAP_CEILING + 1)
    proc = _run_twice(["analyze", I1, "--cap-points", over])
    assert proc.returncode == 1
    assert "ceiling" in proc.stderr
    env = _run_twice(["analyze", I1], {"SPECREP_CAP_POINTS": over})
    assert env.returncode == 1
    assert "SPECREP_CAP_POINTS" in env.stderr and "ceiling" in env.stderr
    at = _run_twice(["analyze", I1, "--cap-points", str(engine.POINT_CAP_CEILING)])
    assert at.returncode == 0


def test_non_integer_cap_points_variable_exits_one():
    proc = _run_twice(["analyze", I1], {"SPECREP_CAP_POINTS": "abc"})
    assert proc.returncode == 1
    assert "SPECREP_CAP_POINTS" in proc.stderr


def test_zero_ring_exits_one(tmp_path):
    zero_ring = {"schema": 1, "ring": {"tables": {"add": [[0]], "mul": [[0]]}}}
    proc = _run_twice(["check-theorems", _instance(tmp_path, zero_ring)])
    assert proc.returncode == 1
    assert "field 'ring.tables'" in proc.stderr and "zero ring" in proc.stderr
    assert proc.stdout == ""


def test_zr_family_without_members_is_not_a_representation(tmp_path):
    """The inclusion order is built on first use, after the representation test."""
    empty = {"schema": 1, "zr": {"pool": [2, 3], "target": [2, 3], "C": [], "members": []}}
    proc = _run_twice(["analyze", _instance(tmp_path, empty)])
    assert proc.returncode == 2
    assert "witness 1/2" in proc.stderr
    assert proc.stdout == ""


def test_deeply_nested_json_exits_one(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    proc = _run_twice(["analyze", str(path)])
    assert proc.returncode == 1
    assert "nested too deeply" in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("content", [
    pytest.param(('{"schema": 1, "ring": {"zmod": ' + "1" * 5000 + '}, "ideal": 6}').encode(),
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="without the digit limit the integer parses and the ring cap exits 3"),
                 id="integer-past-the-digit-limit"),
    pytest.param(b'{"schema": 1, "ring": {"zmod": 12}, "ideal": 6, "\xe9": 0}', id="not-utf8"),
])
def test_unreadable_json_exits_one(tmp_path, content):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    proc = _run_twice(["decompose", str(path)])
    assert proc.returncode == 1
    assert "unreadable JSON" in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_pool_prime_above_the_cap_exits_three_before_the_primality_test(tmp_path):
    # trial division of this prime would take minutes; the cap refuses it first
    big = 1000000000000000003
    from_file = {"schema": 1, "zr": {"pool": [2, big]}}
    for argv in (["zr-check", "--pool", f"2,{big}"], ["zr-check", _instance(tmp_path, from_file)]):
        proc = _run_twice(argv)
        assert proc.returncode == 3
        assert "exceeds the cap" in proc.stderr and str(zrdesk.PRIME_CAP) in proc.stderr
        assert proc.stdout == ""
    at = _run_twice(["zr-check", "--pool", "999999937"])
    assert at.returncode == 0
