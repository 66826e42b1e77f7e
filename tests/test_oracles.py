"""The exhaustive oracles on the raw bit-sliced subset scan, and the ring filters beside them.

`critical_points_oracle`, `minimal_closed_oracle` and the uniqueness scan of
`rings._irredundant_subfamilies` read every subset of a family at once: each
verdict on a subfamily z is bit z of a 2^n-bit integer, built from the raw
members and the point slices H[j] (bit z set iff point j is in z).  The
slices are compared with that definition, and the oracles with the
per-subset definitions of `helpers.Brute` at every point count up to 14;
they must not touch any fast path, must catch a flipped slice bit, and hold
about n + 6 integers of 2^n bits.  The table-ring ideal enumeration and the
zmod strong-irreducibility filter are compared with their former, plainer
versions kept in `helpers`.
"""

import json
import pathlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import cli, engine as E, rings as R, setsystems, theorems
from specrep.errors import ConsistencyError
from specrep.setsystems import ContextTriple, PointFamily

from helpers import (Brute, bfs_table_ideals, families_of_size, family_from, i1_family,
                     pairwise_reducible, pairwise_strongly_irreducible, random_representation_family)
from test_ring_lattice import dual_number_tables, f2xy_tables, product_tables, times, z4x_tables

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the workload shapes and moduli)


def _clear():
    for obj in vars(E).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def run(capsys, *argv):
    _clear()
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _setsys_family(rng, n):
    inst = workloads.setsys_instance(rng, n, rng.randint(n + 4, n + 10), rng.uniform(0.3, 0.8))
    ctx = ContextTriple.from_labels(inst["universe"], inst["C"], inst["A"])
    return PointFamily.from_labels(ctx, inst["points"])


def assert_oracles_match_brute(family):
    brute = Brute(family)
    assert E.critical_points_oracle(family) == brute.critical()
    assert list(E.minimal_closed_oracle(family)) == brute.minimal_closed()
    assert R._irredundant_subfamilies(family) == brute.irredundant()


def test_point_slices_hold_bit_j_of_every_z():
    for n in range(17):
        H = E.point_slices(n)
        assert len(H) == n
        for j, h in enumerate(H):
            assert h == sum(1 << z for z in range(1 << n) if z >> j & 1), (n, j)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.data())
def test_oracles_match_per_subset_definitions(data):
    for n in range(1, 13):
        assert_oracles_match_brute(data.draw(families_of_size(n), label=f"{n} points"))


def test_oracles_match_per_subset_definitions_on_13_and_14_points():
    rng = random.Random(1314)
    for n in (13, 13, 14, 14):
        assert_oracles_match_brute(_setsys_family(rng, n))


def test_oracles_read_no_fast_path(monkeypatch):
    """The oracles use neither the intersection table, the up-set walk, represents_mask nor any mask stage."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle read a fast path")

    for name in ("intersection_table", "SplitTable", "subset_intersections", "upset_masks", "_element_classes",
                 "represents_mask", "minimal_closed_core", "_minimal_points_checked",
                 "analysis_core", "critical_mask"):
        monkeypatch.setattr(E, name, forbidden)
    monkeypatch.setattr(setsystems, "represents_mask", forbidden)
    rng = random.Random(1313)
    fams = [i1_family()] + [random_representation_family(rng, 6, 10) for _ in range(30)]
    for fam in fams:
        E.critical_points_oracle(fam)
        E.minimal_closed_oracle(fam)
        R._irredundant_subfamilies(fam)


def _flipped_slices(j, z, real=E.point_slices):
    def faulty(n):
        H = real(n)
        H[j] ^= 1 << z
        return H
    return faulty


def test_a_flipped_slice_bit_fails_the_oracle_command_it_reaches(monkeypatch, capsys, tmp_path):
    """Every single-bit fault of a point slice that changes an oracle's answer makes the command exit 4.

    Each answer is compared with Brute: where the faulty critical points
    differ, `critical --oracle` and `analyze --oracle` must exit 4; where the
    minimal closed representations differ, `minimal --oracle`; where the
    irredundant subfamilies differ, `decompose --oracle`, whose uniqueness
    scan they are.  A fault that changes no answer must change no exit code.
    """
    points = {"P1": "acde", "P2": "bce", "P3": "ab", "P4": "abcd"}
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"schema": 1, "universe": list("abcde"), "C": list("bd"), "A": [],
                                "points": {name: list(m) for name, m in points.items()}}), encoding="utf-8")
    cases = [(str(FIXTURES / "i1.json"), i1_family()), (str(path), family_from("abcde", "bd", "", points))]
    ring = R.FiniteRing.zmod(30)
    ring_family = R.build_irr_space(ring, R.zmod_ideal(ring, 30))
    caught = {"critical": 0, "minimal": 0, "decompose": 0}
    try:
        for file, fam in cases + [(None, ring_family)]:
            brute = Brute(fam)
            for j in range(len(fam)):
                for z in range(1 << len(fam)):
                    monkeypatch.setattr(E, "point_slices", _flipped_slices(j, z))
                    if file is None:
                        bad = R._irredundant_subfamilies(fam) != brute.irredundant()
                        argv = ("decompose", "--ring", "zmod:30", "--ideal", "0", "--oracle")
                        assert run(capsys, *argv)[0] == (4 if bad else 0), (j, z)
                        caught["decompose"] += bad
                        continue
                    crit_bad = E.critical_points_oracle(fam) != brute.critical()
                    min_bad = list(E.minimal_closed_oracle(fam)) != brute.minimal_closed()
                    for command, bad in (("critical", crit_bad), ("analyze", crit_bad), ("minimal", min_bad)):
                        assert run(capsys, command, file, "--oracle")[0] == (4 if bad else 0), (file, command, j, z)
                    caught["critical"] += crit_bad
                    caught["minimal"] += min_bad
    finally:
        _clear()
    assert all(caught.values()), caught


@pytest.mark.parametrize("oracle", [E.critical_points_oracle, E.minimal_closed_oracle])
def test_an_oracle_holds_about_n_plus_6_slices_at_22_points(oracle):
    n = 22
    family = _setsys_family(random.Random(22), n)
    family.space  # the point order is built before the trace: the bound is on the scan
    tracemalloc.start()
    try:
        oracle(family, cap=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n slices, R, the zeta transform's copy and its temporaries, with one slice to spare
    assert peak <= (n + 7) << n >> 3, peak


def _flip_point_zero(real):
    def faulty(*args):
        return real(*args) ^ 1
    return faulty


def _flip_core_point_zero(real):
    def faulty(*args):
        crit, cset, cset_represents, srep = real(*args)
        return crit ^ 1, cset, cset_represents, srep
    return faulty


def test_a_flipped_critical_mask_fails_analyze_critical_and_the_suite(monkeypatch, capsys):
    i1 = str(FIXTURES / "i1.json")
    monkeypatch.setattr(E, "critical_mask", _flip_point_zero(E.critical_mask))
    try:
        for command in ("analyze", "critical"):
            code, _, err = run(capsys, command, i1, "--oracle")
            assert code == 4 and "internal consistency failure" in err, command
        suite = {r.name: r.status for r in theorems.run_family_suite(i1_family())}
        assert suite["critical-fast-path-vs-oracle"] == "fail"

        # with analysis_core flipped the same way the fast routes agree, and only the oracle is left
        monkeypatch.setattr(E, "analysis_core", _flip_core_point_zero(E.analysis_core))
        for command in ("analyze", "critical"):
            assert run(capsys, command, i1)[0] == 0, command
            code, _, err = run(capsys, command, i1, "--oracle")
            assert code == 4, command
            assert "critical fast path disagrees with the exhaustive oracle" in err, command
    finally:
        _clear()


def test_minimal_oracle_catches_a_search_that_loses_a_candidate(monkeypatch, capsys, tmp_path):
    """A search handed an order with P2 above P3 loses a closed representation; the oracle does not.

    The atoms are b and d, avoided by P1 (b), P2 (d) and P3 (d).  With P2
    above P3, P3 shares its one atom with a point above it, so its priv
    entry is empty and the search never chooses it: it misses {P1, P3, P4},
    and the fast path that reads the search agrees with it on one minimal
    closed representation; the raw scan finds both.
    """
    points = {"P1": "acde", "P2": "bce", "P3": "ab", "P4": "abcd"}
    fam = family_from("abcde", "bd", "", points)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"schema": 1, "universe": list("abcde"), "C": list("bd"), "A": [],
                                "points": {name: list(m) for name, m in points.items()}}), encoding="utf-8")
    assert run(capsys, "minimal", str(path), "--oracle")[0] == 0
    assert E.minimal_closed_oracle(fam) == ((0, 1), (0, 2, 3))

    real = E.minimal_closed_core

    def p2_above_p3(inter, up, down, fixed, target):
        return real(inter, up[:2] + (up[2] | 0b0010,) + up[3:], down, fixed, target)

    monkeypatch.setattr(E, "minimal_closed_core", p2_above_p3)
    try:
        code, out, _ = run(capsys, "minimal", str(path))
        assert code == 0 and json.loads(out)["minimal_closed_representations"] == [["P1", "P2"]]
        assert E.minimal_closed_oracle(fam) == ((0, 1), (0, 2, 3))
        code, _, err = run(capsys, "minimal", str(path), "--oracle")
        assert code == 4
        assert "minimal-closed fast path disagrees with the exhaustive oracle" in err
    finally:
        _clear()


@pytest.mark.parametrize("at", (1, 2, 12))
def test_a_non_unique_decomposition_still_raises(monkeypatch, at):
    """zmod(30) over (0) with (6) added: {(5), (6)} is a second irredundant representation.

    Every member of the true decomposition (2), (3), (5) stays strongly
    irredundant, so only the uniqueness scan can refuse it.  (6) is put at
    point index `at`: 1 and 2 read slices of H built within one byte, 12 one
    built from repeated bytes.  The points padded in before it lack 0, the
    one element of A, so they lie in no representation.
    """
    ring = R.FiniteRing.zmod(30)
    zero = R.zmod_ideal(ring, 30)
    assert [b.name for b in R.irredundant_decomposition(ring, zero, verify=True)] == ["(2)", "(3)", "(5)"]
    real = R.build_irr_space

    def with_six(ring, ideal, points="irreducible"):
        fam = real(ring, ideal, points)
        assert fam.context.universe[0] == "0" and fam.context.target_mask == 1
        six = sum(1 << i for i, label in enumerate(fam.context.universe) if int(label) % 6 == 0)
        pad = range(1, at - len(fam) + 1)
        names = fam.names + tuple(f"pad{m}" for m in pad)
        members = fam.members + tuple(m << 1 for m in pad)
        out = PointFamily(fam.context, names[:at] + ("(6)",) + names[at:], members[:at] + (six,) + members[at:])
        assert out.names.index("(6)") == at
        return out

    monkeypatch.setattr(R, "build_irr_space", with_six)
    with pytest.raises(ConsistencyError, match="not unique"):
        R.irredundant_decomposition(ring, zero, verify=True)


def _table_rings():
    """The f2xy fixture ring, every product ring shape of the ring-zr workload and the other non-arithmetical rings."""
    tables = json.loads((FIXTURES / "f2xy_tables.json").read_text(encoding="utf-8"))["ring"]["tables"]
    out = [pytest.param(R.FiniteRing.from_tables(tables["add"], tables["mul"]), id="f2xy")]
    shapes = sorted({spec for cls, _, spec in workloads.RING_ROUND if cls.endswith("-tables")})
    for moduli, gens in shapes:
        inst, _ = workloads.product_ring_instance(random.Random(0), moduli, gens)
        t = inst["ring"]["tables"]
        out.append(pytest.param(R.FiniteRing.from_tables(t["add"], t["mul"]), id="x".join(map(str, moduli))))
    for name, tables in (("z4x", z4x_tables()), ("f2xy-x-z2", times(f2xy_tables(), product_tables((2,)))),
                         ("z4x-x-z3", times(z4x_tables(), product_tables((3,)))),
                         ("z2-x-z4x", times(product_tables((2,)), z4x_tables())),
                         ("f2-dual-numbers", dual_number_tables())):
        out.append(pytest.param(R.FiniteRing.from_tables(*tables), id=name))
    return out


@pytest.mark.parametrize("ring", _table_rings())
def test_table_ideals_equal_the_elementwise_bfs(ring):
    R._all_table_ideals.cache_clear()
    assert R._all_table_ideals(ring) == bfs_table_ideals(ring)


def test_zmod_strong_irreducibility_equals_the_pairwise_test():
    moduli = set(range(2, 3001)) | {12_000, 720_720}
    for r in range(3):
        for req in workloads.round_requests("ring-zr", 0, r, 0):
            if req.kind == "zmod" and req.instance is not None:
                moduli.add(req.props["size"])
    for n in sorted(moduli):
        for d in R.divisors_of(n)[1:]:
            assert R._zmod_strongly_irreducible(n, d) == pairwise_strongly_irreducible(n, d), (n, d)


def test_zmod_reducibility_equals_the_pairwise_test():
    # every divisor of every n <= 3000 is some d <= 3000
    divisors = set(range(1, 3001)) | set(R.divisors_of(720_720)) | set(R.divisors_of(735_134_400))
    for d in sorted(divisors):
        assert R._zmod_reducible(d) == pairwise_reducible(d), d
