"""The exhaustive oracles on the raw blocked subset scan, and the ring filters beside them.

`critical_points_oracle`, `minimal_closed_oracle` and the uniqueness scan of
`rings._verify_decomposition` read every subset of a family through
`engine._raw_subset_blocks`, 2^ORACLE_BLOCK_BITS subsets at a time.  They
are compared with the per-subset definitions of `helpers.Brute` at block
widths below, at and above the point count; they must not touch any fast
path; and each of them must still catch a faulty fast path.  The table-ring
ideal enumeration and the zmod strong-irreducibility filter are compared
with their former, plainer versions kept in `helpers`.
"""

import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import cli, engine as E, rings as R, setsystems, theorems
from specrep.errors import ConsistencyError
from specrep.setsystems import PointFamily

from helpers import (Brute, bfs_table_ideals, families_of_size, family_from, i1_family,
                     pairwise_reducible, pairwise_strongly_irreducible, random_representation_family)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the workload shapes and moduli)

BLOCK_WIDTHS = (1, 2, 12)  # so that n > k, n = k and n < k all occur; 12 is the default


def _clear():
    for obj in vars(E).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def run(capsys, *argv):
    _clear()
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(families_of_size))
def test_oracles_match_per_subset_definitions_at_every_block_width(family):
    brute = Brute(family)
    n = len(family)
    inter_want = [brute.intersection(s) for s in range(1 << n)]
    close_want = [brute.closure(s) for s in range(1 << n)]
    for bits in BLOCK_WIDTHS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(E, "ORACLE_BLOCK_BITS", bits)
            k = min(n, bits)
            blocks = list(E._raw_subset_blocks(family))
            assert [base for base, _, _ in blocks] == list(range(0, 1 << n, 1 << k))
            # the memory bound: every table has 2^k entries, whatever n is
            assert all(len(inter) == len(close) == 1 << k for _, inter, close in blocks)
            assert [x for _, inter, _ in blocks for x in inter] == inter_want
            assert [c for _, _, close in blocks for c in close] == close_want
            assert E.critical_points_oracle(family) == brute.critical()
            assert list(E.minimal_closed_oracle(family)) == brute.minimal_closed()
            assert R._irredundant_subfamilies(family) == brute.irredundant()


def test_oracles_read_no_fast_path(monkeypatch):
    """The rewritten routes use neither the intersection table, nor the up-set walk, nor represents_mask."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle read a fast path")

    for name in ("intersection_table", "SplitTable", "subset_intersections", "upset_masks", "_upsets",
                 "_linear_extension", "represents_mask"):
        monkeypatch.setattr(E, name, forbidden)
    monkeypatch.setattr(setsystems, "represents_mask", forbidden)
    rng = random.Random(1313)
    fams = [i1_family()] + [random_representation_family(rng, 6, 10) for _ in range(30)]
    for fam in fams:
        E.critical_points_oracle(fam)
        E.minimal_closed_oracle(fam)
        R._irredundant_subfamilies(fam)


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


@pytest.mark.parametrize("bits", BLOCK_WIDTHS)
def test_a_non_unique_decomposition_still_raises(monkeypatch, bits):
    """zmod(30) over (0) with (6) added: {(5), (6)} is a second irredundant representation.

    Every member of the true decomposition (2), (3), (5) stays strongly
    irredundant, so only the uniqueness scan can refuse it.
    """
    ring = R.FiniteRing.zmod(30)
    zero = R.zmod_ideal(ring, 30)
    assert [b.name for b in R.irredundant_decomposition(ring, zero, verify=True)] == ["(2)", "(3)", "(5)"]
    real = R.build_irr_space

    def with_six(ring, ideal, points="irreducible"):
        fam = real(ring, ideal, points)
        six = sum(1 << i for i, label in enumerate(fam.context.universe) if int(label) % 6 == 0)
        return PointFamily(fam.context, fam.names + ("(6)",), fam.members + (six,))

    monkeypatch.setattr(R, "build_irr_space", with_six)
    monkeypatch.setattr(E, "ORACLE_BLOCK_BITS", bits)
    with pytest.raises(ConsistencyError, match="not unique"):
        R.irredundant_decomposition(ring, zero, verify=True)


def _table_rings():
    """The f2xy fixture ring and every product ring shape of the ring-zr workload."""
    tables = json.loads((FIXTURES / "f2xy_tables.json").read_text(encoding="utf-8"))["ring"]["tables"]
    out = [pytest.param(R.FiniteRing.from_tables(tables["add"], tables["mul"]), id="f2xy")]
    shapes = sorted({spec for cls, _, spec in workloads.RING_ROUND if cls.endswith("-tables")})
    for moduli, gens in shapes:
        inst, _ = workloads.product_ring_instance(random.Random(0), moduli, gens)
        t = inst["ring"]["tables"]
        out.append(pytest.param(R.FiniteRing.from_tables(t["add"], t["mul"]), id="x".join(map(str, moduli))))
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
