"""The output-sensitive up-set walk and the shared minimal-closed search.

Every engine answer below is compared with a definition-level enumeration
(`helpers.Brute`), over all 2^n subfamilies, on random families of up to 12
points.  A call-counting test pins down that one `analyze` builds the
intersection table once and runs the minimal-closed search once.  The split
intersection table is read against subset_intersections on every mask, and
its size and memory are bounded at 24 points.
"""

import functools
import json
import tracemalloc

from hypothesis import given, settings, strategies as st

from specrep import cli
from specrep import engine as E
from specrep.setsystems import ContextTriple, PointFamily, to_spec_space

from helpers import Brute, families


def _clear():
    for cache in (E.upset_masks, E.intersection_table, E.unique_minimal_analysis):
        cache.cache_clear()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(families())
def test_upset_masks_match_a_scan_of_every_mask(family):
    _clear()
    brute = Brute(family)
    assert E.upset_masks(to_spec_space(family)) == tuple(brute.upsets)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(families())
def test_minimal_closed_and_minimal_representations_match_definitions(family):
    _clear()
    brute = Brute(family)
    closed = brute.minimal_closed()
    assert list(E.unique_minimal_analysis(family).minimal_closed) == closed
    minimal = sorted(tuple(brute.minimal_points(sum(1 << i for i in y))) for y in closed)
    assert list(E.unique_minimal_analysis(family).minimal_representations) == minimal
    for z in minimal:
        zmask = sum(1 << i for i in z)
        assert brute.represents(zmask)
        assert not any(brute.represents(zmask & ~(1 << b)) for b in z)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(families())
def test_critical_points_and_unique_minimal_analysis_match_definitions(family):
    _clear()
    brute = Brute(family)
    crit = brute.critical()
    assert E.unique_minimal_analysis(family).critical == crit
    crit_mask = sum(1 << i for i in crit)
    cset = tuple(brute.minimal_points(crit_mask))
    cset_mask = sum(1 << i for i in cset)
    closed = brute.minimal_closed()
    analysis = E.unique_minimal_analysis(family)
    assert analysis.critical == crit
    assert list(analysis.minimal_closed) == closed
    assert analysis.unique == (len(closed) == 1)
    assert analysis.cset == cset
    assert analysis.cset_represents == brute.represents(cset_mask)
    assert list(analysis.minimal_representations) == sorted(
        tuple(brute.minimal_points(sum(1 << i for i in y))) for y in closed)
    srep = None
    if brute.represents(cset_mask):
        s = tuple(b for b in cset if brute.strongly_irredundant(cset_mask, b))
        if brute.represents(sum(1 << i for i in s)):
            srep = s
    assert analysis.strongly_irredundant_rep == srep


@settings(max_examples=40, derandomize=True, deadline=None)
@given(families())
def test_build_report_with_oracles_raises_nothing(family):
    _clear()
    report = E.build_report(family, oracle=True)
    assert report.exhaustive


def test_analyze_builds_one_table_and_runs_one_search(tmp_path, monkeypatch, capsys):
    universe = [f"d{i}" for i in range(12)]
    # distinct points: x_i misses d_i, and also d_(i+3) when 3 divides i
    points = {f"x{i:02d}": [u for j, u in enumerate(universe) if j != i and (i % 3 or j != (i + 3) % 12)]
              for i in range(12)}
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"schema": 1, "universe": universe, "C": universe, "A": [], "points": points}))

    builds, searches = [], []
    build = E.intersection_table.__wrapped__
    search = E.minimal_closed_core

    def counting_build(family):
        builds.append(family)
        return build(family)

    def counting_search(*args):
        searches.append(args)
        return search(*args)

    def no_upset_list(space):
        raise AssertionError("analyze must not list every up-set")

    _clear()
    monkeypatch.setattr(E, "intersection_table", functools.lru_cache(maxsize=1)(counting_build))
    monkeypatch.setattr(E, "minimal_closed_core", counting_search)
    monkeypatch.setattr(E, "upset_masks", no_upset_list)
    try:
        assert cli.main(["analyze", str(path)]) == 0
    finally:
        E.unique_minimal_analysis.cache_clear()
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal_representations"]
    assert len(builds) == 1
    assert len(searches) == 1


@st.composite
def member_families(draw, max_points=16):
    """A family of 0 to max_points distinct members over 20 elements; the table needs no representation."""
    n = draw(st.integers(min_value=0, max_value=max_points))
    members = draw(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=n, max_size=n, unique=True))
    ctx = ContextTriple(tuple(f"e{i}" for i in range(20)), 1, 0)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(n)), tuple(members))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(member_families())
def test_split_table_reads_every_subfamily_intersection(family):
    _clear()
    n = len(family)
    want = E.subset_intersections(family.context.full_mask, family.members)
    table = E.intersection_table(family)
    lo, hi, h = table.lo, table.hi, table.h
    lmask = len(lo) - 1
    assert h == n // 2
    assert len(table) == (1 << h) + (1 << (n - h))
    assert [lo[s & lmask] & hi[s >> h] for s in range(1 << n)] == want
    assert [table[s] for s in range(1 << n)] == want


def test_a_24_point_table_holds_two_halves():
    members = tuple(((1 << 40) - 1) ^ (0b111 << i) for i in range(24))
    family = PointFamily(ContextTriple(tuple(f"e{i}" for i in range(40)), 1, 0),
                         tuple(f"P{i}" for i in range(24)), members)
    _clear()
    tracemalloc.start()
    try:
        table = E.intersection_table(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _clear()
    assert len(table) <= 2 << 12
    assert peak < 1 << 20
