"""The up-set listing and the shared minimal-closed search.

Every engine answer below is compared with a definition-level enumeration
(`helpers.Brute`), over all 2^n subfamilies, on random families of up to 12
points.  The minimal-closed search, a transversal search over the atoms'
avoiders, is also compared with the up-set walk it replaced
(`helpers.walk_minimal_closed`) on families of 13 to 20 points, and with
Brute on families whose members miss part of A, and on families whose
atoms are copied so that some are avoided by the same points.  A call-counting test pins
down that one `analyze` builds the intersection table once and runs the
minimal-closed search once.  The split intersection table is read against
subset_intersections on every mask, and its size and memory are bounded at
24 points.
"""

import functools
import json
import pathlib
import random
import sys
import tracemalloc

from hypothesis import assume, given, settings, strategies as st

from specrep import cli
from specrep import engine as E
from specrep.errors import ConsistencyError
from specrep.setsystems import ContextTriple, PointFamily, to_spec_space

from helpers import Brute, families, walk_minimal_closed

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the set-system instances)


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


def _search_args(family):
    space, ctx = family.space, family.context
    return E.SplitTable(ctx.full_mask, family.members), space.up, space.down, ctx.fixed_mask, ctx.target_mask


def test_search_equals_the_up_set_walk_on_13_to_20_points():
    rng = random.Random(2214)
    sizes = []
    for _ in range(150):
        n = rng.randint(13, 20)
        inst = workloads.setsys_instance(rng, n, rng.randint(n + 4, 28), rng.uniform(0.3, 0.9))
        ctx = ContextTriple.from_labels(inst["universe"], inst["C"], inst["A"])
        args = _search_args(PointFamily.from_labels(ctx, inst["points"]))
        got = E.minimal_closed_core(*args)
        assert got == walk_minimal_closed(*args)
        sizes.append(len(got))
    assert max(sizes) > 100  # some families have many minimal closed representations


@settings(max_examples=80, derandomize=True, deadline=None)
@given(families(), st.data())
def test_search_is_unchanged_by_interchangeable_atoms(family, data):
    # copies of an element of C lie in the same members, so the copies of an
    # atom are avoided by the same points and merge into one class
    ctx = family.context
    u = len(ctx.universe)
    copied = data.draw(st.lists(st.sampled_from(range(u)), min_size=1, max_size=6), label="copied elements")
    fixed, target, members = ctx.fixed_mask, ctx.target_mask, list(family.members)
    for k, e in enumerate(copied):
        fixed |= (fixed >> e & 1) << (u + k)
        target |= (target >> e & 1) << (u + k)
        members = [m | (m >> e & 1) << (u + k) for m in members]
    universe = ctx.universe + tuple(f"{ctx.universe[e]}'{k}" for k, e in enumerate(copied))
    wider = PointFamily(ContextTriple(universe, fixed, target), family.names, tuple(members))
    want = [sum(1 << i for i in y) for y in Brute(family).minimal_closed()]
    assert E.minimal_closed_core(*_search_args(wider)) == E.minimal_closed_core(*_search_args(family)) == want


@st.composite
def unvalidated_families(draw, max_points=12):
    """Distinct members over up to 7 elements, some of which miss part of A, a nonempty proper subset of C."""
    u = draw(st.integers(min_value=2, max_value=7))
    full = (1 << u) - 1
    fixed = draw(st.integers(min_value=3, max_value=full).filter(lambda c: c.bit_count() >= 2))
    target = draw(st.integers(min_value=1, max_value=full)) & fixed
    if target == fixed:
        target &= target - 1
    members = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=max_points, unique=True))
    ctx = ContextTriple(tuple("abcdefg"[:u]), fixed, target)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(len(members))), tuple(members))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(unvalidated_families())
def test_search_bars_the_points_below_a_member_missing_part_of_a(family):
    # no up-set holding a point below such a member represents; the walk
    # bounds by y with every point still to come, which such a member spoils,
    # so there it finds only some of the minimal closed representations
    target = family.context.target_mask
    assume(target and any(target & ~m for m in family.members))
    want = [sum(1 << i for i in y) for y in Brute(family).minimal_closed()]
    args = _search_args(family)
    try:
        got = E.minimal_closed_core(*args)
    except ConsistencyError:
        got = []
    assert got == want
    try:
        walked = walk_minimal_closed(*args)
    except ConsistencyError:
        walked = []
    assert set(walked) <= set(want)


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
