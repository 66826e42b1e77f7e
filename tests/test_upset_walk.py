"""The up-set listing, the up-set slice and the shared minimal-closed search.

Every engine answer below is compared with a definition-level enumeration
(`helpers.Brute`), over all 2^n subfamilies, on random families of up to 12
points.  The minimal-closed search, a transversal search over the atoms'
avoiders, is also compared with the up-set walk it replaced
(`helpers.walk_minimal_closed`) on families of 13 to 20 points, and with
Brute on families whose members miss part of A, and on families whose
atoms are copied so that some are avoided by the same points, and on
families where one point covers every atom.  Its output is in the order of
the index tuples.  The minimal-point check is compared with the point-by-point
loop it replaced (`helpers.minimal_points_by_loop`) under faulty orders and
tables.  A call-counting test pins
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
from types import SimpleNamespace

from hypothesis import assume, given, settings, strategies as st

from specrep import cli
from specrep import engine as E
from specrep.errors import ConsistencyError
from specrep.setsystems import ContextTriple, PointFamily, to_spec_space

from specrep.topology import indices_of

from helpers import Brute, families, families_of_size, minimal_points_by_loop, walk_minimal_closed

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
    assert E.upset_masks(to_spec_space(family).up) == tuple(brute.upsets)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.data())
def test_upset_slice_matches_a_scan_of_every_mask(data):
    for n in range(1, 13):
        family = data.draw(families_of_size(n), label=f"{n} points")
        upsets = E._upset_slice(E.point_slices(n), to_spec_space(family).up)
        assert list(E._set_bits(upsets)) == Brute(family).upsets


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(families())
def test_search_order_is_that_of_the_index_tuples(family):
    out = E.minimal_closed_core(*_search_args(family))
    assert out == sorted(out, key=indices_of)


def test_search_emits_a_one_point_leaf():
    # B3 = ad avoids both atoms b and c on its own, so {B3} is a leaf at depth 1
    ctx = ContextTriple(tuple("abcd"), 0b0111, 0b0001)
    family = PointFamily(ctx, ("B1", "B2", "B3"), (0b0011, 0b0101, 0b1001))
    assert E.minimal_closed_core(*_search_args(family)) == [0b011, 0b100]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(families(max_points=11), st.integers(min_value=0, max_value=127))
def test_search_with_a_point_covering_every_atom(family, outside):
    # the new member meets C in A alone, so it avoids every atom
    ctx = family.context
    cover = ctx.target_mask | outside & ctx.full_mask & ~ctx.fixed_mask
    assume(cover not in family.members)
    wider = PointFamily(ctx, family.names + ("cover",), family.members + (cover,))
    want = [sum(1 << i for i in y) for y in Brute(wider).minimal_closed()]
    assert E.minimal_closed_core(*_search_args(wider)) == want


@st.composite
def checked_inputs(draw):
    """The minimal-point check's arguments on a random family, with a faulty order, a faulty table, both or neither.

    closed holds the family's minimal closed masks with up to two drawn
    masks among them.  The order may lose one relation b < c from up[b],
    down[c] or both, or a point may lose itself from its up-set, its
    down-set or both.  The table may have up to three entries that the
    check reads turned to the target or away from it, so that it is no
    longer monotone.
    """
    family = draw(families())
    space, ctx = family.space, family.context
    n = len(family)
    up, down = list(space.up), list(space.down)
    fixed, target = ctx.fixed_mask, ctx.target_mask
    real = E.minimal_closed_core(*_search_args(family))
    extra = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=2))
    closed = draw(st.permutations(real + extra))
    read = []  # the sets that the check reads under the true order
    for z in E._minimal_points_checked(real, *_search_args(family)):
        read.append(z)
        for b in indices_of(z):
            read += [z ^ 1 << b, (z | up[b]) & ~(1 << b)]
    fault = draw(st.sampled_from(["none", "dropped", "non-reflexive"]))
    pairs = [(b, c) for b in range(n) for c in range(n) if b != c and up[b] >> c & 1]
    if fault == "dropped" and pairs:
        b, c = draw(st.sampled_from(pairs))
        side = draw(st.sampled_from(["up", "down", "both"]))
        if side != "down":
            up[b] &= ~(1 << c)
        if side != "up":
            down[c] &= ~(1 << b)
    elif fault == "non-reflexive":
        b = draw(st.integers(min_value=0, max_value=n - 1))
        side = draw(st.sampled_from(["up", "down", "both"]))
        if side != "down":
            up[b] &= ~(1 << b)
        if side != "up":
            down[b] &= ~(1 << b)
    lo = E.subset_intersections(ctx.full_mask, family.members)
    for s in draw(st.lists(st.sampled_from(read), max_size=3)):
        lo[s] = ctx.full_mask if lo[s] & fixed == target else target
    return closed, SimpleNamespace(lo=lo, hi=[ctx.full_mask], h=n), up, down, fixed, target


@settings(max_examples=300, derandomize=True, deadline=None)
@given(checked_inputs())
def test_minimal_point_check_equals_the_point_by_point_loop(args):
    def outcome(check):
        try:
            return check(*args)
        except ConsistencyError as exc:
            return str(exc)

    assert outcome(E._minimal_points_checked) == outcome(minimal_points_by_loop)


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
