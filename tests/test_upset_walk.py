"""The output-sensitive up-set walk and the shared minimal-closed search.

Every engine answer below is compared with a definition-level enumeration
written here, over all 2^n subfamilies, on random families of up to 12
points.  A call-counting test pins down that one `analyze` builds the
intersection table once and runs the minimal-closed search once.
"""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import cli
from specrep import engine as E
from specrep.setsystems import ContextTriple, PointFamily, to_spec_space


@st.composite
def families(draw, max_points=12):
    """A valid C-representation: distinct members containing A, meeting to A inside C."""
    u = draw(st.integers(min_value=2, max_value=7))
    full = (1 << u) - 1
    fixed = draw(st.integers(min_value=1, max_value=full))
    target = draw(st.integers(min_value=0, max_value=full)) & fixed
    if target == fixed:
        target &= target - 1
    drawn = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=max_points - 1,
                          unique_by=lambda m: m | target))
    members = [m | target for m in drawn]
    extra = functools.reduce(int.__and__, members) & fixed & ~target
    if extra:  # a member without the surplus makes the family represent; it is new, or there were none
        members.append(members[0] & ~extra)
    ctx = ContextTriple(tuple("abcdefg"[:u]), fixed, target)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(len(members))), tuple(members))


def _clear():
    for cache in (E.upset_masks, E.intersection_table, E.unique_minimal_analysis):
        cache.cache_clear()


class Brute:
    """Definition-level answers from a scan of every subfamily mask."""

    def __init__(self, family):
        self.family = family
        self.n = n = len(family)
        members = family.members
        ctx = family.context
        self.leq = [[members[i] & ~members[j] == 0 for j in range(n)] for i in range(n)]
        self.upsets = [
            y for y in range(1 << n)
            if all(y >> j & 1 for i in range(n) if y >> i & 1 for j in range(n) if self.leq[i][j])
        ]
        self.fixed, self.target = ctx.fixed_mask, ctx.target_mask
        self.closed_reps = [y for y in self.upsets if self.represents(y)]

    def represents(self, zmask):
        m = self.family.context.full_mask
        for i in range(self.n):
            if zmask >> i & 1:
                m &= self.family.members[i]
        return m & self.fixed == self.target

    def minimal_points(self, ymask):
        return [i for i in range(self.n) if ymask >> i & 1
                and not any(j != i and ymask >> j & 1 and self.leq[j][i] for j in range(self.n))]

    def minimal_closed(self):
        # below[s]: some closed representation lies inside s
        reps = set(self.closed_reps)
        below = [False] * (1 << self.n)
        for s in range(1 << self.n):
            below[s] = s in reps or any(below[s ^ (1 << i)] for i in range(self.n) if s >> i & 1)
        return sorted(
            tuple(i for i in range(self.n) if y >> i & 1)
            for y in self.closed_reps
            if not any(below[y ^ (1 << i)] for i in range(self.n) if y >> i & 1)
        )

    def critical(self):
        acc = (1 << self.n) - 1
        for y in self.closed_reps:
            acc &= y
        return tuple(i for i in range(self.n) if acc >> i & 1)

    def strongly_irredundant(self, zmask, b):
        """Only the full cone over b, among its closed subsets Y, keeps (Z - b) + Y representing."""
        cone = sum(1 << j for j in range(self.n) if self.leq[b][j])
        base = zmask & ~(1 << b)
        working = [y for y in self.upsets if y & ~cone == 0 and self.represents(base | y)]
        return working == [cone]


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
