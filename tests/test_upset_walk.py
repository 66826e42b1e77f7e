"""The output-sensitive up-set walk and the shared minimal-closed search.

Every engine answer below is compared with a definition-level enumeration
(`helpers.Brute`), over all 2^n subfamilies, on random families of up to 12
points.  A call-counting test pins down that one `analyze` builds the
intersection table once and runs the minimal-closed search once.
"""

import functools
import json

from hypothesis import given, settings

from specrep import cli
from specrep import engine as E
from specrep.setsystems import to_spec_space

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
