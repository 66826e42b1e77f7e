"""Irredundance engine: classifications, minimal representations, criticality.

Expected values in the frozen fixtures were computed with the brute-force
oracles (exhaustive up-set and sub-family enumeration) before being asserted
against the fast paths.
"""

import dataclasses
import json
import pathlib
import random
import re

import pytest

from specrep import cli
from specrep import engine as E
from specrep.errors import CapExceeded, InputError, NotARepresentation
from specrep.setsystems import ContextTriple, PointFamily, represents_mask, to_spec_space
from specrep.topology import indices_of

from helpers import family_from, i1_family, random_representation_family, report_payload

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def i1():
    return i1_family()


def all_representation_masks(family):
    full = (1 << len(family)) - 1
    return [z for z in range(1, full + 1) if represents_mask(family, z)]


# ---------------------------------------------------------------- classify

def test_classify_b1_in_minimal_pair(i1):
    cls = E.classify_member(i1, (0, 1), 0)
    assert cls.irredundant and cls.strongly_irredundant and cls.tightly_irredundant
    assert cls.witness_irredundant == "c"
    assert cls.witness_strong == "c"
    assert cls.isolated_spectral and cls.isolated_patch


def test_classify_top_point_redundant(i1):
    cls = E.classify_member(i1, (0, 1, 2), 2)
    assert not cls.irredundant and not cls.strongly_irredundant and not cls.tightly_irredundant
    assert cls.witness_irredundant is None


def test_classify_singleton_family():
    fam = family_from("abc", "abc", "a", {"JUSTA": "a"})
    cls = E.classify_member(fam, (0,), 0)
    assert cls.irredundant and cls.strongly_irredundant
    assert cls.witness_irredundant == "b"  # least element of C beyond the target


def test_classify_requires_membership_and_representation(i1):
    with pytest.raises(ValueError):
        E.classify_member(i1, (0, 1), 2)
    with pytest.raises(NotARepresentation):
        E.classify_member(i1, (0, 2), 0)


def test_strong_oracle_examples(i1):
    assert E.strongly_irredundant_oracle(i1, (0, 1), 0) is True
    assert E.strongly_irredundant_oracle(i1, (0, 1, 2), 2) is False


def test_strong_oracle_cap(i1):
    with pytest.raises(CapExceeded):
        E.strongly_irredundant_oracle(i1, (0, 1), 0, cap=1)


def test_fast_strong_matches_oracle_random():
    rng = random.Random(31415)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=6)
        for zmask in all_representation_masks(fam):
            zs = indices_of(zmask)
            for b in zs:
                fast = E.classify_member(fam, zs, b).strongly_irredundant
                assert fast == E.strongly_irredundant_oracle(fam, zs, b)


# ------------------------------------------------- minimal representations

def test_i1_minimal_closed_and_minimal(i1):
    assert list(E.unique_minimal_analysis(i1).minimal_closed) == [(0, 1, 2)]
    assert list(E.unique_minimal_analysis(i1).minimal_representations) == [(0, 1)]


def test_one_extra_element_family_two_points():
    # target plus one element each, two elements beyond the target: both needed
    fam = family_from("abc", "abc", "a", {"M1": "ab", "M2": "ac"})
    assert list(E.unique_minimal_analysis(fam).minimal_closed) == [(0, 1)]
    assert list(E.unique_minimal_analysis(fam).minimal_representations) == [(0, 1)]


def test_one_extra_element_family_three_points():
    # with three such points any pair already represents: the minimal closed
    # representations are exactly the pairs (oracle-verified)
    fam = family_from("abcd", "abcd", "a", {"M1": "ab", "M2": "ac", "M3": "ad"})
    assert list(E.unique_minimal_analysis(fam).minimal_closed) == [(0, 1), (0, 2), (1, 2)]
    assert list(E.unique_minimal_analysis(fam).minimal_representations) == [(0, 1), (0, 2), (1, 2)]
    analysis = E.unique_minimal_analysis(fam)
    assert not analysis.unique and not analysis.cset_represents


def test_two_minimal_regression():
    # smallest found instance with exactly two minimal closed representations
    fam = family_from("abcd", "abc", "a", {"B1": "ab", "B2": "ac", "V": "ad"})
    assert list(E.unique_minimal_analysis(fam).minimal_closed) == [(0, 1), (2,)]
    assert list(E.unique_minimal_analysis(fam).minimal_representations) == [(0, 1), (2,)]
    analysis = E.unique_minimal_analysis(fam)
    assert not analysis.unique and not analysis.cset_represents
    assert analysis.strongly_irredundant_rep is None


def test_family_with_target_point_alone():
    fam = family_from("abc", "abc", "a", {"A": "a"})
    assert list(E.unique_minimal_analysis(fam).minimal_closed) == [(0,)]
    analysis = E.unique_minimal_analysis(fam)
    assert analysis.unique and analysis.strongly_irredundant_rep == (0,)


def test_antichain_minimal_reps_are_subantichains():
    rng = random.Random(777)
    for _ in range(40):
        fam = random_representation_family(rng, max_points=6)
        space = to_spec_space(fam)
        for rep in E.unique_minimal_analysis(fam).minimal_representations:
            repmask = space.point_mask(rep)
            from specrep.topology import is_antichain

            assert is_antichain(space, repmask)
            assert represents_mask(fam, repmask)


def test_minimal_closed_requires_representation():
    fam = family_from("abc", "abc", "a", {"B1": "ab"})
    with pytest.raises(NotARepresentation):
        E.unique_minimal_analysis(fam).minimal_closed


def test_minimal_closed_cap(i1):
    with pytest.raises(CapExceeded):
        E.unique_minimal_analysis(i1, cap=2).minimal_closed


# ---------------------------------------------------------------- critical

def test_i1_critical(i1):
    assert E.unique_minimal_analysis(i1).critical == (0, 1, 2)
    assert E.critical_points_oracle(i1) == (0, 1, 2)
    analysis = E.unique_minimal_analysis(i1)
    assert analysis.critical == (0, 1, 2)
    assert analysis.cset == (0, 1)


def test_redundant_maximal_point_above_member_is_critical():
    # P sits above B1; the only closed family avoiding B1 keeps P, so P is
    # critical even though it is redundant in the full family
    # (oracle-verified: the closed representations are {B2,P} and the whole space)
    fam = family_from("abcd", "abcd", "a", {"B1": "ab", "B2": "ac", "P": "abd"})
    assert E.unique_minimal_analysis(fam).critical == (1, 2)
    assert E.critical_points_oracle(fam) == (1, 2)
    cls = E.classify_member(fam, (0, 1, 2), 2)
    assert not cls.irredundant
    analysis = E.unique_minimal_analysis(fam)
    assert analysis.unique and analysis.cset_represents
    assert analysis.minimal_representations == ((1, 2),)


def test_pairwise_replaceable_antichain_has_no_critical_points():
    fam = family_from("abcd", "abcd", "a", {"B1": "ab", "B2": "ac", "P": "ad"})
    assert E.unique_minimal_analysis(fam).critical == ()
    assert E.critical_points_oracle(fam) == ()


def test_redundant_maximal_point_not_critical():
    # P overlaps both B1 and B2 beyond the target, so dropping either of them
    # leaves a non-representation, while {B1,B2} alone shows P avoidable
    fam = family_from("abcde", "abcde", "a", {"B1": "abd", "B2": "ace", "P": "ade"})
    assert E.unique_minimal_analysis(fam).critical == (0, 1)
    assert E.critical_points_oracle(fam) == (0, 1)
    cls = E.classify_member(fam, (0, 1, 2), 2)
    assert not cls.irredundant
    analysis = E.unique_minimal_analysis(fam)
    assert analysis.unique and analysis.minimal_representations == ((0, 1),)


def test_single_member_family_is_critical():
    fam = family_from("ab", "ab", "a", {"B": "a"})
    assert E.unique_minimal_analysis(fam).critical == (0,)


def test_critical_fast_matches_oracle_random():
    rng = random.Random(27182)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=7)
        assert E.unique_minimal_analysis(fam).critical == E.critical_points_oracle(fam)


# ------------------------------------------------------ uniqueness analysis

def test_i1_unique_analysis(i1):
    analysis = E.unique_minimal_analysis(i1)
    assert analysis.unique and analysis.cset_represents
    assert analysis.cset == (0, 1)
    assert analysis.strongly_irredundant_rep == (0, 1)


def test_unique_iff_cset_represents_random():
    rng = random.Random(16180)
    for _ in range(120):
        fam = random_representation_family(rng, max_points=8)
        analysis = E.unique_minimal_analysis(fam)
        assert analysis.unique == analysis.cset_represents
        assert analysis.unique == (len(analysis.minimal_representations) == 1)


def test_strongly_irredundant_reps_unique_and_equal_s_random():
    rng = random.Random(141421)
    for _ in range(60):
        fam = random_representation_family(rng, max_points=7)
        analysis = E.unique_minimal_analysis(fam)
        strong_reps = []
        for zmask in all_representation_masks(fam):
            zs = indices_of(zmask)
            if all(E.classify_member(fam, zs, b).strongly_irredundant for b in zs):
                strong_reps.append(set(zs))
        if analysis.cset_represents:
            assert analysis.strongly_irredundant_rep is not None
            assert strong_reps == [set(analysis.strongly_irredundant_rep)]


# ----------------------------------------------------------------- isolation

def test_isolated_points_antichain(i1):
    assert E.isolated_points(i1, (0, 1), "spectral") == (0, 1)
    assert E.isolated_points(i1, (0, 1), "patch") == (0, 1)


def test_isolated_points_two_chain():
    fam = family_from("ab", "ab", "a", {"BOT": "a", "TOP": "ab"})
    # spectral subspace opens are restricted down-sets: only the bottom is isolated
    assert E.isolated_points(fam, (0, 1), "spectral") == (0,)
    assert E.isolated_points(fam, (0, 1), "inverse") == (1,)
    assert E.isolated_points(fam, (0, 1), "patch") == (0, 1)


def test_isolated_singleton():
    fam = family_from("ab", "ab", "a", {"B": "a"})
    assert E.isolated_points(fam, (0,), "spectral") == (0,)


def test_isolated_but_redundant_outside_minimal_reps():
    # an isolated point of a non-minimal subfamily can still be redundant
    fam = family_from("abcd", "abcd", "a", {"B1": "ab", "B2": "ac", "V": "ad"})
    cls = E.classify_member(fam, (0, 1, 2), 2)
    assert cls.isolated_spectral and cls.isolated_patch
    assert not cls.irredundant
    assert (2,) not in [tuple(sorted(z)) for z in E.unique_minimal_analysis(fam).minimal_representations]


def test_irredundant_implies_isolated_random():
    rng = random.Random(6626)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=7)
        for zmask in all_representation_masks(fam):
            zs = indices_of(zmask)
            for b in zs:
                cls = E.classify_member(fam, zs, b)
                if cls.irredundant:
                    assert cls.isolated_spectral and cls.isolated_patch


def test_minimal_rep_equivalences_random():
    rng = random.Random(2718)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=7)
        for rep in E.unique_minimal_analysis(fam).minimal_representations:
            iso = E.isolated_points(fam, rep, "spectral")
            for b in rep:
                cls = E.classify_member(fam, rep, b)
                assert cls.irredundant == cls.strongly_irredundant == (b in iso)


def test_critical_and_irredundant_implies_strong_random():
    rng = random.Random(577215)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=7)
        crit = set(E.unique_minimal_analysis(fam).critical)
        for zmask in all_representation_masks(fam):
            zs = indices_of(zmask)
            for b in zs:
                cls = E.classify_member(fam, zs, b)
                if b in crit and cls.irredundant:
                    assert cls.strongly_irredundant


def test_hierarchy_and_finite_tight_equality_random():
    rng = random.Random(837)
    for _ in range(80):
        fam = random_representation_family(rng, max_points=7)
        zs = tuple(range(len(fam)))
        for b in zs:
            cls = E.classify_member(fam, zs, b)
            if cls.strongly_irredundant:
                assert cls.irredundant
            assert cls.strongly_irredundant == cls.tightly_irredundant


def test_tight_equals_irredundant_in_up_closure_random():
    rng = random.Random(93)
    from specrep.topology import up_mask

    for _ in range(60):
        fam = random_representation_family(rng, max_points=7)
        space = to_spec_space(fam)
        for zmask in all_representation_masks(fam):
            up = up_mask(space, zmask)
            zs = indices_of(zmask)
            ups = indices_of(up)
            for b in zs:
                tight = E.classify_member(fam, zs, b).tightly_irredundant
                in_up = E.classify_member(fam, ups, b).irredundant
                assert tight == in_up


def test_every_family_has_strongly_irredundant_representation_random():
    rng = random.Random(112358)
    for _ in range(120):
        fam = random_representation_family(rng)
        rep = E.strongly_irredundant_representation(fam)
        assert represents_mask(fam, to_spec_space(fam).point_mask(rep))
        for b in rep:
            assert E.classify_member(fam, rep, b).strongly_irredundant


def test_distinct_tight_reps_lie_in_distinct_minimal_reps_random():
    rng = random.Random(4669)
    seen_multi = 0
    for _ in range(150):
        fam = random_representation_family(rng, max_points=6)
        space = to_spec_space(fam)
        minmasks = [space.point_mask(z) for z in E.unique_minimal_analysis(fam).minimal_representations]
        tights = []
        for zmask in all_representation_masks(fam):
            zs = indices_of(zmask)
            if all(E.classify_member(fam, zs, b).tightly_irredundant for b in zs):
                tights.append(zmask)
        if len(tights) >= 2:
            seen_multi += 1
        containers = {z: {m for m in minmasks if z & ~m == 0} for z in tights}
        for z, cs in containers.items():
            assert cs, "a tight representation must lie in a minimal one"
        items = list(containers.items())
        for i, (za, ca) in enumerate(items):
            for zb, cb in items[i + 1:]:
                assert not (ca & cb)
    assert seen_multi > 0, "the sweep should exercise families with several tight representations"


# ------------------------------------------------------------------- report

def test_build_report_and_dict(i1):
    report = E.build_report(i1, oracle=True)
    payload = report_payload(report)
    assert payload["minimal_representations"] == [["B1", "B2"]]
    assert payload["critical"] == ["B1", "B2", "B3"]
    assert payload["critical_core"] == ["B1", "B2"]
    assert payload["unique_minimal"] is True
    assert payload["points"]["B1"]["witnesses"]["irredundant"] == "c"
    assert payload["points"]["B2"]["witnesses"]["irredundant"] == "b"
    assert payload["points"]["B3"]["witnesses"] == {}


def test_report_beyond_cap_carries_notice(i1, capsys):
    report = E.build_report(i1, cap=2)
    assert not report.exhaustive
    assert any("cap" in n for n in report.notices)
    assert cli.main(["analyze", str(FIXTURES / "i1.json"), "--cap-points", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "minimal_representations" not in payload
    assert payload["notices"] == list(report.notices)


def test_report_dot_contains_cover_edges(i1):
    dot = cli.report_to_dot(E.build_report(i1))
    assert '"B1" -> "B3";' in dot
    assert '"B2" -> "B3";' in dot
    assert '"B1" -> "B2"' not in dot
    assert dot.count("->") == 2


_DOT_QUOTED = r'"((?:[^"\\\n]|\\.)*)"'
_DOT_NODE = re.compile(rf"  {_DOT_QUOTED} \[label={_DOT_QUOTED}\];")
_DOT_EDGE = re.compile(rf"  {_DOT_QUOTED} -> {_DOT_QUOTED};")
_DOT_FIXED = {"digraph representation {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];', "}"}


def _dot_unescape(text):
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def test_report_dot_escapes_point_names(i1):
    names = ('x"];evil[label="', "y\\", "two words\nand a line")
    fam = dataclasses.replace(i1, names=names)
    lines = cli.report_to_dot(E.build_report(fam)).splitlines()
    nodes, edges = [], []
    for line in lines:
        node, edge = _DOT_NODE.fullmatch(line), _DOT_EDGE.fullmatch(line)
        assert line in _DOT_FIXED or node or edge, line
        if node:
            nodes.append(_dot_unescape(node.group(1)))
            label = _dot_unescape(node.group(2))
            assert label == nodes[-1] or label.startswith(nodes[-1] + "\n"), label
        if edge:
            edges.append(tuple(map(_dot_unescape, edge.groups())))
    assert sorted(nodes) == sorted(names)
    assert sorted(edges) == sorted([(names[0], names[2]), (names[1], names[2])])


def test_chosen_subfamily_must_represent(i1):
    with pytest.raises(NotARepresentation):
        E.build_report(i1, zs=(0, 2))


def test_report_on_chosen_subfamily(i1):
    report = E.build_report(i1, zs=(0, 1))
    assert report.chosen == (0, 1)
    assert all(c.strongly_irredundant for c in report.classifications)


# ------------------------------------------------------- one-pass classification

def _fixture_families():
    """The family of every fixture that holds one (set systems, rings with an ideal, zr with members)."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            out.append(cli._family_of(cli.load_instance(str(path))))
        except InputError:
            continue
    return out


def _chosen_subfamilies(family):
    """Z as the whole family, each minimal representation, and the whole family minus a redundant point."""
    full = family.space.full_mask
    zs = [full]
    if len(family) <= E.DEFAULT_POINT_CAP:
        zs += [family.space.point_mask(z) for z in E.unique_minimal_analysis(family).minimal_representations]
    zs += [full ^ 1 << b for b in range(len(family)) if represents_mask(family, full ^ 1 << b)]
    return zs


def _lacks_part_of_a_cone(family, zmask):
    return any(family.space.up[b] & ~zmask for b in indices_of(zmask))


def _assert_report_classifies_as_classify_member(family, zmask):
    chosen = indices_of(zmask)
    report = E.build_report(family, zs=chosen)
    assert report.classifications == tuple(E.classify_member(family, chosen, b) for b in chosen), (family, zmask)


def test_build_report_classifies_as_classify_member_on_every_fixture():
    families = _fixture_families()
    assert len(families) >= 10
    lacking = 0
    for family in families:
        for zmask in _chosen_subfamilies(family):
            _assert_report_classifies_as_classify_member(family, zmask)
            lacking += _lacks_part_of_a_cone(family, zmask)
    assert lacking, "some Z must lack part of a member's cone, so that the strong gain takes its own meet"


def test_build_report_classifies_as_classify_member_on_random_families():
    rng = random.Random(60226)
    lacking = 0
    for _ in range(60):
        family = random_representation_family(rng, max_universe=6, max_points=8)
        for zmask in all_representation_masks(family):
            _assert_report_classifies_as_classify_member(family, zmask)
            lacking += _lacks_part_of_a_cone(family, zmask)
    assert lacking > 50


def test_build_report_on_the_whole_family_takes_no_meet_per_member(monkeypatch):
    intersection_mask = E.intersection_mask
    calls = []

    def counted(family, points_mask):
        calls.append(points_mask)
        return intersection_mask(family, points_mask)

    monkeypatch.setattr(E, "intersection_mask", counted)
    lacking_seen = 0
    for family in _fixture_families():
        calls.clear()
        report = E.build_report(family)
        assert len(report.classifications) == len(family)
        assert calls == [], family
        # in a Z that lacks part of a cone, the strong gain of each such member takes one meet of its own
        for zmask in _chosen_subfamilies(family):
            lacking = [b for b in indices_of(zmask) if family.space.up[b] & ~zmask]
            calls.clear()
            E.build_report(family, zs=indices_of(zmask))
            assert len(calls) == len(lacking), (family, zmask)
            lacking_seen += len(lacking)
    assert lacking_seen


# ------------------------------------------------------------- name lists

_AWKWARD_NAMES = ["P10", "P2", "", '"', "\\", "a\nb", "\x00\x1f", "\u00e9", "\u2603", "\U0001f600", "</x>", "Z", "a"]


def _family_named(names):
    """A family whose point names are names, in that order: distinct members over five elements."""
    ctx = ContextTriple(tuple("abcde"), 0b11, 0)
    return PointFamily(ctx, tuple(names), tuple(range(len(names))))


@pytest.mark.parametrize("n", range(1, 22))
def test_name_lists_equal_the_sorted_names_of_each_mask(n):
    rng = random.Random(n)
    pool = _AWKWARD_NAMES + [f"Q{i}" for i in range(n)]
    names = rng.sample(pool, n)
    if names == sorted(names):  # names out of index order, from 2 points on
        names.reverse()
    _check_name_lists(names, rng)


@pytest.mark.parametrize("names", [
    [f"x{7 * i % 13:02d}" for i in range(13)],  # each chunk of four points takes names from across the order
    [f"x{i:02d}" for i in range(17)][::-1],
], ids=["stride-7", "reversed"])
def test_name_lists_of_a_family_named_out_of_index_order(names):
    assert names != sorted(names)
    _check_name_lists(names, random.Random(len(names)))


def _antichain(masks):
    """The masks that neither hold nor lie in an earlier one kept: rows of minimal or closed representations."""
    kept = []
    for m in masks:
        if all(m & ~k and k & ~m for k in kept):
            kept.append(m)
    return kept


def _check_name_lists(names, rng):
    """cli's JSON and text row writers against a plain sort of each mask's names, then of the rows."""
    n = len(names)
    family = _family_named(names)
    full = (1 << n) - 1
    ordered, ranks = cli._name_order(family)
    tables = cli._led([cli._encode_string(name) for name in ordered], "    ")
    commas = cli._chunk_tables(["," + name for name in ordered], "")
    antichains = [[0], [full], [1 << b for b in range(n)], *(_antichain(rng.sample(range(1, full + 1), min(full, 40)))
                                                             for _ in range(3))]
    for masks in antichains:
        want = sorted(sorted(names[i] for i in indices_of(m)) for m in masks)
        assert cli._rows(tables, ranks, masks) == json.dumps(want, indent=2).replace("\n", "\n  ")
        assert cli._text_rows("row", commas, ranks, masks) == ["row: {" + ",".join(row) + "}" for row in want]
