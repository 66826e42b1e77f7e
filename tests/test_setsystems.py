"""Context validation, hull-kernel splits, and representation checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep.errors import InputError, NotARepresentation
from specrep.setsystems import (
    ContextTriple,
    PointFamily,
    hull_kernel_sets,
    require_representation,
    to_spec_space,
    validate_representation,
)

from helpers import family_from, i1_family, random_representation_family


def test_a_equals_c_rejected():
    with pytest.raises(InputError, match="A must be a proper subset of C"):
        ContextTriple.from_labels("ab", "a", "a")


def test_a_outside_c_rejected():
    with pytest.raises(InputError):
        ContextTriple.from_labels("ab", "a", "b")


def test_unknown_label_rejected():
    with pytest.raises(InputError):
        ContextTriple.from_labels("ab", "az", "a")


def test_duplicate_universe_rejected():
    with pytest.raises(InputError):
        ContextTriple.from_labels("aba", "a", "")
    with pytest.raises(InputError, match="universe labels must be distinct"):
        ContextTriple(("a", "b", "a"), 0b111, 0)


def test_label_index_is_built_on_first_use():
    ctx = ContextTriple(("x", "y", "z"), 0b111, 0b001)
    assert "_index" not in vars(ctx)
    assert ctx.element_mask(["z", "x"]) == 0b101
    assert ctx._index == {"x": 0, "y": 1, "z": 2}
    with pytest.raises(InputError, match="unknown element label 'w'"):
        ctx.element_mask(["w"])
    parsed = ContextTriple.from_labels("xyz", "xyz", "x")
    assert parsed == ctx and parsed._index == ctx._index


def test_duplicate_members_rejected():
    ctx = ContextTriple.from_labels("ab", "ab", "a")
    with pytest.raises(InputError, match="equal as sets"):
        PointFamily(ctx, ("X", "Y"), (0b11, 0b11))


def test_empty_target_is_allowed():
    ctx = ContextTriple.from_labels("ab", "ab", "")
    fam = PointFamily.from_labels(ctx, {"B1": "a", "B2": "b"})
    assert validate_representation(fam) == (True, None)


def test_hull_kernel_examples():
    fam = i1_family()
    assert hull_kernel_sets(fam, "c") == ((0,), (1, 2))
    assert hull_kernel_sets(fam, "") == ((), (0, 1, 2))
    assert hull_kernel_sets(fam, "abc") == ((0, 1), (2,))


def test_hull_kernel_partitions():
    rng = random.Random(7)
    for _ in range(30):
        fam = random_representation_family(rng)
        labels = [fam.context.universe[i] for i in range(len(fam.context.universe)) if rng.random() < 0.5]
        u, v = hull_kernel_sets(fam, labels)
        assert sorted(u + v) == list(range(len(fam)))


def test_hull_kernel_v_is_intersection_compatible():
    fam = i1_family()
    for f1 in ("", "a", "b", "c", "ab", "bc"):
        for f2 in ("", "a", "c", "abc"):
            _, v1 = hull_kernel_sets(fam, f1)
            _, v2 = hull_kernel_sets(fam, f2)
            _, v12 = hull_kernel_sets(fam, set(f1) | set(f2))
            assert set(v12) == set(v1) & set(v2)


def test_validate_examples():
    assert validate_representation(i1_family()) == (True, None)
    small = family_from("abc", "abc", "a", {"B1": "ab"})
    assert validate_representation(small) == (False, "b")
    empty = PointFamily(ContextTriple.from_labels("az", "az", "a"), (), ())
    ok, witness = validate_representation(empty)
    assert not ok and witness == "z"


def test_validate_monotone_under_enlargement():
    rng = random.Random(99)
    for _ in range(40):
        fam = random_representation_family(rng, max_points=7)
        ctx = fam.context
        extra = ctx.target_mask
        for i in range(len(ctx.universe)):
            if not ctx.target_mask >> i & 1 and rng.random() < 0.5:
                extra |= 1 << i
        if extra in fam.members:
            continue
        bigger = PointFamily(ctx, fam.names + ("EXTRA",), fam.members + (extra,))
        assert validate_representation(bigger)[0]


def test_require_representation_names_offending_member():
    fam = family_from("abc", "abc", "a", {"NOPE": "b"})
    with pytest.raises(NotARepresentation, match="NOPE"):
        require_representation(fam)
    try:
        require_representation(fam)
    except NotARepresentation as exc:
        assert exc.witness == "a"


def test_require_representation_witness():
    fam = family_from("abc", "abc", "a", {"B1": "ab"})
    with pytest.raises(NotARepresentation) as info:
        require_representation(fam)
    assert info.value.witness == "b"


def test_to_spec_space_orders_by_inclusion():
    space = to_spec_space(i1_family())
    assert space.leq(0, 2) and space.leq(1, 2)
    assert not space.leq(0, 1) and not space.leq(1, 0)
    single = to_spec_space(family_from("ab", "ab", "a", {"B": "ab"}))
    assert len(single) == 1
    anti = to_spec_space(family_from("abc", "abc", "", {"X": "a", "Y": "b", "Z": "c"}))
    assert all(not anti.leq(i, j) for i in range(3) for j in range(3) if i != j)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.sampled_from("abc")), st.sets(st.sampled_from("abc")))
def test_hull_kernel_union_rule_hypothesis(f1, f2):
    fam = i1_family()
    _, v1 = hull_kernel_sets(fam, f1)
    _, v2 = hull_kernel_sets(fam, f2)
    _, v12 = hull_kernel_sets(fam, f1 | f2)
    assert set(v12) == set(v1) & set(v2)


def test_members_must_contain_target_in_representation():
    rng = random.Random(5)
    for _ in range(40):
        fam = random_representation_family(rng)
        tm = fam.context.target_mask
        assert all(m & tm == tm for m in fam.members)
