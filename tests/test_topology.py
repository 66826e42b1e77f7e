"""Topology layer: generator vs order fast paths, closures, order predicates."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrep.errors import CapExceeded, InputError, NotAntichain
from specrep import topology as T
from specrep.setsystems import to_spec_space

from helpers import i1_family, random_spec_space


@pytest.fixture
def i1():
    return to_spec_space(i1_family())


def test_points_must_be_distinct():
    with pytest.raises(InputError):
        T.SpecSpace(points=(3, 3), universe_size=2)


def test_i1_spectral_opens_are_the_five_down_sets(i1):
    top = T.generate_topology(i1, "spectral")
    assert top.opens == frozenset({0b000, 0b001, 0b010, 0b011, 0b111})


def test_patch_topology_is_discrete(i1):
    top = T.generate_topology(i1, "patch")
    assert top.opens == frozenset(range(8))


def test_single_point_space_has_two_opens():
    space = T.SpecSpace(points=(0b1,), universe_size=1)
    for kind in T.KINDS:
        assert T.generate_topology(space, kind).opens == frozenset({0, 1})


def test_i1_up_down_min_max(i1):
    assert T.up_set(i1, [0]) == (0, 2)
    assert T.down_set(i1, [2]) == (0, 1, 2)
    assert T.min_elements(i1, [0, 1, 2]) == (0, 1)
    assert T.max_elements(i1, [0, 1, 2]) == (2,)
    assert T.up_set(i1, []) == ()
    assert T.down_set(i1, []) == ()


def test_i1_closures(i1):
    assert T.closure(i1, [0], "spectral") == (0, 2)
    assert T.closure(i1, [2], "inverse") == (0, 1, 2)
    assert T.closure(i1, [0, 1], "patch") == (0, 1)
    assert T.closure(i1, [], "spectral") == ()


def test_tree_order():
    i1 = to_spec_space(i1_family())
    assert T.is_tree_order(i1) is False  # two incomparable points below the top
    chain = T.SpecSpace(points=(0b1, 0b11, 0b111), universe_size=3)
    assert T.is_tree_order(chain) is True
    anti = T.SpecSpace(points=(0b1, 0b10, 0b100), universe_size=3)
    assert T.is_tree_order(anti) is True


def test_antichain_inverse_discrete(i1):
    assert T.antichain_inverse_discrete(i1, [0, 1]) is True
    assert T.antichain_inverse_discrete(i1, [0]) is True
    with pytest.raises(NotAntichain):
        T.antichain_inverse_discrete(i1, [0, 2])


def test_antichain_discreteness_matches_generated_topology(i1):
    top = T.generate_topology(i1, "inverse")
    for y in ((0, 1), (0,), (1,), (2,)):
        ymask = i1.point_mask(y)
        fast = T.antichain_inverse_discrete(i1, y)
        slow = all(
            any(o >> b & 1 and o & ymask == 1 << b for o in top.opens)
            for b in y
        )
        assert fast == slow == True  # noqa: E712


def test_trace_criterion_identity_witness(i1):
    held, witnesses = T.noetherian_trace_holds(i1, [0, 1])
    assert held is True
    for c, cprime in witnesses.items():
        cl = T.up_set(i1, [c])
        assert set(cl) <= set(cprime)
        assert set(cprime) & {0, 1} == set(cl) & {0, 1}


def test_trace_criterion_on_chain():
    chain = T.SpecSpace(points=(0b1, 0b11, 0b111), universe_size=3)
    held, witnesses = T.noetherian_trace_holds(chain, [1])
    assert held is True
    assert set(witnesses) == {0, 1, 2}


def test_generator_cap():
    space = T.SpecSpace(points=tuple(1 << i for i in range(17)), universe_size=17)
    with pytest.raises(CapExceeded):
        T.generate_topology(space, "spectral")
    T.generate_topology(space, "spectral", cap=17)  # explicit override works


def test_generator_matches_fast_paths_random():
    rng = random.Random(20240811)
    for _ in range(60):
        space = random_spec_space(rng, max_universe=5, max_points=7)
        for kind in T.KINDS:
            top = T.generate_topology(space, kind)
            assert top.opens == T.fast_opens(space, kind)
            assert T.family_is_topology(top.opens, len(space))


def test_family_missing_a_union_meet_or_bound_is_not_a_topology():
    top = T.generate_topology(T.SpecSpace(points=(0b01, 0b10, 0b11), universe_size=2), "spectral")
    opens = set(top.opens)
    assert opens == {0b000, 0b001, 0b010, 0b011, 0b111}
    assert T.family_is_topology(opens, 3)
    for missing in (0b011, 0b000, 0b111):  # the union of 0b001 and 0b010, the empty set, the full set
        assert not T.family_is_topology(opens - {missing}, 3)
    assert not T.family_is_topology({0b000, 0b011, 0b110, 0b111}, 3)  # 0b011 & 0b110 is missing


def pairwise_is_topology(opens, size):
    """Reference: 0 and the full set are members, and every pair's union and meet are too."""
    fam = set(opens)
    full = (1 << size) - 1
    if 0 not in fam or full not in fam:
        return False
    items = sorted(fam)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if a | b not in fam or a & b not in fam:
                return False
    return True


def _closed_under_union_and_meet(masks):
    fam = set(masks)
    while True:
        more = {op(a, b) for a in fam for b in fam for op in (int.__or__, int.__and__)} - fam
        if not more:
            return fam
        fam |= more


FAMILY_SHAPES = ("any", "closed", "closed-minus-one", "closed-without-empty", "closed-without-full")


@st.composite
def mask_families(draw):
    """(shape, masks, size): 1-5 points, and masks that may carry bits at or above size."""
    size = draw(st.integers(min_value=1, max_value=5))
    width = size + draw(st.integers(min_value=0, max_value=2))
    shape = draw(st.sampled_from(FAMILY_SHAPES))
    seeds = draw(st.sets(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=6))
    if shape == "any":
        return shape, seeds, size
    fam = _closed_under_union_and_meet(seeds | {0, (1 << size) - 1})
    if shape == "closed-minus-one":
        fam.discard(draw(st.sampled_from(sorted(fam))))
    elif shape == "closed-without-empty":
        fam.discard(0)
    elif shape == "closed-without-full":
        fam.discard((1 << size) - 1)
    return shape, fam, size


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mask_families())
@example(("any", {0b00, 0b01, 0b10, 0b11}, 1))  # closed, with a bit above the size
# every o | U_i over the points below the size is a member, but 0b101 & 0b110 is not
@example(("any", {0b000, 0b001, 0b010, 0b011, 0b101, 0b110, 0b111}, 2))
def test_family_is_topology_agrees_with_the_pairwise_test(drawn):
    shape, masks, size = drawn
    want = pairwise_is_topology(masks, size)
    assert T.family_is_topology(masks, size) == want
    if shape == "closed":
        assert want
    assert pairwise_is_topology({0b00, 0b01, 0b10, 0b11}, 1)
    assert not pairwise_is_topology({0b000, 0b001, 0b010, 0b100}, 1)


def _closure_by_scan(top, ymask):
    """Definition: the complement of the union of the opens avoiding Y."""
    avoiding = 0
    for o in top.opens:
        if o & ymask == 0:
            avoiding |= o
    return ((1 << top.size) - 1) ^ avoiding


def test_neighbourhoods_closures_and_specialization_match_definitions_random():
    rng = random.Random(20240815)
    for _ in range(40):
        space = random_spec_space(rng, max_universe=5, max_points=7)
        n = len(space)
        for kind in T.KINDS:
            top = T.generate_topology(space, kind)
            for i, u in enumerate(top.neighbourhoods):
                assert u in top.opens and u >> i & 1
                assert all(u & ~o == 0 for o in top.opens if o >> i & 1)
            for ymask in range(space.full_mask + 1):
                assert top.closure_of(ymask) == _closure_by_scan(top, ymask)
            for i in range(n):
                for j in range(n):
                    assert top.specialization_leq(i, j) == all(o >> i & 1 for o in top.opens if o >> j & 1)


def test_specialization_order_matches_inclusion_random():
    rng = random.Random(20240812)
    for _ in range(40):
        space = random_spec_space(rng, max_universe=5, max_points=6)
        top = T.generate_topology(space, "spectral")
        for i in range(len(space)):
            for j in range(len(space)):
                assert top.specialization_leq(i, j) == space.leq(i, j)


def test_closures_match_topology_random():
    rng = random.Random(20240813)
    for _ in range(30):
        space = random_spec_space(rng, max_universe=5, max_points=6)
        tops = {kind: T.generate_topology(space, kind) for kind in T.KINDS}
        for ymask in range(space.full_mask + 1):
            for kind in T.KINDS:
                assert T.closure_mask(space, ymask, kind) == tops[kind].closure_of(ymask)


def test_closed_sets_have_minimal_covers_random():
    rng = random.Random(20240814)
    for _ in range(40):
        space = random_spec_space(rng)
        for y in range(space.full_mask + 1):
            up = T.up_mask(space, y)
            mins = T.min_mask(space, up)
            assert T.up_mask(space, mins) == up
            if up:
                assert mins


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=8, unique=True))
def test_generator_matches_fast_paths_hypothesis(points):
    space = T.SpecSpace(points=tuple(points), universe_size=5)
    for kind in T.KINDS:
        assert T.generate_topology(space, kind).opens == T.fast_opens(space, kind)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=8, unique=True),
    st.integers(min_value=0),
)
def test_up_down_idempotent_and_monotone_hypothesis(points, seed):
    space = T.SpecSpace(points=tuple(points), universe_size=5)
    ymask = seed % (space.full_mask + 1)
    up = T.up_mask(space, ymask)
    down = T.down_mask(space, ymask)
    assert up & ymask == ymask
    assert down & ymask == ymask
    assert T.up_mask(space, up) == up
    assert T.down_mask(space, down) == down
