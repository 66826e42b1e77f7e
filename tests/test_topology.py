"""Topology layer: generator vs order fast paths, closures, order predicates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep.errors import InputError, NotAntichain
from specrep import topology as T
from specrep.setsystems import to_spec_space

from helpers import i1_family, opens_of, random_spec_space, reference_opens


@pytest.fixture
def i1():
    return to_spec_space(i1_family())


def test_points_must_be_distinct():
    with pytest.raises(InputError):
        T.SpecSpace(points=(3, 3), universe_size=2)


def test_i1_spectral_opens_are_the_five_down_sets(i1):
    top = T.generate_topology(i1, "spectral")
    assert top.neighbourhoods == (0b001, 0b010, 0b111)
    assert opens_of(top) == frozenset({0b000, 0b001, 0b010, 0b011, 0b111})


def test_patch_topology_is_discrete(i1):
    top = T.generate_topology(i1, "patch")
    assert top.neighbourhoods == (0b001, 0b010, 0b100)
    assert opens_of(top) == frozenset(range(8))


def test_single_point_space_has_two_opens():
    space = T.SpecSpace(points=(0b1,), universe_size=1)
    for kind in T.KINDS:
        assert opens_of(T.generate_topology(space, kind)) == frozenset({0, 1})


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
    opens = opens_of(T.generate_topology(i1, "inverse"))
    for y in ((0, 1), (0,), (1,), (2,)):
        ymask = i1.point_mask(y)
        fast = T.antichain_inverse_discrete(i1, y)
        slow = all(
            any(o >> b & 1 and o & ymask == 1 << b for o in opens)
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


def _order_neighbourhoods(space, kind):
    """Each kind's smallest open neighbourhoods read off the order: down-sets, up-sets, singletons."""
    if kind == "spectral":
        return space.down
    if kind == "inverse":
        return space.up
    return tuple(1 << i for i in range(len(space)))


def test_generator_matches_fast_paths_random():
    rng = random.Random(20240811)
    for _ in range(60):
        space = random_spec_space(rng, max_universe=5, max_points=7)
        for kind in T.KINDS:
            top = T.generate_topology(space, kind)
            assert top.neighbourhoods == _order_neighbourhoods(space, kind)
            assert opens_of(top) == reference_opens(space, kind)


def _closure_by_scan(opens, size, ymask):
    """Definition: the complement of the union of the opens avoiding Y."""
    avoiding = 0
    for o in opens:
        if o & ymask == 0:
            avoiding |= o
    return ((1 << size) - 1) ^ avoiding


def test_neighbourhoods_closures_and_specialization_match_definitions_random():
    rng = random.Random(20240815)
    for _ in range(40):
        space = random_spec_space(rng, max_universe=5, max_points=7)
        n = len(space)
        for kind in T.KINDS:
            top = T.generate_topology(space, kind)
            opens = reference_opens(space, kind)
            for i, u in enumerate(top.neighbourhoods):
                assert u in opens and u >> i & 1
                assert all(u & ~o == 0 for o in opens if o >> i & 1)
            for ymask in range(space.full_mask + 1):
                assert top.closure_of(ymask) == _closure_by_scan(opens, n, ymask)
            for i in range(n):
                for j in range(n):
                    assert top.specialization_leq(i, j) == all(o >> i & 1 for o in opens if o >> j & 1)


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
        top = T.generate_topology(space, kind)
        assert top.neighbourhoods == _order_neighbourhoods(space, kind)
        assert opens_of(top) == reference_opens(space, kind)


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


def test_element_classes_split_the_mask_by_the_points_lacking_each_element():
    rng = random.Random(2807)
    for _ in range(300):
        size = rng.choice((1, 3, 8, 40))
        points = [rng.getrandbits(size) for _ in range(rng.randint(0, 10))]
        mask = rng.getrandbits(size)
        classes = T._element_classes(points, mask)
        union = 0
        for c, column in classes:
            assert c and not c & union
            union |= c
            for e in T.indices_of(c):
                assert column == sum(1 << i for i, p in enumerate(points) if not p >> e & 1)
        assert union == mask
        assert len({column for _, column in classes}) == len(classes)
    assert T._element_classes([0b01, 0b10], 0) == []


def test_spread_and_alone_match_a_per_point_loop_on_any_relation():
    rng = random.Random(2808)
    for _ in range(300):
        n = rng.randint(1, 10)
        rel = [rng.getrandbits(n) for _ in range(n)]  # not reflexive, nor transitive
        y = rng.getrandbits(n)
        spread = 0
        for j in range(n):
            if y >> j & 1:
                spread |= rel[j]
        assert T._spread(rel, y) == spread
        assert T._alone(rel, y) == sum(1 << j for j in range(n) if y >> j & 1 and rel[j] & y == 1 << j)
