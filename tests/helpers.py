"""Shared fixture builders for the test suite."""

import random
import string

from specrep import rings
from specrep.setsystems import ContextTriple, PointFamily, validate_representation
from specrep.topology import SpecSpace


def random_spec_space(rng: random.Random, max_universe: int = 6, max_points: int = 10) -> SpecSpace:
    n = rng.randint(1, max_universe)
    full = (1 << n) - 1
    want = rng.randint(1, max_points)
    points = set()
    while len(points) < want:
        points.add(rng.randint(0, full))
        if len(points) >= full + 1:
            break
    return SpecSpace(points=tuple(sorted(points)), universe_size=n)


def random_representation_family(
    rng: random.Random, max_universe: int = 6, max_points: int = 10
) -> PointFamily:
    """A random valid C-representation with |D| <= max_universe, |X| <= max_points."""
    n = rng.randint(1, max_universe)
    universe = string.ascii_lowercase[:n]
    c_size = rng.randint(1, n)
    c_elems = rng.sample(range(n), c_size)
    cmask = sum(1 << i for i in c_elems)
    a_elems = rng.sample(c_elems, rng.randint(0, c_size - 1))
    amask = sum(1 << i for i in a_elems)
    ctx = ContextTriple(tuple(universe), cmask, amask)

    rest = [i for i in range(n) if not amask >> i & 1]
    need = [i for i in c_elems if not amask >> i & 1]
    members: list[int] = []
    seen = set()
    budget = max(1, max_points - len(need))
    for _ in range(rng.randint(1, budget)):
        m = amask
        for i in rest:
            if rng.random() < 0.5:
                m |= 1 << i
        if m not in seen:
            seen.add(m)
            members.append(m)
    for c in need:
        if all(m >> c & 1 for m in members):
            # every current member contains c and this one avoids it, so no
            # collision is possible
            m = amask
            for i in rest:
                if i != c and rng.random() < 0.4:
                    m |= 1 << i
            assert m not in seen
            seen.add(m)
            members.append(m)
    family = PointFamily(
        context=ctx,
        names=tuple(f"P{i+1}" for i in range(len(members))),
        members=tuple(members),
    )
    ok, _ = validate_representation(family)
    assert ok, "random family construction must yield a representation"
    return family


def family_from(universe, fixed, target, points) -> PointFamily:
    ctx = ContextTriple.from_labels(universe, fixed, target)
    return PointFamily.from_labels(ctx, points)


I1 = dict(
    universe="abc",
    fixed="abc",
    target="a",
    points={"B1": "ab", "B2": "ac", "B3": "abc"},
)


def i1_family() -> PointFamily:
    return family_from(I1["universe"], I1["fixed"], I1["target"], I1["points"])


def element_irr_space(ring, ideal, points: str = "irreducible") -> PointFamily:
    """build_irr_space spelled out on ring elements, the reference for its zmod quotient.

    The universe is the n elements with decimal labels, C all of them, and
    the target and every member the element set of its ideal.
    """
    if points == "irreducible":
        members = rings.irreducibles_over(ring, ideal)
    else:
        members = [b for b in rings.enumerate_ideals(ring, "prime") if rings.ideal_le(ideal, b)]

    def mask(b):
        return sum(1 << e for e in b.element_set())

    ctx = ContextTriple(tuple(str(x) for x in range(ring.size)), (1 << ring.size) - 1, mask(ideal))
    return PointFamily(ctx, tuple(b.name for b in members), tuple(mask(b) for b in members))


def collapse_to_atoms(family: PointFamily, separators) -> PointFamily:
    """The quotient of a family by its atoms, ordered and labelled by least element.

    An atom is a class of universe elements lying in the same separators
    (element masks); the members, C and A must each be a union of atoms.
    Atom i of the quotient is the i-th atom by least element.
    """
    ctx = family.context
    blocks = [ctx.full_mask]
    for s in separators:
        blocks = [part for b in blocks for part in (b & s, b & ~s) if part]
    blocks.sort(key=lambda b: b & -b)

    def quotient(mask):
        out = 0
        for i, block in enumerate(blocks):
            inside = mask & block
            assert inside in (0, block), "a set of the family splits an atom"
            if inside:
                out |= 1 << i
        return out

    labels = tuple(ctx.universe[(b & -b).bit_length() - 1] for b in blocks)
    qctx = ContextTriple(labels, quotient(ctx.fixed_mask), quotient(ctx.target_mask))
    return PointFamily(qctx, family.names, tuple(quotient(m) for m in family.members))
