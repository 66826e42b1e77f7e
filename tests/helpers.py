"""Shared fixture builders and definition-level references for the test suite."""

import functools
import math
import random
import string

from hypothesis import strategies as st

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


@st.composite
def families_of_size(draw, n):
    """A valid C-representation of exactly n points, 1 <= n <= 16.

    At least four universe elements lie outside A, so n members that differ
    outside A exist.  If the drawn members meet above A inside C, the last
    one drops the surplus, which every other member holds.
    """
    u = draw(st.integers(min_value=4, max_value=7))
    full = (1 << u) - 1
    fixed = draw(st.integers(min_value=1, max_value=full))
    target = draw(st.integers(min_value=0, max_value=full)) & fixed
    if target == fixed:
        target &= target - 1
    while (full & ~target).bit_count() < 4:
        target &= target - 1
    drawn = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=n, max_size=n,
                          unique_by=lambda m: m | target))
    members = [m | target for m in drawn]
    extra = functools.reduce(int.__and__, members) & fixed & ~target
    members[-1] &= ~extra
    ctx = ContextTriple(tuple("abcdefg"[:u]), fixed, target)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(n)), tuple(members))


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

    def intersection(self, zmask):
        m = self.family.context.full_mask
        for i in range(self.n):
            if zmask >> i & 1:
                m &= self.family.members[i]
        return m

    def represents(self, zmask):
        return self.intersection(zmask) & self.fixed == self.target

    def closure(self, zmask):
        """The points at or above a chosen point; zmask is an up-set iff this equals it."""
        return sum(1 << j for j in range(self.n)
                   if any(zmask >> i & 1 and self.leq[i][j] for i in range(self.n)))

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

    def irredundant(self):
        """Masks of the subfamilies that represent and stop representing when any one member is dropped."""
        return [z for z in range(1 << self.n) if self.represents(z)
                and not any(self.represents(z & ~(1 << b)) for b in range(self.n) if z >> b & 1)]


def bfs_table_ideals(ring):
    """Every ideal of a table ring by growing each ideal by (r) for every element r outside it.

    The reference for rings._all_table_ideals, which grows by distinct
    principal ideals only.
    """
    principal = [frozenset(ring.mul[r][s] for s in range(ring.size)) for r in range(ring.size)]
    start = frozenset({ring.zero})
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ideal in frontier:
            for r in range(ring.size):
                if r in ideal:
                    continue
                grown = frozenset(ring.add[a][b] for a in ideal for b in principal[r])
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return tuple(sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))))


def pairwise_strongly_irreducible(n: int, d: int) -> bool:
    """(d) strongly irreducible in zmod(n) by every pair of divisors e, f of n.

    The reference for rings._zmod_strongly_irreducible, which tests only
    the maximal divisors that d does not divide.
    """
    divs = rings.divisors_of(n)
    for e in divs:
        for f in divs:
            if (e * f // math.gcd(e, f)) % d == 0 and e % d != 0 and f % d != 0:
                return False
    return True
