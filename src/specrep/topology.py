"""Finite spectral spaces presented as inclusion posets of point-sets.

A space is a finite family of subsets of a universe, ordered by inclusion.
Three topologies live on it: the spectral topology (opens are the down-sets
of the order), its inverse (opens are the up-sets), and the patch topology
(discrete on finite spaces).  Every topological operation has two routes: a
generator that builds the open family from the definitional subbasis, and an
order-theoretic fast path.  The generator is exponential and therefore
refuses spaces above a configurable point cap.

Points are kept as element bitmasks over the universe; subsets of the point
set are index bitmasks.  Public functions accept and return sorted tuples of
point indices so output order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import CapExceeded, InputError, NotAntichain

SPECTRAL = "spectral"
INVERSE = "inverse"
PATCH = "patch"
KINDS = (SPECTRAL, INVERSE, PATCH)

DEFAULT_GENERATOR_CAP = 16


def _bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def inclusion_order(points) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, down) of element-bitmask points under inclusion.

    up[i] / down[i] are the point-index bitmasks of the points containing /
    contained in point i, itself included.
    """
    up = []
    down = []
    for pi in points:
        u = d = 0
        for j, pj in enumerate(points):
            if pi & ~pj == 0:
                u |= 1 << j
            if pj & ~pi == 0:
                d |= 1 << j
        up.append(u)
        down.append(d)
    return tuple(up), tuple(down)


@dataclass(frozen=True)
class SpecSpace:
    """A finite family of distinct point-sets with its inclusion order.

    points holds one element-bitmask per point, in input order; equal
    point-sets are rejected, not merged.  universe_size bounds the element
    indices.  The derived fields up[i] / down[i] are point-index bitmasks of
    the points above / below point i (inclusive), which realize the
    specialization order of the spectral topology.
    """

    points: tuple[int, ...]
    universe_size: int
    up: tuple[int, ...] = field(init=False, compare=False, repr=False)
    down: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.points)
        if n == 0:
            raise InputError("a space needs at least one point")
        limit = 1 << self.universe_size
        seen = set()
        for p in self.points:
            if not 0 <= p < limit:
                raise InputError("point-set out of universe range")
            if p in seen:
                raise InputError("points must be pairwise distinct as sets")
            seen.add(p)
        up, down = inclusion_order(self.points)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def leq(self, i: int, j: int) -> bool:
        """Inclusion order: point i below point j."""
        return bool(self.up[i] >> j & 1)

    def point_mask(self, ys: Iterable[int]) -> int:
        m = 0
        n = len(self.points)
        for i in ys:
            if not 0 <= i < n:
                raise InputError(f"point index {i} out of range")
            m |= 1 << i
        return m


def _meets_around(opens: Iterable[int]) -> dict[int, int]:
    """Point -> AND of the given sets that contain it, for every point some set contains."""
    meets: dict[int, int] = {}
    for o in opens:
        for i in _bits(o):
            meets[i] = meets.get(i, o) & o
    return meets


@dataclass(frozen=True)
class Topology:
    """An explicit open-set family on the point index set.

    opens is closed under binary union and intersection and contains the
    empty set and the full set; origin tags which of the three standard
    topologies it is.  Since finite meets of opens are open, each point has a
    smallest open neighbourhood (the topology is Alexandrov), and closures
    and the specialization order are read from these.
    """

    size: int
    origin: str
    opens: frozenset[int]

    @cached_property
    def meets(self) -> dict[int, int]:
        """Point -> AND of the opens around it, one pass read by both
        neighbourhoods and family_is_topology, and kept.

        Not a field: equality, hashing and repr still see only the three
        fields above.
        """
        return _meets_around(self.opens)

    @cached_property
    def neighbourhoods(self) -> tuple[int, ...]:
        """U_i, the AND of the opens containing point i, kept.

        U_i is open because finite meets of opens are open, so it is the
        smallest open around i.
        """
        full = (1 << self.size) - 1
        return tuple(self.meets.get(i, full) for i in range(self.size))

    def closure_of(self, ymask: int) -> int:
        """Smallest closed superset of Y: the points whose smallest open neighbourhood meets Y.

        A point lies outside the closure when some open around it avoids Y;
        every open around i contains U_i, and U_i is itself open (finite
        meets of opens are open), so that happens exactly when U_i avoids Y.
        """
        m = 0
        for i, u in enumerate(self.neighbourhoods):
            if u & ymask:
                m |= 1 << i
        return m

    def specialization_leq(self, i: int, j: int) -> bool:
        """i <= j when j lies in the closure of {i}: opens around j all contain i.

        All of them contain i exactly when their AND U_j does; that U_j is the
        smallest open around j (finite meets of opens are open) makes this
        the same order that closure_of gives.
        """
        return bool(self.neighbourhoods[j] >> i & 1)


def family_is_topology(opens: Iterable[int], size: int, meets: dict[int, int] | None = None) -> bool:
    """Check closure under binary union/intersection plus empty and full set.

    Let U_i be the AND of the members containing point i, over every point
    some member contains.  Each member is the union of the U_i of its points,
    and the meet of two members the union of the U_i of their common points.
    So when 0 and every o | U_i (o a member) are members, repeated unions
    give every union and meet of members; conversely, a family closed under
    both holds each U_i (a finite meet of members: finite meets of opens are
    open) and each o | U_i.  The test is O(|opens| * points), not one pass
    over every pair of opens.  meets, when given, must be _meets_around of
    the opens (a Topology's `meets`), so the pass is not made twice.
    """
    fam = frozenset(opens)
    if 0 not in fam or (1 << size) - 1 not in fam:
        return False
    around = (_meets_around(fam) if meets is None else meets).values()
    return all(o | u in fam for o in fam for u in around)


@lru_cache(maxsize=1)
def _span_from_subbasis(seeds: tuple[int, ...], n: int) -> frozenset[int]:
    """Open family generated by a subbasis: unions of finite intersections.

    Memoised on the last call, so the inverse kind reuses the span the
    spectral kind of the same space just built.
    """
    full = (1 << n) - 1
    seeds = set(seeds)
    basis = {full}
    frontier = [full]
    while frontier:
        fresh = []
        for b in frontier:
            for s in seeds:
                t = b & s
                if t not in basis:
                    basis.add(t)
                    fresh.append(t)
        frontier = fresh
    by_point: list[list[int]] = [[] for _ in range(n)]
    for s in basis:
        for b in _bits(s):
            by_point[b].append(s)
    opens = {0}
    for cand in range(1, full + 1):
        for b in _bits(cand):
            if not any(s & ~cand == 0 for s in by_point[b]):
                break
        else:
            opens.add(cand)
    return frozenset(opens)


def spectral_subbasis(space: SpecSpace) -> list[int]:
    """The distinct subbasic opens, in increasing order.

    The subbasic open of a universe element is the set of points not
    containing it.  Elements lying in exactly the same points give the same
    open, so the universe mask is split by every point into element classes,
    each carrying the points it missed so far: the loop runs once per class
    and point, however many elements the universe has.
    """
    classes = [((1 << space.universe_size) - 1, 0)] if space.universe_size else []
    for i, p in enumerate(space.points):
        split = []
        for b, column in classes:
            inside = b & p
            if inside:
                split.append((inside, column))
            if inside != b:
                split.append((b ^ inside, column | 1 << i))
        classes = split
    return sorted({column for _, column in classes})


def generate_topology(space: SpecSpace, kind: str, cap: int = DEFAULT_GENERATOR_CAP) -> Topology:
    """Build a topology from its definitional subbasis.

    spectral: generated by the hull-kernel subbasis; inverse: the spectral
    opens act as a basis of closed sets, so its opens are their complements;
    patch: generated by the subbasic opens together with their complements.

    Raises CapExceeded above `cap` points, since the open family can be
    exponential; callers beyond the cap should use the order fast paths
    (up_set / down_set / closure).
    """
    if kind not in KINDS:
        raise InputError(f"unknown topology kind: {kind!r}")
    n = len(space)
    if n > cap:
        raise CapExceeded(
            f"topology generation over {n} points exceeds the cap of {cap}; "
            "use the order-theoretic fast paths instead"
        )
    full = space.full_mask
    sub = tuple(spectral_subbasis(space))
    if kind == PATCH:
        opens = _span_from_subbasis(sub + tuple(full ^ s for s in sub), n)
    else:
        opens = _span_from_subbasis(sub, n)
        if kind == INVERSE:
            opens = frozenset(full ^ o for o in opens)
    return Topology(size=n, origin=kind, opens=opens)


def fast_opens(space: SpecSpace, kind: str) -> frozenset[int]:
    """Order-theoretic characterization of the same open family.

    spectral opens are exactly the down-sets, inverse opens the up-sets, and
    the patch topology is discrete.  Enumerates all subsets, so it is only
    meant for spaces small enough to cross-check the generator.
    """
    if kind not in KINDS:
        raise InputError(f"unknown topology kind: {kind!r}")
    n = len(space)
    full = space.full_mask
    if kind == PATCH:
        return frozenset(range(full + 1))
    rel = space.down if kind == SPECTRAL else space.up
    out = []
    for m in range(full + 1):
        for i in _bits(m):
            if rel[i] & ~m:
                break
        else:
            out.append(m)
    return frozenset(out)


def up_mask(space: SpecSpace, ymask: int) -> int:
    m = 0
    for i in _bits(ymask):
        m |= space.up[i]
    return m


def down_mask(space: SpecSpace, ymask: int) -> int:
    m = 0
    for i in _bits(ymask):
        m |= space.down[i]
    return m


def min_mask(space: SpecSpace, ymask: int) -> int:
    """Members of Y with no other member of Y strictly below them."""
    m = 0
    for i in _bits(ymask):
        if space.down[i] & ymask == 1 << i:
            m |= 1 << i
    return m


def max_mask(space: SpecSpace, ymask: int) -> int:
    m = 0
    for i in _bits(ymask):
        if space.up[i] & ymask == 1 << i:
            m |= 1 << i
    return m


def up_set(space: SpecSpace, ys: Iterable[int]) -> tuple[int, ...]:
    """All points above some member of Y (inclusive); empty Y gives empty."""
    return indices_of(up_mask(space, space.point_mask(ys)))


def down_set(space: SpecSpace, ys: Iterable[int]) -> tuple[int, ...]:
    """All points below some member of Y (inclusive); empty Y gives empty."""
    return indices_of(down_mask(space, space.point_mask(ys)))


def min_elements(space: SpecSpace, ys: Iterable[int]) -> tuple[int, ...]:
    return indices_of(min_mask(space, space.point_mask(ys)))


def max_elements(space: SpecSpace, ys: Iterable[int]) -> tuple[int, ...]:
    return indices_of(max_mask(space, space.point_mask(ys)))


def closure_mask(space: SpecSpace, ymask: int, kind: str) -> int:
    if kind == SPECTRAL:
        return up_mask(space, ymask)
    if kind == INVERSE:
        return down_mask(space, ymask)
    if kind == PATCH:
        return ymask
    raise InputError(f"unknown topology kind: {kind!r}")


def closure(space: SpecSpace, ys: Iterable[int], kind: str) -> tuple[int, ...]:
    """Topological closure of Y.

    The spectral closure is the up-set of Y, the inverse closure the
    down-set, and the patch closure is Y itself (finite spaces have discrete
    patch topology).  Agrees with Topology.closure_of on the generated
    topology whenever the space is under the generator cap.
    """
    return indices_of(closure_mask(space, space.point_mask(ys), kind))


def is_antichain(space: SpecSpace, ymask: int) -> bool:
    for i in _bits(ymask):
        if (space.up[i] | space.down[i]) & ymask != 1 << i:
            return False
    return True


def antichain_inverse_discrete(space: SpecSpace, ys: Iterable[int]) -> bool:
    """Whether each member of the antichain Y is inverse-isolated within Y.

    The up-set of y is inverse-open and meets the antichain only at y, so on
    a finite space this always holds; generating the inverse topology and
    checking isolation directly gives the same answer (tested).  Raises
    NotAntichain when Y has comparable members.
    """
    ymask = space.point_mask(ys)
    if not is_antichain(space, ymask):
        raise NotAntichain("the given points are not pairwise incomparable")
    for i in _bits(ymask):
        if space.up[i] & ymask != 1 << i:
            return False
    return True


def is_tree_order(space: SpecSpace) -> bool:
    """True when the points below any fixed point form a chain."""
    for i in range(len(space)):
        below = tuple(_bits(space.down[i]))
        for a in range(len(below)):
            for b in range(a + 1, len(below)):
                x, y = below[a], below[b]
                if not (space.leq(x, y) or space.leq(y, x)):
                    return False
    return True


def noetherian_trace_holds(space: SpecSpace, ys: Iterable[int]) -> tuple[bool, dict[int, tuple[int, ...]]]:
    """Trace criterion for Noetherian subspaces, witnessed constructively.

    For each point c, the irreducible closed set through c is its up-set Cl;
    the witness produced is the largest closed set C' containing Cl whose
    Y-trace equals that of Cl, namely Cl united with the complement of the
    down-set of Y \\ Cl; that down-set holds Y \\ Cl itself (the order is
    reflexive), so the traces agree by construction.  Finite spaces always
    satisfy the criterion (every open is quasicompact), so the verdict is
    True; the value of the operation is the witness map c -> C'.
    """
    ymask = space.point_mask(ys)
    full = space.full_mask
    witnesses: dict[int, tuple[int, ...]] = {}
    for c in range(len(space)):
        cl = space.up[c]
        witnesses[c] = indices_of(cl | (full ^ down_mask(space, ymask & ~cl)))
    return True, witnesses
