"""Finite spectral spaces presented as inclusion posets of point-sets.

A space is a finite family of subsets of a universe, ordered by inclusion.
Three topologies live on it: the spectral topology (opens are the down-sets
of the order), its inverse (opens are the up-sets), and the patch topology
(discrete on finite spaces).  Every topological operation has two routes: a
generator that builds each point's smallest open neighbourhood from the
definitional subbasis, and an order-theoretic fast path.  Both are
polynomial in the number of points; no route enumerates the opens.

Points are kept as element bitmasks over the universe; subsets of the point
set are index bitmasks.  Public functions accept and return sorted tuples of
point indices so output order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import InputError, NotAntichain

SPECTRAL = "spectral"
INVERSE = "inverse"
PATCH = "patch"
KINDS = (SPECTRAL, INVERSE, PATCH)


def _bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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

    @cached_property
    def _up_tables(self) -> tuple[tuple[int, ...], ...]:
        return _chunk_tables(self.up)

    @cached_property
    def _down_tables(self) -> tuple[tuple[int, ...], ...]:
        return _chunk_tables(self.down)

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
    """A finite topology on the point index set, held as its neighbourhood vector.

    neighbourhoods[i] is U_i, the smallest open around point i; origin tags
    which of the three standard topologies it is.  A finite topology is
    Alexandrov, so the U_i fix it: the opens are exactly the unions of
    them.  Closures and the specialization order are read from them.
    """

    size: int
    origin: str
    neighbourhoods: tuple[int, ...]

    @cached_property
    def _column_tables(self) -> tuple[tuple[int, ...], ...]:
        """The chunk tables of the columns: columns[j] holds the points i whose U_i holds point j."""
        columns = [0] * self.size
        for i, u in enumerate(self.neighbourhoods):
            for j in _bits(u & (1 << self.size) - 1):
                columns[j] |= 1 << i
        return _chunk_tables(columns)

    def closure_of(self, ymask: int) -> int:
        """Smallest closed superset of Y: the points whose smallest open neighbourhood meets Y.

        A point lies outside the closure when some open around it avoids Y;
        every open around i contains U_i, and U_i is itself open, so that
        happens exactly when U_i avoids Y.  The closure is the OR of the
        columns of the points of Y, read from the chunk tables kept on the
        topology.  A bit of Y at or past the size raises InputError.
        """
        return _or_rows(self._column_tables, self.size, ymask)

    def specialization_leq(self, i: int, j: int) -> bool:
        """i <= j when j lies in the closure of {i}: opens around j all contain i.

        All of them contain i exactly when the smallest one, U_j, does, so
        this is the same order that closure_of gives.
        """
        return bool(self.neighbourhoods[j] >> i & 1)


def _element_classes(points, mask: int) -> list[tuple[int, int]]:
    """The elements of mask split by the points that lack them: [(class mask, the points lacking it)].

    Split by every point in turn, so the loop runs once per class and point,
    however many elements the mask has.  The columns are distinct.
    """
    classes = [(mask, 0)] if mask else []
    for i, p in enumerate(points):
        bit = 1 << i
        split = []
        for c, column in classes:
            kept = c & p
            if kept:
                split.append((kept, column))
            if kept != c:
                split.append((c ^ kept, column | bit))
        classes = split
    return classes


def spectral_subbasis(space: SpecSpace) -> list[int]:
    """The distinct subbasic opens, in increasing order.

    The subbasic open of a universe element is the set of points not
    containing it, so elements lying in exactly the same points give the
    same open: one per element class of the universe.
    """
    return sorted(column for _, column in _element_classes(space.points, (1 << space.universe_size) - 1))


def generate_topology(space: SpecSpace, kind: str) -> Topology:
    """Build a topology from its definitional subbasis, as its neighbourhood vector.

    The seeds are the subbasic opens S for the spectral kind, their
    complements for the inverse kind, and both for the patch kind.  The
    opens are the unions of finite meets of seeds, so the smallest open U_i
    around point i is the AND of the seeds that contain i (all points when
    none does).  These U_i always form a topology: i lies in U_i, and when
    j lies in U_i every seed around i holds j, so U_j is inside U_i; no
    closure test is made.  The cost is O(|S| * points), with no
    enumeration of the opens.
    """
    if kind not in KINDS:
        raise InputError(f"unknown topology kind: {kind!r}")
    full = space.full_mask
    sub = spectral_subbasis(space)
    complements = [full ^ s for s in sub]
    seeds = sub if kind == SPECTRAL else complements if kind == INVERSE else sub + complements
    meets = _meets_around(seeds)
    n = len(space)
    return Topology(size=n, origin=kind, neighbourhoods=tuple(meets.get(i, full) for i in range(n)))


def _chunk_tables(rel) -> tuple[tuple[int, ...], ...]:
    """tables[c][k]: the OR of rel[4c + j] over the bits j of k, one table per 4 points."""
    tables = []
    for c in range(0, len(rel), 4):
        row = [0]
        for r in rel[c:c + 4]:
            row += [v | r for v in row]
        tables.append(tuple(row))
    return tuple(tables)


def _out_of_range(n: int, ymask: int) -> InputError:
    high = ymask >> n
    return InputError(f"point index {n + (high & -high).bit_length() - 1} out of range")


def _or_rows(tables, n: int, ymask: int) -> int:
    """The OR of the rows of an n-point relation at the points of ymask, one table entry per 4 points."""
    if ymask >> n:
        raise _out_of_range(n, ymask)
    m = 0
    for row in tables:
        m |= row[ymask & 15]
        ymask >>= 4
    return m


def _alone(rel, y: int) -> int:
    """The points j of y that y meets in rel[j] at j alone."""
    m = 0
    rest = y
    while rest:
        low = rest & -rest
        if rel[low.bit_length() - 1] & y == low:
            m |= low
        rest ^= low
    return m


def up_mask(space: SpecSpace, ymask: int) -> int:
    return _or_rows(space._up_tables, len(space.points), ymask)


def down_mask(space: SpecSpace, ymask: int) -> int:
    return _or_rows(space._down_tables, len(space.points), ymask)


def min_mask(space: SpecSpace, ymask: int) -> int:
    """Members of Y with no other member of Y strictly below them."""
    return _alone(space.down, ymask)


def max_mask(space: SpecSpace, ymask: int) -> int:
    return _alone(space.up, ymask)


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
        if ymask >> len(space.points):
            raise _out_of_range(len(space.points), ymask)
        return ymask
    raise InputError(f"unknown topology kind: {kind!r}")


def closure(space: SpecSpace, ys: Iterable[int], kind: str) -> tuple[int, ...]:
    """Topological closure of Y.

    The spectral closure is the up-set of Y, the inverse closure the
    down-set, and the patch closure is Y itself (finite spaces have discrete
    patch topology).  Agrees with Topology.closure_of on the generated
    topology.
    """
    return indices_of(closure_mask(space, space.point_mask(ys), kind))


def is_antichain(space: SpecSpace, ymask: int) -> bool:
    return _alone([u | d for u, d in zip(space.up, space.down)], ymask) == ymask


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
    return _alone(space.up, ymask) == ymask


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
    down-set of Y \\ Cl, so it holds Cl whatever the order.  The verdict
    checks the two legs that can fail: C' is closed (an up-set of the order)
    and has the same trace on Y as Cl.  On a partial order both hold by
    construction, as finite spaces always satisfy the criterion (every open
    is quasicompact); an order that is not reflexive or not transitive can
    break them.
    """
    ymask = space.point_mask(ys)
    full = space.full_mask
    held = True
    witnesses: dict[int, tuple[int, ...]] = {}
    for c in range(len(space)):
        cl = space.up[c]
        cprime = cl | (full ^ down_mask(space, ymask & ~cl))
        closed = not up_mask(space, cprime) & ~cprime
        held = held and closed and cprime & ymask == cl & ymask
        witnesses[c] = indices_of(cprime)
    return held, witnesses
