"""Ambient data for representations: a universe D, a fixed set C, a target A.

A point family is a list of named subsets of D.  It is a C-representation of
A when the intersection of its members, cut down to C, equals A.  Element
labels are opaque strings mapped to indices once; all set arithmetic happens
on index bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError, NotARepresentation
from .topology import SpecSpace, indices_of


@dataclass(frozen=True)
class ContextTriple:
    """The triple A within C within D; A must be a proper subset of C."""

    universe: tuple[str, ...]
    fixed_mask: int
    target_mask: int

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise InputError("universe labels must be distinct")
        full = self.full_mask
        if not 0 <= self.fixed_mask <= full:
            raise InputError("C must be a subset of the universe")
        if self.target_mask & ~self.fixed_mask:
            raise InputError("A must be a subset of C")
        if self.target_mask == self.fixed_mask:
            raise InputError("A must be a proper subset of C")

    @classmethod
    def from_labels(cls, universe: Iterable[str], fixed: Iterable[str], target: Iterable[str]) -> "ContextTriple":
        uni = tuple(universe)
        index = {lab: i for i, lab in enumerate(uni)}
        if len(index) != len(uni):
            raise InputError("universe labels must be distinct")

        def mask(labels, what):
            m = 0
            for lab in labels:
                if lab not in index:
                    raise InputError(f"{what} contains {lab!r}, which is not in the universe")
                m |= 1 << index[lab]
            return m

        ctx = cls(uni, mask(fixed, "C"), mask(target, "A"))
        vars(ctx)["_index"] = index  # seeds the cached property below
        return ctx

    @property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        """Label -> index, built on first use by element_mask.

        Not a field: equality, hashing and repr still see only the three
        fields above.
        """
        return dict(zip(self.universe, range(len(self.universe))))

    def element_mask(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            try:
                m |= 1 << self._index[lab]
            except KeyError:
                raise InputError(f"unknown element label {lab!r}") from None
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple([self.universe[i] for i in indices_of(mask)])


@dataclass(frozen=True)
class PointFamily:
    """Named point-sets over a context, the raw material of representations."""

    context: ContextTriple
    names: tuple[str, ...]
    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.members):
            raise InputError("names and members must align")
        if len(set(self.names)) != len(self.names):
            raise InputError("point names must be distinct")
        full = self.context.full_mask
        seen: dict[int, str] = {}
        for name, m in zip(self.names, self.members):
            if not 0 <= m <= full:
                raise InputError(f"point {name!r} is not a subset of the universe")
            if m in seen:
                raise InputError(f"points {seen[m]!r} and {name!r} are equal as sets")
            seen[m] = name

    @classmethod
    def from_labels(cls, context: ContextTriple, points: Mapping[str, Iterable[str]]) -> "PointFamily":
        names = tuple(points)
        members = tuple(context.element_mask(labels) for labels in points.values())
        return cls(context, names, members)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def space(self) -> SpecSpace:
        """The members ordered by inclusion, built on first use and kept.

        Not a field: equality, hashing and repr still see only the three
        fields above.
        """
        return to_spec_space(self)

    def member_labels(self, i: int) -> tuple[str, ...]:
        return self.context.labels_of(self.members[i])


def intersection_mask(family: PointFamily, points_mask: int) -> int:
    """Intersection of the chosen members; the empty choice intersects to D."""
    m = family.context.full_mask
    members = family.members
    while points_mask:
        low = points_mask & -points_mask
        m &= members[low.bit_length() - 1]
        points_mask ^= low
    return m


def represents_mask(family: PointFamily, points_mask: int) -> bool:
    ctx = family.context
    return intersection_mask(family, points_mask) & ctx.fixed_mask == ctx.target_mask


def validate_representation(family: PointFamily) -> tuple[bool, str | None]:
    """Whether the whole family is a C-representation of A.

    On failure, also returns an element label from the symmetric difference
    of the achieved set and the target; the least such label in universe
    order is chosen so the output is reproducible.
    """
    ctx = family.context
    achieved = intersection_mask(family, (1 << len(family)) - 1) & ctx.fixed_mask
    diff = achieved ^ ctx.target_mask
    if diff == 0:
        return True, None
    low = (diff & -diff).bit_length() - 1
    return False, ctx.universe[low]


def require_representation(family: PointFamily) -> None:
    """Raise NotARepresentation with a targeted message when validation fails."""
    ctx = family.context
    for name, m in zip(family.names, family.members):
        if ctx.target_mask & ~m:
            missing = ctx.labels_of(ctx.target_mask & ~m)[0]
            raise NotARepresentation(
                f"member {name!r} does not contain the target (missing {missing!r})",
                witness=missing,
            )
    ok, witness = validate_representation(family)
    if not ok:
        raise NotARepresentation(
            f"the family does not intersect to the target; {witness!r} separates them",
            witness=witness,
        )


def hull_kernel_sets(family: PointFamily, f_labels: Iterable[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the members by an element set F: (not containing F, containing F)."""
    fmask = family.context.element_mask(f_labels)
    u = v = 0
    for i, m in enumerate(family.members):
        if fmask & ~m:
            u |= 1 << i
        else:
            v |= 1 << i
    return indices_of(u), indices_of(v)


def to_spec_space(family: PointFamily) -> SpecSpace:
    """View the members as a spectral space ordered by inclusion (cached as family.space)."""
    return SpecSpace(points=family.members, universe_size=len(family.context.universe))
