"""Irredundance classification for point families.

Everything here works on a validated C-representation: which members can be
dropped, which can be replaced by the sets above them, which belong to every
closed representation, and how the minimal representations look.  Each fast
path has a brute-force oracle next to it; the oracles recompute intersections
from scratch so the two routes stay independent.

Fast paths used throughout (both consequences of the fact that enlarging a
subfamily can only shrink the intersection, never below the target):

* a member B is strongly irredundant in Z exactly when swapping B for all
  points strictly above it breaks the representation, because every proper
  closed subset of the cone over B sits inside that maximal candidate;
* B is critical exactly when the largest up-set avoiding B, the complement
  of the down-set of B, fails to represent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate
from operator import and_, or_

from .errors import CapExceeded, ConsistencyError, NotARepresentation
from .setsystems import PointFamily, intersection_mask, represents_mask, require_representation
from .topology import INVERSE, PATCH, SPECTRAL, _alone, _bits, _element_classes, indices_of, min_mask

DEFAULT_POINT_CAP = 20

# POINT_CAP_CEILING bounds every cap.  Within it the exhaustive routes are
# bit-sliced: the oracles' scan and the theorem suite's checks each hold about
# n + 7 integers of 2^n bits at a time (see point_slices), (n + 7) * 2^(n - 3)
# bytes, 62 MB at 24 points.  The minimal-closed search holds no frontier (a
# few masks per level, at most n levels) and the analysis's own intersection
# table is two half tables (SplitTable), 2^12 + 2^12 entries at 24 points.
# On setsys_instance(24, 40, 0.3) of the benchmark with --cap-points 24,
# check-theorems took 1.5-2.3 s at 161 MB max RSS and critical --oracle
# 0.6-0.9 s at 82 MB on a shared 2-vCPU host; each further point doubles
# both.  The zr-check sweep has its own bound, zrdesk.POOL_BOUND, derived
# from ENUMERATION_BUDGET.
ENUMERATION_BUDGET = 1 << 30
POINT_CAP_CEILING = 24


def _require_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceeded(f"{what} over {n} points exceeds the cap of {cap}")


@lru_cache(maxsize=8)
def upset_masks(up: tuple[int, ...]) -> tuple[int, ...]:
    """All up-set masks of the order given by its up-masks, ascending.

    Grown point by point along a linear extension from the top (a point
    has fewer points above it than each point below it, so sorting by the
    size of the up-set gives one): an up-set of the points placed so far
    that holds every point above the next one stays an up-set with it
    added, so every candidate is kept.  The cost is about n steps per
    up-set found (2^n up-sets only for an antichain) plus the final sort;
    cap before calling.
    """
    out = [0]
    for p in sorted(range(len(up)), key=[u.bit_count() for u in up].__getitem__):
        bit = 1 << p
        above = up[p] ^ bit
        out += [y | bit for y in out if not above & ~y]
    out.sort()
    return tuple(out)


def subset_intersections(full: int, members) -> list[int]:
    """inter[s] = intersection of the members chosen by submask s (empty -> full).

    Built by doubling, one member at a time.
    """
    inter = [full]
    for m in members:
        inter += [x & m for x in inter]
    return inter


class SplitTable:
    """The intersections of every subfamily, held as two half tables.

    lo is subset_intersections over the first h members and hi over the
    rest, so the intersection chosen by mask s is lo[s & (2^h - 1)] &
    hi[s >> h]: 2^h + 2^(n - h) entries in place of 2^n.  The mask stages
    read lo and hi inline, since a call per read costs more than the read.
    h is n // 2.  len() is the number of entries.
    """

    __slots__ = ("lo", "hi", "h")

    def __init__(self, full: int, members):
        h = self.h = len(members) // 2
        self.lo = subset_intersections(full, members[:h])
        self.hi = subset_intersections(full, members[h:])

    def __len__(self) -> int:
        return len(self.lo) + len(self.hi)

    def __getitem__(self, s: int) -> int:
        return self.lo[s & len(self.lo) - 1] & self.hi[s >> self.h]


@lru_cache(maxsize=1)
def intersection_table(family: PointFamily) -> SplitTable:
    """The family's SplitTable over D.

    Memoised for the last family so that every analysis of one family shares
    one build; do not mutate it.
    """
    return SplitTable(family.context.full_mask, family.members)


@dataclass(frozen=True)
class MemberClassification:
    """Per-member verdicts for one member B of a chosen representation Z."""

    point: int
    name: str
    irredundant: bool
    strongly_irredundant: bool
    tightly_irredundant: bool
    isolated_spectral: bool
    isolated_patch: bool
    witness_irredundant: str | None
    witness_strong: str | None


def _least_witness(family: PointFamily, gained: int) -> str | None:
    if gained == 0:
        return None
    low = (gained & -gained).bit_length() - 1
    return family.context.universe[low]


def _member_gains(inter, up, zmask: int, b: int, fixed: int, target: int) -> tuple[int, int]:
    """What the intersection gains inside C when member b leaves Z, as (gained, gained_strong).

    inter(mask) intersects the chosen members.  gained drops b: b is
    irredundant iff it is nonzero.  gained_strong replaces b by the points
    strictly above it, which decides strong and tight irredundance alike on
    finite models; that set holds Z \\ {b}, so strong implies irredundant.
    """
    bit = 1 << b
    return inter(zmask ^ bit) & fixed & ~target, inter((zmask | up[b]) & ~bit) & fixed & ~target


def _classification(family: PointFamily, zmask: int, b: int, inter) -> MemberClassification:
    """Member b of the representation Z, from _member_gains on inter (meets of the raw members).

    Each witness is the least element gained, which never lies in b's set.
    Isolation flags are taken in the subspace topologies on Z (patch is
    discrete, so patch isolation always holds here).
    """
    space = family.space
    ctx = family.context
    gained, gained_strong = _member_gains(inter, space.up, zmask, b, ctx.fixed_mask, ctx.target_mask)
    return MemberClassification(
        point=b,
        name=family.names[b],
        irredundant=gained != 0,
        strongly_irredundant=gained_strong != 0,
        tightly_irredundant=gained_strong != 0,
        isolated_spectral=space.down[b] & zmask == 1 << b,
        isolated_patch=True,
        witness_irredundant=_least_witness(family, gained),
        witness_strong=_least_witness(family, gained_strong),
    )


def classify_member(family: PointFamily, zs, b: int) -> MemberClassification:
    """Classify member b inside the representation Z (see _classification)."""
    zmask = family.space.point_mask(zs)
    if not zmask >> b & 1:
        raise ValueError(f"point index {b} is not a member of the chosen subfamily")
    if not represents_mask(family, zmask):
        raise NotARepresentation("the chosen subfamily is not a representation")
    return _classification(family, zmask, b, partial(intersection_mask, family))


def strongly_irredundant_oracle(family: PointFamily, zs, b: int, cap: int = DEFAULT_POINT_CAP) -> bool:
    """Definition-level strong irredundance: try every closed subset of the cone.

    Enumerates every up-set Y inside the cone over b and checks whether
    (Z \\ {b}) united with Y represents; b is strongly irredundant when the
    full cone is the only Y that works.  Intersections are recomputed from
    the raw members so this stays independent of the fast path.
    """
    space = family.space
    ctx = family.context
    zmask = space.point_mask(zs)
    bit = 1 << b
    if not zmask & bit:
        raise ValueError(f"point index {b} is not a member of the chosen subfamily")
    if not represents_mask(family, zmask):
        raise NotARepresentation("the chosen subfamily is not a representation")
    cone = space.up[b]
    _require_cap(cone.bit_count(), cap, "closed-subset enumeration")
    base = zmask ^ bit
    working = []
    y = cone
    while True:
        ok = True
        for i in _bits(y):
            if space.up[i] & ~y & cone:
                ok = False
                break
        if ok:
            m = ctx.full_mask
            for i in _bits(base | y):
                m &= family.members[i]
            if m & ctx.fixed_mask == ctx.target_mask:
                working.append(y)
        if y == 0:
            break
        y = (y - 1) & cone
    return working == [cone]


def minimal_closed_core(inter, up, down, fixed: int, target: int) -> list[int]:
    """Minimal closed representations as masks, given the intersection SplitTable.

    A minimal closed representation is up(z) for an antichain z, and it is
    found as a transversal: with E the atoms C \\ A and avoid[b] the atoms
    that member b lacks, up(z) represents iff every atom is avoided by some
    b in z.  It is minimal iff every b in z keeps an atom of priv[b] (avoid[b]
    minus what the points strictly above b avoid) that no other point of z
    avoids, since up(z) without b still holds those points.  The search adds
    one avoider of the uncovered atom with the fewest candidate avoiders at a
    time (MMCS: each transversal is reached once, as a sibling's candidates
    exclude the avoiders tried before it) and prunes as soon as some chosen
    b has no atom of priv[b] left that it alone covers.  It keeps a few
    masks per level and at most n levels.  A point whose member misses part
    of A spoils every up-set holding it, so its down-set is barred.  Atoms
    avoided by the same points are interchangeable, so the atoms are split
    point by point into such classes, and one atom stands for each.
    """
    lo, hi, h = inter.lo, inter.hi, inter.h
    n = len(up)
    members = [lo[1 << b] if b < h else hi[1 << (b - h)] for b in range(n)]
    classes = _element_classes(members, fixed & ~target)  # (atoms that the same points avoid, those points)
    atoms = sum(c & -c for c, _ in classes)
    avoid = [atoms & ~m for m in members]
    barred = 0
    for b, m in enumerate(members):
        if target & ~m:
            barred |= down[b]
    priv = []
    cand = 0
    for b in range(n):
        bit = 1 << b
        shared = 0
        m = up[b] & ~bit
        while m:
            low = m & -m
            shared |= avoid[low.bit_length() - 1]
            m ^= low
        priv.append(avoid[b] & ~shared)
        if priv[b] and not barred & bit:
            cand |= bit
    avoiders = {c & -c: col & cand for c, col in classes}  # atom -> the candidates avoiding it

    out = []
    chosen = []

    def search(once: int, twice: int, cand: int, y: int) -> None:
        """Extend the chosen points; y is their up-set, once / twice the atoms they cover at least once / twice."""
        uncovered = atoms & ~once
        fewest = n + 1
        m = uncovered
        while m:
            low = m & -m
            c = avoiders[low] & cand
            k = c.bit_count()
            if k < fewest:
                if not k:
                    return
                fewest, branch = k, c
            m ^= low
        cand &= ~branch
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            if priv[v] & uncovered:  # v covers an atom of its own first
                more = twice | once & avoid[v]
                for b in chosen:
                    if not priv[b] & ~more:
                        break
                else:
                    if uncovered & ~avoid[v]:
                        chosen.append(v)
                        search(once | avoid[v], more, cand, y | up[v])
                        chosen.pop()
                    else:  # v covers the last atoms: a leaf
                        out.append(y | up[v])
            cand |= low

    if not atoms:
        out.append(0)
    elif all(avoiders.values()):  # else some atom has no candidate avoider
        search(0, 0, cand, 0)
    if not out:
        raise ConsistencyError("a representation must contain a minimal closed one")
    # canonical order is that of the index tuples: the binary digits from bit 0
    # up, set before unset; an antichain has no key that is a prefix of another
    out.sort(key=lambda y: bin(y)[:1:-1], reverse=True)
    return out


def _minimal_points_checked(closed, inter, up, down, fixed: int, target: int) -> list[int]:
    """The minimal points of each minimal closed representation, cross-checked.

    Raises ConsistencyError unless, for each closed representation y, its
    minimal points z represent, each of them is irredundant and strongly
    irredundant in z, and they regenerate y.  The paper's other facts on z
    follow from these whatever the input, so they are not checked: every
    b of z is isolated in z, since down[b] & y is b alone and z lies in y;
    the isolated points are then z, dense in it once z regenerates y; and
    distinct closed masks (the search yields each mask once) give distinct
    z, since each z regenerates its own y.
    """
    lo, hi, h = inter.lo, inter.hi, inter.h
    lmask = len(lo) - 1
    alone = sum(1 << b for b, d in enumerate(down) if d == 1 << b)  # minimal in every y that holds them
    tall = sum(1 << b for b, u in enumerate(up) if u & ~(1 << b))  # with a point above
    minreps = []
    for y in closed:
        z = y & alone
        m = y & ~alone
        while m:
            low = m & -m
            if down[low.bit_length() - 1] & y == low:
                z |= low
            m ^= low
        if lo[z & lmask] & hi[z >> h] & fixed != target:
            raise ConsistencyError("minimal points of a closed representation must represent")
        regen = 0
        m = z
        while m:
            low = m & -m
            b = low.bit_length() - 1
            regen |= up[b]
            s = z ^ low
            # both legs: strong implies irredundant only for a monotone table; without
            # a point above b the strong leg's (z | up[b]) & ~b is this s again
            if lo[s & lmask] & hi[s >> h] & fixed == target:
                raise ConsistencyError("a minimal point of a minimal representation is redundant")
            if tall & low:
                t = (z | up[b]) & ~low
                if lo[t & lmask] & hi[t >> h] & fixed == target:
                    raise ConsistencyError("a minimal point of a minimal representation is redundant")
            m ^= low
        if regen != y:
            raise ConsistencyError("minimal points fail to regenerate their closed representation")
        minreps.append(z)
    return minreps


def critical_mask(family: PointFamily) -> int:
    """Members of every closed representation, by the maximal-avoiding-up-set test."""
    require_representation(family)
    space = family.space
    full = space.full_mask
    crit = 0
    for b in range(len(family)):
        if not represents_mask(family, full ^ space.down[b]):
            crit |= 1 << b
    return crit


def point_slices(n: int) -> list[int]:
    """H[j] for j < n: the 2^n-bit integer whose bit z says that point j is in z.

    Each is a byte pattern repeated over 2^n / 8 bytes: linear in 2^n, where
    a division by 2^(2^(j+1)) - 1 would be quadratic.
    """
    size = max(1 << n >> 3, 1)
    every = (1 << (1 << n)) - 1  # below 3 points the one byte holds more than 2^n bits
    out = []
    for j in range(n):
        k = 1 << j >> 3
        unit = bytes(k) + b"\xff" * k if k else b"\xaa\xcc\xf0"[j:j + 1]
        out.append(int.from_bytes(unit * (size // len(unit)), "little") & every)
    return out


def clear_point(x: int, h: int, j: int) -> int:
    """x read without point j: bit z of the result is bit z minus {j} of x (h is H[j] of point_slices)."""
    low = x & ~h
    return low | low << (1 << j)


def force_point(x: int, h: int, j: int) -> int:
    """x read with point j: bit z of the result is bit z plus {j} of x (h is H[j] of point_slices)."""
    high = x & h
    return high | high >> (1 << j)


def _member_gain_slices(H, R, up, b: int) -> tuple[int, int]:
    """_member_gains of member b on every subfamily at once, as (irr, strong).

    R is the represents slice of _represents_slice.  Bit z of irr says that
    z holds b and z minus b does not represent; bit z of strong, that z
    holds b and z with b replaced by the points strictly above it does not.
    Where z represents, these are b's two gains being nonzero.
    """
    h = H[b]
    replaced = R
    for k in _bits(up[b] & ~(1 << b)):
        replaced = force_point(replaced, H[k], k)
    return h & ~clear_point(R, h, b), h & ~clear_point(replaced, h, b)


def _set_bits(x: int):
    """The set bits of x, ascending, read from its nonzero bytes."""
    data = x.to_bytes((x.bit_length() + 7) >> 3, "little")
    for byte in re.finditer(b"[^\0]", data):
        for b in _bits(data[byte.start()]):
            yield byte.start() << 3 | b


def _represents_slice(family: PointFamily) -> tuple[list[int], int]:
    """(H, R): the point slices and R, whose bit z says that the members chosen by z represent.

    No point of z may lack part of A, and each element of C \\ A must be
    lacked by a point of z: z must lie in the OR of H[j] over the points
    lacking it, one column per such set of points.
    """
    H = point_slices(len(family))
    target = family.context.target_mask
    columns = {sum(1 << j for j, m in enumerate(family.members) if not m >> e & 1)
               for e in _bits(family.context.fixed_mask & ~target)}
    R = (1 << (1 << len(H))) - 1
    for lack in columns:
        R &= reduce(or_, [H[j] for j in _bits(lack)], 0)
    return H, R & ~reduce(or_, [h for h, m in zip(H, family.members) if target & ~m], 0)


def _upset_slice(H, up) -> int:
    """The 2^n-bit integer whose bit z says that z is an up-set: z holding j holds every point above j."""
    U = (1 << (1 << len(H))) - 1
    for j, u in enumerate(up):
        above = [H[k] for k in _bits(u & ~(1 << j))]
        if above:
            U &= ~H[j] | reduce(and_, above)
    return U


def _closed_representations_slice(family: PointFamily, cap: int, scan=None) -> tuple[list[int], int]:
    """(H, R) of _represents_slice, R kept to the up-sets (_upset_slice).

    scan is the family's (H, R) when the caller holds it already.
    """
    _require_cap(len(family), cap, "closed-representation enumeration")
    require_representation(family)
    H, R = scan or _represents_slice(family)
    return H, R & _upset_slice(H, family.space.up)


def critical_points_oracle(family: PointFamily, cap: int = DEFAULT_POINT_CAP, scan=None) -> tuple[int, ...]:
    """Intersect every closed representation, found by the raw bit-sliced scan (all points if none).

    scan is the family's (H, R) of _represents_slice when the caller holds it already.
    """
    H, closed = _closed_representations_slice(family, cap, scan)
    return tuple(j for j, h in enumerate(H) if not closed & ~h)


def minimal_closed_oracle(family: PointFamily, cap: int = DEFAULT_POINT_CAP) -> tuple[tuple[int, ...], ...]:
    """Minimal closed representations by scanning every subset, in canonical order.

    below gets bit s when a closed representation of the raw bit-sliced scan
    lies inside s (the subset zeta transform, a shift by 2^j per point); a
    closed representation s is minimal iff no s minus one point has it.
    """
    H, closed = _closed_representations_slice(family, cap)
    below = closed
    for j, h in enumerate(H):
        below |= clear_point(below, h, j)
    for j, h in enumerate(H):
        closed &= ~(h & clear_point(below, h, j))
    return tuple(sorted(map(indices_of, _set_bits(closed))))


@dataclass(frozen=True)
class UniqueMinimalAnalysis:
    """The family-level analysis: everything that does not depend on a chosen subfamily.

    Each fact is derived on first read and kept.  Point indices throughout:
    critical holds the points of every closed representation and cset (the
    critical core) the minimal ones among them; both come from critical_mask
    and exist beyond the cap.  The rest come from three stages that each
    read the intersection table once, and raise CapExceeded beyond the cap:
    the minimal-closed search, the minimal representations with their
    cross-checks (_minimal_points_checked), and analysis_core, whose critical
    mask must agree with critical_mask.  unique says there is exactly one
    minimal representation, which holds iff the critical core represents; in
    that case strongly_irredundant_rep is the set of points strongly
    irredundant within the core, the only possible strongly irredundant
    representation.
    """

    family: PointFamily
    cap: int

    @cached_property
    def _critical_mask(self) -> int:
        return critical_mask(self.family)

    @cached_property
    def critical(self) -> tuple[int, ...]:
        return indices_of(self._critical_mask)

    @cached_property
    def cset(self) -> tuple[int, ...]:
        return indices_of(min_mask(self.family.space, self._critical_mask))

    def _table(self) -> tuple:
        """What each table stage reads: (intersection table, up, down, fixed, target)."""
        space = self.family.space
        ctx = self.family.context
        return intersection_table(self.family), space.up, space.down, ctx.fixed_mask, ctx.target_mask

    @cached_property
    def _closed_masks(self) -> tuple[int, ...]:
        _require_cap(len(self.family), self.cap, "closed-representation enumeration")
        require_representation(self.family)
        return tuple(minimal_closed_core(*self._table()))

    @cached_property
    def minimal_closed(self) -> tuple[tuple[int, ...], ...]:
        """All inclusion-minimal up-sets that still represent, in canonical order."""
        return tuple(indices_of(y) for y in self._closed_masks)

    @cached_property
    def _minimal_masks(self) -> tuple[int, ...]:
        """The minimal points of each minimal closed representation, in the order of _closed_masks."""
        return tuple(_minimal_points_checked(self._closed_masks, *self._table()))

    @cached_property
    def minimal_representations(self) -> tuple[tuple[int, ...], ...]:
        """The minimal points of each minimal closed representation, sorted."""
        return tuple(sorted(map(indices_of, self._minimal_masks)))

    @cached_property
    def _core(self) -> tuple[bool, int | None]:
        minimal_count = len(self._minimal_masks)
        inter, up, down, fixed, target = self._table()
        crit, _, cset_represents, srep = analysis_core(inter, minimal_count, up, down, fixed, target)
        if crit != self._critical_mask:
            raise ConsistencyError("criticality routes disagree")
        return cset_represents, srep

    @property
    def cset_represents(self) -> bool:
        return self._core[0]

    @property
    def unique(self) -> bool:
        # analysis_core checked that the core represents iff there is one minimal representation
        return self._core[0]

    @property
    def strongly_irredundant_rep(self) -> tuple[int, ...] | None:
        srep = self._core[1]
        return None if srep is None else indices_of(srep)


def analysis_core(inter, minimal_count: int, up, down, fixed: int, target: int):
    """Mask-level criticality and uniqueness, shared by the object API and bulk sweeps.

    Expects a validated representation and its number of minimal
    representations (_minimal_points_checked).  Returns (critical mask,
    critical core mask, core represents, strongly irredundant rep mask or
    None).  Raises ConsistencyError unless the core represents exactly when
    there is one minimal representation.
    """
    lo, hi, h = inter.lo, inter.hi, inter.h
    lmask = len(lo) - 1
    full_points = (1 << len(down)) - 1
    crit = 0
    for b, d in enumerate(down):
        s = full_points ^ d
        if lo[s & lmask] & hi[s >> h] & fixed != target:
            crit |= 1 << b
    cset = _alone(down, crit)
    cset_represents = lo[cset & lmask] & hi[cset >> h] & fixed == target
    if (minimal_count == 1) != cset_represents:
        raise ConsistencyError("critical-core representation does not match minimal-representation count")

    srep = None
    if cset_represents:
        s = 0
        m = cset
        while m:
            low = m & -m
            b = low.bit_length() - 1
            t = (cset | up[b]) & ~low
            if lo[t & lmask] & hi[t >> h] & fixed != target:
                s |= low
            m ^= low
        if lo[s & lmask] & hi[s >> h] & fixed == target:
            srep = s
    return crit, cset, cset_represents, srep


@lru_cache(maxsize=8)
def unique_minimal_analysis(family: PointFamily, cap: int = DEFAULT_POINT_CAP) -> UniqueMinimalAnalysis:
    """The one analysis of a family under a cap, shared by every caller."""
    return UniqueMinimalAnalysis(family, cap)


def isolated_points(family: PointFamily, zs, kind: str = SPECTRAL) -> tuple[int, ...]:
    """Points of Z isolated in the chosen subspace topology.

    Spectral isolation of b means no other member of Z sits below b; inverse
    isolation mirrors it above; the patch subspace is discrete, so there the
    answer is all of Z.
    """
    space = family.space
    zmask = space.point_mask(zs)
    if kind == PATCH:
        return indices_of(zmask)
    if kind == SPECTRAL:
        rel = space.down
    elif kind == INVERSE:
        rel = space.up
    else:
        raise ValueError(f"unknown topology kind: {kind!r}")
    return indices_of(_alone(rel, zmask))


def strongly_irredundant_representation(family: PointFamily, cap: int = DEFAULT_POINT_CAP) -> tuple[int, ...]:
    """Produce one strongly irredundant representation via the minimal pipeline.

    On finite models every minimal representation qualifies; the first one in
    canonical order is returned after verifying each member survives the
    replacement test.
    """
    space = family.space
    rep = unique_minimal_analysis(family, cap).minimal_representations[0]
    zmask = space.point_mask(rep)
    for b in rep:
        repl = (zmask | space.up[b]) & ~(1 << b)
        if represents_mask(family, repl):
            raise ConsistencyError("minimal representation member is not strongly irredundant")
    return rep


@dataclass(frozen=True)
class RepresentationReport:
    """Classification of a chosen subfamily plus family-level structure."""

    family: PointFamily
    chosen: tuple[int, ...]
    classifications: tuple[MemberClassification, ...]
    analysis: UniqueMinimalAnalysis
    exhaustive: bool  # False when the exhaustive facts exceed the cap
    notices: tuple[str, ...]


def build_report(family: PointFamily, zs=None, cap: int = DEFAULT_POINT_CAP, oracle: bool = False) -> RepresentationReport:
    """Classify every chosen member and read every fact of the family's analysis.

    Beyond the cap only the fast paths run; the exhaustive parts are skipped
    and a notice records that.  With oracle=True the brute-force routes are
    run next to each fast path and any disagreement raises ConsistencyError.
    """
    require_representation(family)
    ctx = family.context
    zmask = family.space.full_mask if zs is None else family.space.point_mask(zs)
    chosen = indices_of(zmask)
    # Z minus its i-th member is the meet of the members before it and after it
    members = [family.members[b] for b in chosen]
    before = list(accumulate(members, and_, initial=ctx.full_mask))
    after = list(accumulate(reversed(members), and_, initial=ctx.full_mask))[::-1]
    if before[-1] & ctx.fixed_mask != ctx.target_mask:
        raise NotARepresentation("the chosen subfamily is not a representation")
    meets = {zmask ^ 1 << b: before[i] & after[i + 1] for i, b in enumerate(chosen)}

    def inter(s: int) -> int:
        # b replaced by its cone is Z minus b again whenever Z holds the cone
        return meets[s] if s in meets else intersection_mask(family, s)

    classifications = tuple(_classification(family, zmask, b, inter) for b in chosen)
    analysis = unique_minimal_analysis(family, cap)
    notices: list[str] = []
    exhaustive = True
    try:  # every reported fact is read here (the last reads every stage), so that a fault or the cap shows here
        analysis.critical, analysis.cset, analysis.strongly_irredundant_rep
    except CapExceeded:
        exhaustive = False
        notices.append(
            f"exhaustive enumeration skipped: {len(family)} points exceeds the cap of {cap}"
        )

    if oracle:
        if critical_points_oracle(family, cap) != analysis.critical:
            raise ConsistencyError("critical fast path disagrees with the exhaustive oracle")
        for cls in classifications:
            if strongly_irredundant_oracle(family, chosen, cls.point, cap) != cls.strongly_irredundant:
                raise ConsistencyError(
                    f"strong-irredundance fast path disagrees with the oracle at {cls.name!r}"
                )

    return RepresentationReport(
        family=family,
        chosen=chosen,
        classifications=classifications,
        analysis=analysis,
        exhaustive=exhaustive,
        notices=tuple(notices),
    )

