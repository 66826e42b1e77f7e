"""Desk-scale overrings of the integers, described by finite prime pools.

An overring keeps a localization of the integers at each retained prime and
is the intersection of the kept localizations; retaining nothing gives the
rationals.  Membership of a rational is a divisibility predicate on its
reduced denominator, so everything is exact integer arithmetic.

Over a fixed pool, the overring lattice embeds faithfully into subsets of
the pool: a ring retaining T maps to the point-set pool \\ T, turning ring
intersection into set intersection and ring inclusion into set inclusion.
That encoding hands every irredundance and criticality question to the
representation engine, whose witnesses come back as primes p and read as
the rationals 1/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .engine import DEFAULT_POINT_CAP, _minimal_points_checked, analysis_core, minimal_closed_core, subset_intersections
from .errors import CapExceeded, InputError, NotARepresentation
from .setsystems import ContextTriple, PointFamily, require_representation
from .topology import inclusion_order


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimePool:
    """A nonempty sorted tuple of distinct verified primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise InputError("a prime pool must be nonempty")
        if list(self.primes) != sorted(set(self.primes)):
            raise InputError("pool primes must be distinct and sorted")
        for p in self.primes:
            if not _is_prime(p):
                raise InputError(f"{p} is not prime")

    @classmethod
    def of(cls, primes: Iterable[int]) -> "PrimePool":
        return cls(tuple(sorted(set(primes))))

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class OverringSpec:
    """The intersection of the localizations at the retained primes; none kept = Q."""

    pool: PrimePool
    retained: frozenset[int]

    def __post_init__(self):
        if not self.retained <= set(self.pool.primes):
            raise InputError("retained primes must come from the pool")

    @classmethod
    def of(cls, pool: PrimePool, retained: Iterable[int]) -> "OverringSpec":
        return cls(pool, frozenset(retained))

    @property
    def name(self) -> str:
        if not self.retained:
            return "Q"
        return "Z(" + ",".join(str(p) for p in sorted(self.retained)) + ")"


def membership(ring: OverringSpec, q) -> bool:
    """Exact membership of a rational: no retained prime may divide the denominator."""
    q = Fraction(q)
    den = q.denominator
    return all(den % p for p in ring.retained)


def encode(
    pool: PrimePool,
    target: OverringSpec,
    fixed: OverringSpec,
    members: Iterable[OverringSpec],
) -> PointFamily:
    """Encode an overring intersection as a point family over the pool.

    The universe is the pool; a ring retaining T becomes the point-set of
    the other primes, so the engine's set intersections mirror the ring
    intersections exactly.  The target must be the intersection of the
    members with the fixed ring; a failure is reported with the offending
    prime p, whose ring-level witness is the rational 1/p.
    """
    members = list(members)
    for spec in (target, fixed, *members):
        if spec.pool != pool:
            raise InputError("all overrings must share one pool")
    if not fixed.retained < target.retained:
        raise InputError(
            "the target overring must lie strictly inside the fixed overring "
            "(its retained primes must strictly contain the fixed ring's)"
        )
    k = len(pool)
    full = (1 << k) - 1
    index = {p: i for i, p in enumerate(pool.primes)}

    def point_mask(spec: OverringSpec) -> int:
        m = 0
        for p in spec.retained:
            m |= 1 << index[p]
        return full ^ m

    context = ContextTriple(
        universe=tuple(str(p) for p in pool.primes),
        fixed_mask=point_mask(fixed),
        target_mask=point_mask(target),
    )
    family = PointFamily(
        context=context,
        names=tuple(spec.name for spec in members),
        members=tuple(point_mask(spec) for spec in members),
    )
    try:
        require_representation(family)
    except NotARepresentation as exc:
        raise NotARepresentation(
            f"the members do not intersect to the target: witness 1/{exc.witness}",
            witness=exc.witness,
        ) from None
    return family


@dataclass(frozen=True)
class PoolSweepReport:
    pool: tuple[int, ...]
    checks: int
    passed: bool
    failures: tuple[str, ...]


def pool_uniqueness_check(pool: PrimePool, cap: int = DEFAULT_POINT_CAP) -> PoolSweepReport:
    """Sweep every target sub-pool and admissible fixed ring, asserting uniqueness.

    For a target retaining T represented by the localizations at the primes
    of T, cut down by a fixed ring retaining S strictly inside T, the
    engine's analysis must find a unique minimal representation whose
    strongly irredundant representation is exactly the localizations at
    T \\ S, each witnessed by its own prime (the rational 1/p).  Returns a
    report with one failure line per violated expectation.
    """
    k = len(pool)
    if k > cap:
        raise CapExceeded(f"pool of {k} primes exceeds the sweep cap of {cap}")
    full = (1 << k) - 1
    primes = pool.primes
    checks = 0
    failures: list[str] = []

    for tmask in range(1, full + 1):
        t_bits = [i for i in range(k) if tmask >> i & 1]
        m = len(t_bits)
        full_pts = (1 << m) - 1
        # localizations at the primes of T, encoded as co-singleton point-sets
        members = [full ^ (1 << i) for i in t_bits]
        up, down = inclusion_order(members)
        inter = subset_intersections(full, members)
        target = full ^ tmask

        def label(smask):
            ts = ",".join(str(primes[i]) for i in t_bits)
            ss = ",".join(str(primes[i]) for i in range(k) if smask >> i & 1)
            return f"T={{{ts}}} S={{{ss}}}"

        smask = (tmask - 1) & tmask
        while True:  # all proper sub-pools S of T, including the empty one
            checks += 1
            fixed = full ^ smask
            closed = minimal_closed_core(inter, up, down, fixed, target)
            minreps = _minimal_points_checked(closed, inter, up, down, fixed, target)
            crit, cset, cset_represents, srep = analysis_core(inter, len(minreps), up, down, fixed, target)
            if not (len(minreps) == 1 and cset_represents):
                failures.append(f"{label(smask)}: expected a unique minimal representation")
            expect = 0
            for j, i in enumerate(t_bits):
                if not smask >> i & 1:
                    expect |= 1 << j
            if srep != expect:
                failures.append(f"{label(smask)}: unexpected strongly irredundant representation")
            else:
                for j in range(m):
                    if not expect >> j & 1:
                        continue
                    gained = inter[full_pts ^ (1 << j)] & fixed & ~target
                    if gained != 1 << t_bits[j]:
                        failures.append(
                            f"{label(smask)}: witness for 1/{primes[t_bits[j]]} is not the expected prime"
                        )
            # localizations not absorbed by the fixed ring are critical, the
            # absorbed ones are not
            if crit != expect or cset != expect:
                failures.append(f"{label(smask)}: criticality does not match the unabsorbed localizations")
            if smask == 0:
                break
            smask = (smask - 1) & tmask

    return PoolSweepReport(
        pool=primes,
        checks=checks,
        passed=not failures,
        failures=tuple(failures),
    )
