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
from math import comb
from typing import Iterable, Iterator

from .engine import (
    DEFAULT_POINT_CAP,
    ENUMERATION_BUDGET,
    SplitTable,
    _minimal_points_checked,
    analysis_core,
    minimal_closed_core,
    point_slices,
    subset_intersections,
    upset_masks,
)
from .errors import CapExceeded, ConsistencyError, InputError, NotARepresentation
from .setsystems import ContextTriple, PointFamily, require_representation
from .topology import inclusion_order, indices_of


# Pool primes above this bound (rings.ZMOD_CAP) are refused before the
# trial-division primality test, which takes a few ms up to it.
PRIME_CAP = 10 ** 9


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
            if p > PRIME_CAP:
                raise CapExceeded(f"pool prime {p} exceeds the cap of {PRIME_CAP}")
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
    if not isinstance(q, Fraction):
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


# A size of m primes is decided in one slice: its table U holds 2^m integers
# of 2^m bits, 4^m / 8 bytes (512 MB at 16 primes).  POOL_BOUND is the largest
# m whose slice fits ENUMERATION_BUDGET.
POOL_BOUND = ((8 * ENUMERATION_BUDGET).bit_length() - 1) // 2


def _targets(pool: PrimePool, cap: int) -> Iterator[tuple[int, list[int]]]:
    """(T, the pool indices of T) for every target sub-pool T, in sweep order, once the pool is within bounds."""
    k = len(pool)
    if k > cap:
        raise CapExceeded(f"pool of {k} primes exceeds the sweep cap of {cap}")
    if k > POOL_BOUND:
        raise CapExceeded(f"pool of {k} primes exceeds the sweep bound of {POOL_BOUND}: "
                          f"its size of {k} primes would take {4 ** k >> 23} MB in one slice")
    return ((tmask, [i for i in range(k) if tmask >> i & 1]) for tmask in range(1, 1 << k))


def _localizations(k: int, t_bits: list[int]) -> list[int]:
    """The localizations at the primes of T in a k-prime pool, encoded as co-singleton point-sets."""
    full = (1 << k) - 1
    return [full ^ (1 << i) for i in t_bits]


def _label(primes, t_bits, smask: int) -> str:
    ts = ",".join(str(primes[i]) for i in t_bits)
    ss = ",".join(str(primes[i]) for i in t_bits if smask >> i & 1)
    return f"T={{{ts}}} S={{{ss}}}"


def pool_uniqueness_check(pool: PrimePool, cap: int = DEFAULT_POINT_CAP, oracle: bool = False) -> PoolSweepReport:
    """Sweep every target sub-pool and admissible fixed ring, asserting uniqueness.

    For a target retaining T represented by the localizations at the primes
    of T, cut down by a fixed ring retaining S strictly inside T, the
    analysis must find a unique minimal representation whose strongly
    irredundant representation is exactly the localizations at T \\ S, each
    witnessed by its own prime (the rational 1/p).  Returns a report with
    one failure line per violated expectation.

    Restricted to T, the members are the m co-singletons of T, each holding
    the target, so the input depends on m = |T| alone (_size_input): each
    size is decided for all its fixed rings S at once, bit-sliced
    (_sliced_target), in the order m = 1..k in which the targets meet it, and
    its failure records are rendered with the labels of every target of that
    size.  A pool of more than min(cap, POOL_BOUND) primes raises
    CapExceeded.  With oracle=True the per-check route
    (pool_uniqueness_oracle), which builds each target's own members, runs
    too and any difference in the report raises ConsistencyError.
    """
    targets = _targets(pool, cap)
    primes = pool.primes
    k = len(primes)
    decided = {m: _sliced_target(m, *_size_input(m)) for m in range(1, k + 1)}
    checks = sum(comb(k, m) * ((1 << m) - 1) for m in decided)
    failures: list[str] = []
    if any(decided.values()):  # the targets are walked for their failure labels only
        for _, t_bits in targets:
            for s, unique_bad, srep_bad, witness_bad, crit_bad in decided[len(t_bits)]:
                label = _label(primes, t_bits, sum(1 << i for j, i in enumerate(t_bits) if s >> j & 1))
                if unique_bad:
                    failures.append(f"{label}: expected a unique minimal representation")
                if srep_bad:
                    failures.append(f"{label}: unexpected strongly irredundant representation")
                for j in witness_bad:
                    failures.append(f"{label}: witness for 1/{primes[t_bits[j]]} is not the expected prime")
                if crit_bad:
                    failures.append(f"{label}: criticality does not match the unabsorbed localizations")
    report = PoolSweepReport(pool=primes, checks=checks, passed=not failures, failures=tuple(failures))
    if oracle and pool_uniqueness_oracle(pool, cap) != report:
        raise ConsistencyError("the bit-sliced pool sweep disagrees with the per-check oracle")
    return report


def _size_input(m: int) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """(local, up, down) of every target of m primes: its m co-singletons, each holding the target (bit m)."""
    local = [((2 << m) - 1) ^ (1 << j) for j in range(m)]
    return (local, *inclusion_order(local))


def _slice_basis(m: int) -> tuple[tuple[int, ...], list[int]]:
    """(H, U) over the local fixed-ring masks s < 2^m, as 2^m-bit integers.

    H[j] holds the s that contain bit j (engine.point_slices) and U[e] the
    s that contain e (subset_intersections of H).
    """
    H = tuple(point_slices(m))
    return H, subset_intersections((1 << (1 << m)) - 1, H)


def _sliced_target(m: int, local, up, down) -> list[tuple]:
    """The failure records of one target T of m primes for every fixed ring S strictly inside T.

    S is read as its local mask s over the primes of T, and each fact of the
    checks (T, S) is one integer of 2^m bits whose bit s holds it for that
    S: every S is decided in one slice (see POOL_BOUND).  local
    holds the members restricted to T (bit j for prime j of T, bit m when
    the member contains the target), and up and down are their inclusion
    order.  The local masks give the excess table: the points y represent
    under s iff their intersection contains the target and its primes of T
    lie in s.  From it, with U[e] the set of s containing e,
    R[y] = U[excess(y)], and an up-set y is a minimal closed representation
    on R[y] minus the R[y - b] of its minimal points b.  A fact about a set
    of points that depends on s (the critical core, the strongly irredundant
    representation) is tested prime by prime: prime j of T drops out when
    one chosen point lacks it or j lies in s.

    Every cross-check of minimal_closed_core, _minimal_points_checked and
    analysis_core is made on every s, and a violation raises a
    ConsistencyError.  With corrupted members it is the one the per-check
    route raises at the first failing S in sweep order.  On a faulty order
    both routes raise, but not always with the same message:
    minimal_closed_core reads the order through the up sets (the down sets
    only bar the points below a member that misses the target), while this
    sweep takes its closed up-sets from the faulty down sets, so the two
    routes meet different closed up-sets first (a flipped bit of one down
    set can give "must represent" there and "fail to regenerate" here).
    The records are label-free, one per failing s in sweep order (S
    descending): (s, unique_bad, srep_bad, the j whose witness is not prime
    j, crit_bad), which the sweep renders as the uniqueness, strongly
    irredundant (or witness) and criticality lines of each target.
    """
    pts = (1 << m) - 1
    has_target = 1 << m
    excess = subset_intersections(pts | has_target, local)
    lacking = [[c for c in range(m) if not local[c] >> j & 1] for j in range(m)]
    dead = [c for c in range(m) if not local[c] & has_target]

    ups = upset_masks(up)
    # b is a minimal point of y iff b is in y and in down[b] and no other
    # point of y is in down[b]; covered[y] holds the points that y rules out.
    # spread[y] is the union of up[b] over the points b of y.
    refl = 0
    below = [0] * m
    for b, d in enumerate(down):
        refl |= (d >> b & 1) << b
        if d & ~(1 << b):
            for c in indices_of(d & ~(1 << b)):
                below[c] |= 1 << b
    covered = [0]
    spread = [0]
    for c in range(m):
        covered += [v | below[c] for v in covered]
        spread += [v | up[c] for v in spread]

    every = (1 << (1 << m)) - 1
    admissible = every ^ (1 << pts)  # S = T is no check
    H, U = _slice_basis(m)
    R = [U[e & pts] if e & has_target else 0 for e in excess]

    def represents(x):
        """The s at which the points chosen by the per-point masks x represent."""
        r = every
        for h, cs in zip(H, lacking):
            for c in cs:
                h |= x[c]
            r &= h
        for c in dead:
            r &= ~x[c]
        return r

    once = twice = 0  # s with at least one / two minimal closed representations
    faults = []  # (s where it fires, stage, y, check, message) in the per-check order
    for y in ups:
        z = y & refl & ~covered[y]  # each isolated in z too: covered[z] lies in covered[y]
        lost = redundant = 0
        zm = z
        while zm:
            low = zm & -zm
            zm ^= low
            lost |= R[y ^ low]
            # the s where z still represents without b, or with b's cone in its place
            redundant |= R[z ^ low] | R[(z | spread[low]) & ~low]
        closed = admissible & R[y] & ~lost
        if not closed:
            continue
        twice |= once & closed
        once |= closed
        # _minimal_points_checked on the s where y is a minimal closed representation
        if closed & ~R[z]:
            faults.append((closed & ~R[z], 1, y, 0, "minimal points of a closed representation must represent"))
        if closed & redundant:
            faults.append((closed & redundant, 1, y, 1,
                           "a minimal point of a minimal representation is redundant"))
        if spread[z] != y:
            faults.append((closed, 1, y, 2, "minimal points fail to regenerate their closed representation"))
    if admissible & ~once:
        faults.append((admissible & ~once, 0, 0, 0, "a representation must contain a minimal closed one"))

    # analysis_core
    crit = [admissible & ~R[pts ^ d] for d in down]
    cset = []
    for b, d in enumerate(down):
        c = crit[b] if refl >> b & 1 else 0
        if d & ~(1 << b):
            for a in indices_of(d & ~(1 << b)):
                c &= ~crit[a]
        cset.append(c)
    core = admissible & represents(cset)
    single = once & ~twice
    if single ^ core:
        faults.append((single ^ core, 2, 0, 0,
                       "critical-core representation does not match minimal-representation count"))
    if faults:
        # the per-check route stops at the greatest failing s, at its first check there
        first_s = 1 << max(f[0] for f in faults).bit_length() - 1
        first = min((f for f in faults if f[0] & first_s), key=lambda f: (f[1], indices_of(f[2]), f[3]))
        raise ConsistencyError(first[4])
    strong = []
    for b in range(m):
        x = [every if up[b] >> c & 1 else xc for c, xc in enumerate(cset)]
        x[b] = 0
        strong.append(core & cset[b] & ~represents(x))
    expect = [every ^ h for h in H]  # the localization at prime j belongs to the answer
    srep_ok = core & represents(strong)
    for b in range(m):
        srep_ok &= ~(strong[b] ^ expect[b])
    witness_bad = []
    for j in range(m):
        gained = excess[pts ^ (1 << j)] & pts
        exact = U[gained ^ (1 << j)] & expect[j] if gained >> j & 1 else 0
        witness_bad.append(srep_ok & expect[j] & ~exact)
    crit_bad = 0
    for b in range(m):
        crit_bad |= (crit[b] ^ expect[b]) | (cset[b] ^ expect[b])
    unique_bad = admissible & ~(single & core)
    srep_bad = admissible & ~srep_ok
    crit_bad &= admissible
    failing = unique_bad | srep_bad | crit_bad
    for bad in witness_bad:
        failing |= bad
    records = []
    while failing:
        s = failing.bit_length() - 1
        bit = 1 << s
        failing ^= bit
        records.append((s, bool(unique_bad & bit), bool(srep_bad & bit),
                        tuple(j for j, bad in enumerate(witness_bad) if bad & bit), bool(crit_bad & bit)))
    return records


def pool_uniqueness_oracle(pool: PrimePool, cap: int = DEFAULT_POINT_CAP) -> PoolSweepReport:
    """The per-check route of pool_uniqueness_check: one engine analysis per (T, S).

    Runs the engine's mask stages (minimal_closed_core,
    _minimal_points_checked, analysis_core) on the table of each target once
    per fixed ring; the reference that the bit-sliced sweep is compared with.
    """
    primes = pool.primes
    full = (1 << len(primes)) - 1
    checks = 0
    failures: list[str] = []
    for tmask, t_bits in _targets(pool, cap):
        members = _localizations(len(primes), t_bits)
        m = len(t_bits)
        full_pts = (1 << m) - 1
        up, down = inclusion_order(members)
        inter = SplitTable(full, members)
        target = full ^ tmask

        smask = (tmask - 1) & tmask
        while True:  # all proper sub-pools S of T, including the empty one
            checks += 1
            label = _label(primes, t_bits, smask)
            fixed = full ^ smask
            closed = minimal_closed_core(inter, up, down, fixed, target)
            minreps = _minimal_points_checked(closed, inter, up, down, fixed, target)
            crit, cset, cset_represents, srep = analysis_core(inter, len(minreps), up, down, fixed, target)
            if not (len(minreps) == 1 and cset_represents):
                failures.append(f"{label}: expected a unique minimal representation")
            expect = 0
            for j, i in enumerate(t_bits):
                if not smask >> i & 1:
                    expect |= 1 << j
            if srep != expect:
                failures.append(f"{label}: unexpected strongly irredundant representation")
            else:
                for j in range(m):
                    if not expect >> j & 1:
                        continue
                    gained = inter[full_pts ^ (1 << j)] & fixed & ~target
                    if gained != 1 << t_bits[j]:
                        failures.append(f"{label}: witness for 1/{primes[t_bits[j]]} is not the expected prime")
            # localizations not absorbed by the fixed ring are critical, the
            # absorbed ones are not
            if crit != expect or cset != expect:
                failures.append(f"{label}: criticality does not match the unabsorbed localizations")
            if smask == 0:
                break
            smask = (smask - 1) & tmask

    return PoolSweepReport(pool=primes, checks=checks, passed=not failures, failures=tuple(failures))
