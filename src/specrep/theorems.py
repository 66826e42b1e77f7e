"""Cross-operation identity suite: every instance must satisfy the theory.

Each check pits one route against another (generated neighbourhoods vs
order fast path, fast test vs exhaustive oracle, flag vs flag) and reports pass/fail/skip; a skip
happens only when an enumeration would blow a cap or a fact the check builds
on did not hold.  The CLI's check-theorems command runs the suite and fails
loudly with the violated check's name.

The family suite checks the definitions on every sub-representation of a
family within the point cap, bit-sliced: each fact about the subfamilies z is
one 2^n-bit integer whose bit z says that it holds for z, read through the
subset zeta transform in the Boolean semiring (Bjorklund, Husfeldt, Kaski and
Koivisto, STOC 2007) with broadword operations, so no check walks the 2^n
subfamilies in Python.  Two checks still enumerate: the antichain check its
antichains, up to ANTICHAIN_SCAN_CAP points, and the closure check every
subset, up to 10 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from operator import and_, or_

from . import engine, rings, topology, zrdesk
from .errors import CapExceeded, ConsistencyError, SpecrepError
from .setsystems import PointFamily, validate_representation
from .topology import indices_of

# antichains-inverse-discrete checks every sub-antichain, and an antichain of
# n points has 2^n of them, so that check scans all subsets up to this size only
ANTICHAIN_SCAN_CAP = 12

FLAG_CHECKS = (
    "irredundance-flag-hierarchy",
    "irredundant-implies-isolated",
    "critical-irredundant-implies-strongly",
    "tight-equals-irredundant-in-up-closure",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""


def _ok(name, detail=""):
    return CheckResult(name, "pass", detail)


def _bad(name, detail):
    return CheckResult(name, "fail", detail)


def _skip(name, detail):
    return CheckResult(name, "skip", detail)


def _reads(name, read) -> CheckResult:
    """Passes when read() returns, fails on a ConsistencyError, skips on any other package error."""
    try:
        read()
    except ConsistencyError as exc:
        return _bad(name, str(exc))
    except SpecrepError as exc:
        return _skip(name, str(exc))
    return _ok(name)


def run_family_suite(family: PointFamily, cap: int = engine.DEFAULT_POINT_CAP) -> list[CheckResult]:
    out: list[CheckResult] = []
    space = family.space
    n = len(space)

    ok, witness = validate_representation(family)
    out.append(_ok("family-represents-target") if ok else _bad(
        "family-represents-target", f"element {witness!r} separates the intersection from the target"))
    if not ok:
        return out

    # generator vs order fast paths
    name = "topology-generator-equivalence"
    # every kind is generated first, so the checks below read all three
    # even when one of them differs from its fast path; each kind's smallest
    # open neighbourhoods are the order's own: down-sets, up-sets, singletons
    tops = {kind: topology.generate_topology(space, kind) for kind in topology.KINDS}
    expected = {topology.SPECTRAL: space.down, topology.INVERSE: space.up,
                topology.PATCH: tuple(1 << i for i in range(n))}
    bad = next((kind for kind, top in tops.items() if top.neighbourhoods != expected[kind]), None)
    out.append(_bad(name, f"{bad} topology differs from its order fast path") if bad else _ok(name))

    name = "specialization-order-matches-inclusion"
    spec_top = tops[topology.SPECTRAL]
    mism = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if spec_top.specialization_leq(i, j) != space.leq(i, j)
    ]
    out.append(_bad(name, f"order mismatch at point pair {mism[0]}") if mism else _ok(name))

    name = "closure-fast-path-vs-topology"
    bad = None
    subsets = range(1 << n) if n <= 10 else [0, space.full_mask] + [1 << i for i in range(n)]
    for kind in topology.KINDS:
        top = tops[kind]
        for ymask in subsets:
            if topology.closure_mask(space, ymask, kind) != top.closure_of(ymask):
                bad = (kind, ymask)
                break
        if bad:
            break
    out.append(_bad(name, f"closure mismatch in {bad[0]} at subset {bad[1]:b}") if bad else _ok(name))

    # the checks on subfamilies z below are bit-sliced: each fact is one
    # 2^n-bit integer whose bit z says that it holds for z
    within_cap = n <= cap
    if within_cap:
        scan = H, R = engine._represents_slice(family)
        up, down = space.up, space.down
        upsets = engine._upset_slice(H, up)

    name = "closed-sets-covered-by-minimal-points"
    if within_cap:
        # bit z of minimal[j]: j is a minimal point of z (never when down[j]
        # lacks j, as the toggle then puts H[j] itself in the OR); bit z of
        # bad: z is an up-set and the up-set of its minimal points differs
        # from z at some i
        minimal = [h & ~reduce(or_, [H[k] for k in indices_of(d ^ 1 << j)], 0)
                   for j, (h, d) in enumerate(zip(H, down))]
        bad = 0
        for i, h in enumerate(H):
            bad |= h ^ reduce(or_, [minimal[b] for b, u in enumerate(up) if u >> i & 1], 0)
        bad &= upsets
        out.append(_bad(name, f"closed set {(bad & -bad).bit_length() - 1:b} not covered") if bad else _ok(name))
    else:
        out.append(_skip(name, f"{n} points exceeds the cap of {cap}"))

    name = "antichains-inverse-discrete"
    bad = None
    antichains = [topology.min_mask(space, space.full_mask), topology.max_mask(space, space.full_mask)]
    if n <= ANTICHAIN_SCAN_CAP:
        # bit z of comparable: some point j of z meets z elsewhere in up[j] | down[j], or lies outside it
        slices = engine.point_slices(n)
        comparable = 0
        for j, h in enumerate(slices):
            rel = space.up[j] | space.down[j]
            comparable |= h & reduce(or_, [slices[k] for k in indices_of(rel ^ 1 << j)], 0)
        antichains = engine._set_bits(((1 << (1 << n)) - 1) & ~comparable)
    for am in antichains:
        if am and not topology.antichain_inverse_discrete(space, indices_of(am)):
            bad = am
            break
    out.append(_bad(name, f"antichain {bad:b} not discrete") if bad else _ok(name))

    name = "noetherian-trace-witnesses"
    held, _ = topology.noetherian_trace_holds(space, topology.max_elements(space, range(n)))
    out.append(_ok(name) if held else _bad(name, "trace criterion failed on the maximal points"))

    # engine-side checks on every sub-representation, bit-sliced.
    # R (z represents) is the oracles' raw scan, engine._represents_slice, so
    # the flags stay independent of the fast paths they check, and each
    # member's flags are engine._member_gain_slices, _member_gains on every z
    # at once.  Each check reports its lowest z, then its lowest point b.  As
    # classify_member sets tight = strong and isolated_patch = True, the tight
    # representations are the strong ones and no strong/tight or patch
    # disagreement can arise, so neither is tested.
    analysis = engine.unique_minimal_analysis(family, cap)
    if within_cap:
        crit = analysis.critical
        crit_mask = space.point_mask(crit)
        first: list[tuple[int, int] | None] = [None] * len(FLAG_CHECKS)
        strong_reps = R  # z whose every member is strongly irredundant in z
        for b, h in enumerate(H):
            irr, strong = engine._member_gain_slices(H, R, up, b)
            irr &= R
            strong &= R
            strong_reps &= strong | ~h
            # bit z: up(z) minus b represents, i.e. b is redundant in up(z)
            up_without_b = _read_at_up_sets(engine.clear_point(R, h, b), H, up)
            # bit z: down[b] meets z in more than b (all z when down[b] lacks b)
            meets_below = reduce(or_, [H[k] for k in indices_of(down[b] ^ 1 << b)], 0)
            # strong but redundant; irredundant but not isolated; critical and
            # irredundant but not strong; in a z that is not an up-set, strong
            # but redundant in up(z), or irredundant there but not strong
            hits = (strong & ~irr, irr & meets_below, irr & ~strong if crit_mask >> b & 1 else 0,
                    R & h & ~upsets & ~(strong ^ up_without_b))
            for i, hit in enumerate(hits):
                if hit:
                    z = (hit & -hit).bit_length() - 1
                    if first[i] is None or z < first[i][1]:
                        first[i] = (b, z)
        for name, hit in zip(FLAG_CHECKS, first):
            out.append(_bad(name, f"violated at point {hit[0]} in {hit[1]:b}") if hit else _ok(name))
    else:
        out += [_skip(name, f"{n} points exceeds the cap of {cap}") for name in FLAG_CHECKS]

    name = "critical-fast-path-vs-oracle"
    if within_cap:
        slow = engine.critical_points_oracle(family, cap, scan)
        out.append(_ok(name) if crit == slow else _bad(
            name, f"fast {crit} vs oracle {slow}"))
    else:
        out.append(_skip(name, f"{n} points exceeds the cap of {cap}"))

    # each check reads the fact it is named after; the checks built on a fact skip unless it holds
    minimal_check = _reads("minimal-representation-equivalences", lambda: analysis.minimal_representations)
    unique_check = _reads("unique-minimal-criterion", lambda: analysis.unique)
    out += [minimal_check, unique_check, _reads(
        "strongly-irredundant-existence", lambda: engine.strongly_irredundant_representation(family, cap))]

    name = "at-most-one-strongly-irredundant-representation"
    if not within_cap:
        out.append(_skip(name, f"{n} points exceeds the cap of {cap}"))
    elif unique_check.status != "pass":
        out.append(_skip(name, f"{unique_check.name} did not pass"))
    elif not analysis.cset_represents:
        out.append(_ok(name, "no uniqueness claim without a represented critical core"))
    elif analysis.strongly_irredundant_rep is None or strong_reps != 1 << space.point_mask(
            analysis.strongly_irredundant_rep):
        out.append(_bad(name, "strongly irredundant representations are not the predicted set"))
    else:
        out.append(_ok(name))

    name = "tight-reps-in-distinct-minimal-reps"
    if not within_cap:
        out.append(_skip(name, f"{n} points exceeds the cap of {cap}"))
    elif minimal_check.status != "pass":
        out.append(_skip(name, f"{minimal_check.name} did not pass"))
    else:
        bad = _first_shared_or_lonely(strong_reps, H, [space.point_mask(z) for z in analysis.minimal_representations])
        out.append(_bad(name, bad) if bad else _ok(name))

    return out


def _read_at_up_sets(x: int, H, up) -> int:
    """x read at up-sets: bit z of the result is bit up(z) of x, for a partial order given by its up-masks.

    One conditional force per point j: where z holds j, read x with the
    points above j put in.  Points put in by one force make later forces
    fire too, so on an order that is not transitive this reads x at a set
    past the one-step up(z).
    """
    for j, h in enumerate(H):
        above = up[j] & ~(1 << j)
        if above:
            forced = x
            for k in indices_of(above):
                forced = engine.force_point(forced, H[k], k)
            x = x & ~h | forced & h
    return x


def _below(x: int, H) -> int:
    """Bit z of the result: z lies inside some set whose bit is set in x (a subset zeta transform)."""
    for j, h in enumerate(H):
        x |= engine.force_point(x, h, j)
    return x


def _first_shared_or_lonely(strong_reps: int, H, min_masks) -> str | None:
    """The first fault of tight-reps-in-distinct-minimal-reps, or None.

    In ascending order of the tight representations za: za lies in no
    minimal representation, or shares one with a later tight representation
    zb (the least such zb).  twice holds the sets with at least two tight
    representations inside (a subset zeta transform with counts saturating
    at two); the least tight representation inside such a minimal
    representation m has a later one in m, so the first za is the least
    tight representation that is lonely or lies in such an m.
    """
    bits = bytearray(max(1 << len(H) >> 3, 1))
    for m in min_masks:
        bits[m >> 3] |= 1 << (m & 7)
    minimal = int.from_bytes(bits, "little")
    once, twice = strong_reps, 0
    for j, h in enumerate(H):
        more_once, more_twice = h & engine.clear_point(once, h, j), h & engine.clear_point(twice, h, j)
        twice |= more_twice | once & more_once
        once |= more_once
    lonely = strong_reps & ~_below(minimal, H)
    bad = lonely | strong_reps & _below(minimal & twice, H)
    if not bad:
        return None
    za = (bad & -bad).bit_length() - 1
    if lonely >> za & 1:
        return f"tight representation {za:b} lies in no minimal representation"
    holders = reduce(and_, [H[j] for j in indices_of(za)], minimal)
    later = strong_reps & _below(holders, H) & -(2 << za)
    zb = (later & -later).bit_length() - 1
    return f"tight representations {za:b} and {zb:b} share a minimal representation"


def run_ring_suite(ring: rings.FiniteRing, ideal: rings.RingIdeal | None,
                   cap: int = engine.DEFAULT_POINT_CAP) -> list[CheckResult]:
    out: list[CheckResult] = []
    arithmetical = rings.is_arithmetical(ring)
    out.append(_ok("ideal-lattice-distributivity-decided",
                   "arithmetical" if arithmetical else "not arithmetical"))

    name = "strongly-irreducible-within-irreducible"
    irreducibles = rings.enumerate_ideals(ring, "irreducible")
    irr = {i.sort_key() for i in irreducibles}
    sirr = {i.sort_key() for i in rings.enumerate_ideals(ring, "strongly_irreducible")}
    if not sirr <= irr:
        out.append(_bad(name, "a strongly irreducible ideal failed plain irreducibility"))
    elif arithmetical and sirr != irr:
        out.append(_bad(name, "irreducible and strongly irreducible differ on an arithmetical ring"))
    else:
        out.append(_ok(name))

    if ring.kind == "zmod":
        name = "irreducible-filter-matches-prime-powers"
        fac = rings.factorize(ring.size)
        formula = sorted(p ** k for p, e in fac.items() for k in range(1, e + 1))
        got = sorted(i.generator for i in irreducibles)
        out.append(_ok(name) if got == formula else _bad(name, f"{got} vs {formula}"))

    targets = [ideal] if ideal is not None else rings.enumerate_ideals(ring, "proper")
    if not arithmetical:
        out.append(_skip("decomposition-checks", "ring is not arithmetical"))
        return out

    dec_bad = closed_bad = sat_bad = colon_bad = None
    for a in targets:
        try:
            dec = rings.irredundant_decomposition(ring, a, cap=cap)
        except SpecrepError as exc:
            dec_bad = dec_bad or f"{a.name}: {exc}"
            continue
        if ring.kind == "zmod":
            oracle = sorted(p ** e for p, e in rings.factorize(a.generator).items())
            if sorted(b.generator for b in dec) != oracle:
                dec_bad = dec_bad or f"{a.name}: decomposition differs from the prime-power oracle"
        family = rings.build_irr_space(ring, a)
        if len(family) <= cap:
            closed = engine.unique_minimal_analysis(family, cap).minimal_closed
            if closed != (tuple(range(len(family))),):
                closed_bad = closed_bad or f"{a.name}: a proper closed subfamily represents"
        sats = sorted(
            rings.saturation(a, p).sort_key() for p in rings.max_krull_associated_primes(a)
        )
        mins = sorted(b.sort_key() for b in rings.min_irreducibles_over(ring, a))
        if sats != mins:
            sat_bad = sat_bad or f"{a.name}: saturations differ from the minimal cover"
        if rings.colon(a, ring.one).sort_key() != a.sort_key():
            colon_bad = colon_bad or f"{a.name}: colon by the identity moved the ideal"
    out.append(_bad("decomposition-matches-prime-power-oracle", dec_bad) if dec_bad
               else _ok("decomposition-matches-prime-power-oracle"))
    out.append(_bad("no-proper-closed-subfamily-represents", closed_bad) if closed_bad
               else _ok("no-proper-closed-subfamily-represents"))
    out.append(_bad("saturations-at-max-krull-primes-are-the-minimal-cover", sat_bad) if sat_bad
               else _ok("saturations-at-max-krull-primes-are-the-minimal-cover"))
    out.append(_bad("colon-by-identity-is-identity", colon_bad) if colon_bad
               else _ok("colon-by-identity-is-identity"))
    return out


def _sub_pools(primes) -> list[frozenset]:
    """The sub-pools that encoding-faithfulness pairs up.

    Every sub-pool by size and then in combinations order; past 64 of them,
    the first 32 and the last 32 of that list.  The last are generated from
    the back, as the complements of the first sub-pools read backwards, so
    the 2^k sub-pools are never listed.
    """
    def by_size():
        return (frozenset(c) for r in range(len(primes) + 1) for c in combinations(primes, r))

    if len(primes) <= 6:
        return list(by_size())
    full = frozenset(primes)
    return list(islice(by_size(), 32)) + [full - t for t in islice(by_size(), 32)][::-1]


def run_zr_suite(pool: zrdesk.PrimePool, family: PointFamily | None,
                 members: list[zrdesk.OverringSpec] | None = None,
                 target: zrdesk.OverringSpec | None = None,
                 fixed: zrdesk.OverringSpec | None = None,
                 cap: int = engine.DEFAULT_POINT_CAP, oracle: bool = False) -> list[CheckResult]:
    out: list[CheckResult] = []

    name = "encoding-faithfulness"
    k = len(pool)
    subsets = _sub_pools(pool.primes)
    # the 1/p probes come first, so bit i < k of a probe vector is membership of 1/p_i
    probes = [Fraction(1, p) for p in pool.primes] + [Fraction(1, pool.primes[0] * pool.primes[-1]), Fraction(3)]
    low = (1 << k) - 1
    index = {p: i for i, p in enumerate(pool.primes)}

    def probe_vector(spec):
        v = 0
        for i, q in enumerate(probes):
            if zrdesk.membership(spec, q):
                v |= 1 << i
        return v

    # per ring, not per pair: its spec, its encoded mask and its probe vector;
    # meets go in a dict keyed by mask (e1 & e2 is the mask of t1 | t2),
    # seeded with the listed rings, since a truncated list may lack them
    rings_of = []
    for t in subsets:
        spec = zrdesk.OverringSpec(pool, t)
        m = 0
        for p in t:
            m |= 1 << index[p]
        rings_of.append((t, spec, low ^ m, probe_vector(spec)))
    meets = {e: v for _, _, e, v in rings_of}
    bad = None
    for t1, r1, e1, v1 in rings_of:
        for t2, r2, e2, v2 in rings_of:
            # ring inclusion probed by membership alone: r1 inside r2 when no
            # inverted prime of r1 escapes r2
            ring_le = v1 & ~v2 & low == 0
            if ring_le != (e1 & ~e2 == 0):
                bad = f"inclusion mismatch between {r1.name} and {r2.name}"
                break
            meet = meets.get(e1 & e2)
            if meet is None:
                meet = meets[e1 & e2] = probe_vector(zrdesk.OverringSpec(pool, t1 | t2))
            wrong = (v1 & v2) ^ meet
            if wrong:
                bad = f"intersection mismatch at probe {probes[(wrong & -wrong).bit_length() - 1]}"
                break
        if bad:
            break
    out.append(_bad(name, bad) if bad else _ok(name))

    name = "pool-uniqueness-sweep"
    try:
        report = zrdesk.pool_uniqueness_check(pool, cap, oracle)
        out.append(_ok(name, f"{report.checks} checks") if report.passed
                   else _bad(name, report.failures[0]))
    except CapExceeded as exc:
        out.append(_skip(name, str(exc)))

    name = "canonical-members-witnessed-by-own-primes"
    if family is not None and members is not None and all(len(m.retained) == 1 for m in members):
        zs = tuple(range(len(family)))
        bad = None
        for i, spec in enumerate(members):
            (p,) = spec.retained
            cls = engine.classify_member(family, zs, i)
            others = {q for j, other in enumerate(members) if j != i for q in other.retained}
            expected_irr = p in target.retained and p not in fixed.retained and p not in others
            if expected_irr and not (cls.irredundant and cls.strongly_irredundant
                                     and cls.witness_irredundant == str(p)):
                bad = f"localization at {p} should be irredundant with witness 1/{p}"
                break
        out.append(_bad(name, bad) if bad else _ok(name))
    elif family is not None:
        out.append(_skip(name, "members are not single-prime localizations"))
    else:
        out.append(_skip(name, "no member family given"))
    return out
