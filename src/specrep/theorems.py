"""Cross-operation identity suite: every instance must satisfy the theory.

Each check pits one route against another (generator vs fast path, fast
test vs exhaustive oracle, flag vs flag) and reports pass/fail/skip; a skip
happens only when an enumeration would blow a cap.  The CLI's check-theorems
command runs the suite and fails loudly with the violated check's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations

from . import engine, rings, topology, zrdesk
from .errors import CapExceeded, ConsistencyError, SpecrepError
from .setsystems import PointFamily, intersection_mask, validate_representation
from .topology import indices_of

EXHAUSTIVE_SUBFAMILY_CAP = 12


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
    generator_cap = topology.DEFAULT_GENERATOR_CAP

    ok, witness = validate_representation(family)
    out.append(_ok("family-represents-target") if ok else _bad(
        "family-represents-target", f"element {witness!r} separates the intersection from the target"))
    if not ok:
        return out

    # generator vs order fast paths
    if n <= generator_cap:
        name = "topology-generator-equivalence"
        # every kind is generated first, so the checks below read all three
        # even when one of them differs from its fast path
        tops = {kind: topology.generate_topology(space, kind, cap=generator_cap) for kind in topology.KINDS}
        bad = next((kind for kind, top in tops.items() if top.opens != topology.fast_opens(space, kind)
                    or not topology.family_is_topology(top.opens, n, top.meets)), None)
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
    else:
        for name in ("topology-generator-equivalence", "specialization-order-matches-inclusion",
                     "closure-fast-path-vs-topology"):
            out.append(_skip(name, f"{n} points exceeds the generator cap of {generator_cap}"))

    name = "closed-sets-covered-by-minimal-points"
    if n <= cap:
        bad = None
        for y in engine.upset_masks(space):
            if y and topology.up_mask(space, topology.min_mask(space, y)) != y:
                bad = y
                break
        out.append(_bad(name, f"closed set {bad:b} not covered") if bad else _ok(name))
    else:
        out.append(_skip(name, f"{n} points exceeds the cap of {cap}"))

    name = "antichains-inverse-discrete"
    bad = None
    antichains = [topology.min_mask(space, space.full_mask), topology.max_mask(space, space.full_mask)]
    if n <= EXHAUSTIVE_SUBFAMILY_CAP:
        antichains = [m for m in range(1, space.full_mask + 1) if topology.is_antichain(space, m)]
    for am in antichains:
        if am and not topology.antichain_inverse_discrete(space, indices_of(am)):
            bad = am
            break
    out.append(_bad(name, f"antichain {bad:b} not discrete") if bad else _ok(name))

    name = "noetherian-trace-witnesses"
    held, _ = topology.noetherian_trace_holds(space, topology.max_elements(space, range(n)))
    out.append(_ok(name) if held else _bad(name, "trace criterion failed on the maximal points"))

    # engine-side checks on the full family plus every sub-representation we
    # can afford, read from the raw members: up to the cap one 2^n table from
    # the oracles' blocked scan gives the sub-representations, and each flag
    # comes from engine._member_gains, the test classify_member wraps.  As
    # classify_member sets tight = strong and isolated_patch = True, the tight
    # representations are the strong ones and no strong/tight or patch
    # disagreement can arise, so neither is tested.
    ctx = family.context
    fixed, target = ctx.fixed_mask, ctx.target_mask
    exhaustive = n <= EXHAUSTIVE_SUBFAMILY_CAP
    if exhaustive:
        table = list(chain.from_iterable(block for _, block, _ in engine._raw_subset_blocks(family)))
        inter = table.__getitem__
        zmasks = [z for z in range(1, space.full_mask + 1) if table[z] & fixed == target]
    else:
        inter = partial(intersection_mask, family)
        zmasks = [space.full_mask]
    analysis = engine.unique_minimal_analysis(family, cap)
    crit = analysis.critical
    crit_mask = space.point_mask(crit)

    hier = iso = corr = removal = None
    strong_reps = []
    for zmask in zmasks:
        upz = topology.up_mask(space, zmask)
        all_strong = True
        for b in indices_of(zmask):
            irr, strong = map(bool, engine._member_gains(inter, space.up, zmask, b, fixed, target))
            all_strong = all_strong and strong
            if strong and not irr:
                hier = hier or (b, zmask)
            if irr and space.down[b] & zmask != 1 << b:
                iso = iso or (b, zmask)
            if crit_mask >> b & 1 and irr and not strong:
                corr = corr or (b, zmask)
            if upz != zmask and strong != bool(engine._member_gains(inter, space.up, upz, b, fixed, target)[0]):
                removal = removal or (b, zmask)
        if all_strong:
            strong_reps.append(zmask)
    out.append(_bad("irredundance-flag-hierarchy", f"violated at point {hier[0]} in {hier[1]:b}") if hier
               else _ok("irredundance-flag-hierarchy"))
    out.append(_bad("irredundant-implies-isolated", f"violated at point {iso[0]} in {iso[1]:b}") if iso
               else _ok("irredundant-implies-isolated"))
    out.append(_bad("critical-irredundant-implies-strongly", f"violated at point {corr[0]} in {corr[1]:b}")
               if corr else _ok("critical-irredundant-implies-strongly"))
    out.append(_bad("tight-equals-irredundant-in-up-closure", f"violated at point {removal[0]} in {removal[1]:b}")
               if removal else _ok("tight-equals-irredundant-in-up-closure"))

    name = "critical-fast-path-vs-oracle"
    if n <= cap:
        slow = engine.critical_points_oracle(family, cap)
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
    if unique_check.status == "pass" and exhaustive:
        if analysis.cset_represents:
            expect = None if analysis.strongly_irredundant_rep is None else space.point_mask(
                analysis.strongly_irredundant_rep)
            if expect is None or strong_reps != [expect]:
                out.append(_bad(name, "strongly irredundant representations are not the predicted set"))
            else:
                out.append(_ok(name))
        else:
            out.append(_ok(name, "no uniqueness claim without a represented critical core"))
    else:
        out.append(_skip(name, "exhaustive sub-family search out of reach"))

    name = "tight-reps-in-distinct-minimal-reps"
    if minimal_check.status == "pass" and exhaustive:
        min_masks = [space.point_mask(z) for z in analysis.minimal_representations]
        items = [(z, frozenset(m for m in min_masks if z & ~m == 0)) for z in strong_reps]
        bad = None
        for i, (za, ca) in enumerate(items):
            if not ca:
                bad = f"tight representation {za:b} lies in no minimal representation"
                break
            for zb, cb in items[i + 1:]:
                if ca & cb:
                    bad = f"tight representations {za:b} and {zb:b} share a minimal representation"
                    break
            if bad:
                break
        out.append(_bad(name, bad) if bad else _ok(name))
    else:
        out.append(_skip(name, "exhaustive sub-family search out of reach"))

    return out


def run_ring_suite(ring: rings.FiniteRing, ideal: rings.RingIdeal | None,
                   cap: int = engine.DEFAULT_POINT_CAP) -> list[CheckResult]:
    out: list[CheckResult] = []
    arithmetical = rings.is_arithmetical(ring)
    out.append(_ok("ideal-lattice-distributivity-decided",
                   "arithmetical" if arithmetical else "not arithmetical"))

    name = "strongly-irreducible-within-irreducible"
    irr = {i.sort_key() for i in rings.enumerate_ideals(ring, "irreducible")}
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
        got = sorted(i.generator for i in rings.enumerate_ideals(ring, "irreducible"))
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


def run_zr_suite(pool: zrdesk.PrimePool, family: PointFamily | None,
                 members: list[zrdesk.OverringSpec] | None = None,
                 target: zrdesk.OverringSpec | None = None,
                 fixed: zrdesk.OverringSpec | None = None,
                 cap: int = engine.DEFAULT_POINT_CAP, oracle: bool = False) -> list[CheckResult]:
    out: list[CheckResult] = []

    name = "encoding-faithfulness"
    k = len(pool)
    subsets = [frozenset(c) for r in range(k + 1) for c in combinations(pool.primes, r)]
    if len(subsets) > 64:
        subsets = subsets[:32] + subsets[-32:]
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
    # meets go in a dict keyed by mask (e1 & e2 is the mask of t1 | t2), since
    # a truncated list may lack them
    rings_of = []
    for t in subsets:
        spec = zrdesk.OverringSpec(pool, t)
        m = 0
        for p in t:
            m |= 1 << index[p]
        rings_of.append((t, spec, low ^ m, probe_vector(spec)))
    meets: dict[int, int] = {}
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
