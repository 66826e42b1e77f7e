"""The invariant suite must pass on fixtures and randomized instances."""

import pathlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from specrep import engine as E
from specrep import rings as R
from specrep import theorems
from specrep import topology as T
from specrep import zrdesk as Z
from specrep.cli import load_instance
from specrep.errors import ConsistencyError
from specrep.setsystems import represents_mask, to_spec_space
from specrep.topology import indices_of

from helpers import family_from, i1_family, random_representation_family


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def assert_no_failures(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, bad


def test_family_suite_i1():
    results = theorems.run_family_suite(i1_family())
    assert_no_failures(results)
    assert all(r.status == "pass" for r in results)


def test_family_suite_fixtures():
    fixtures = [
        family_from("abcd", "abc", "a", {"B1": "ab", "B2": "ac", "V": "ad"}),
        family_from("abcd", "abcd", "a", {"B1": "ab", "B2": "ac", "P": "abd"}),
        family_from("abcde", "abcde", "a", {"B1": "abd", "B2": "ace", "P": "ade"}),
        family_from("ab", "ab", "a", {"BOT": "a", "TOP": "ab"}),
    ]
    for fam in fixtures:
        assert_no_failures(theorems.run_family_suite(fam))


def test_family_suite_random():
    rng = random.Random(60221)
    for _ in range(25):
        fam = random_representation_family(rng, max_points=7)
        assert_no_failures(theorems.run_family_suite(fam))


def test_ring_suite():
    ring = R.FiniteRing.zmod(12)
    assert_no_failures(theorems.run_ring_suite(ring, R.zmod_ideal(ring, 6)))
    assert_no_failures(theorems.run_ring_suite(ring, None))
    r360 = R.FiniteRing.zmod(360)
    assert_no_failures(theorems.run_ring_suite(r360, R.zmod_ideal(r360, 60)))


def test_ring_suite_non_arithmetical_skips():
    def mulf(i, j):
        a1, b1, c1 = i & 1, i >> 1 & 1, i >> 2 & 1
        a2, b2, c2 = j & 1, j >> 1 & 1, j >> 2 & 1
        return (a1 & a2) | ((a1 & b2 ^ a2 & b1) << 1) | ((a1 & c2 ^ a2 & c1) << 2)

    ring = R.FiniteRing.from_tables(
        [[i ^ j for j in range(8)] for i in range(8)],
        [[mulf(i, j) for j in range(8)] for i in range(8)],
    )
    results = theorems.run_ring_suite(ring, None)
    assert_no_failures(results)
    assert any(r.status == "skip" for r in results)


def test_zr_suite():
    pool = Z.PrimePool.of([2, 3, 5])
    target = Z.OverringSpec.of(pool, [2, 3, 5])
    fixed = Z.OverringSpec.of(pool, [])
    members = [Z.OverringSpec.of(pool, [p]) for p in (2, 3, 5)]
    family = Z.encode(pool, target, fixed, members)
    assert_no_failures(theorems.run_zr_suite(pool, family, members, target, fixed))


def reference_encoding_faithfulness(pool):
    """The first fault of encoding-faithfulness, from a plain loop over all ring pairs."""
    k = len(pool)
    subsets = [frozenset(c) for r in range(k + 1) for c in combinations(pool.primes, r)]
    if len(subsets) > 64:
        subsets = subsets[:32] + subsets[-32:]
    probes = [Fraction(1, p) for p in pool.primes] + [Fraction(1, pool.primes[0] * pool.primes[-1]), Fraction(3)]

    def enc(t):
        return sum(1 << i for i, p in enumerate(pool.primes) if p not in t)

    for t1 in subsets:
        r1 = Z.OverringSpec(pool, t1)
        for t2 in subsets:
            r2 = Z.OverringSpec(pool, t2)
            ring_le = all(Z.membership(r2, Fraction(1, p)) or not Z.membership(r1, Fraction(1, p))
                          for p in pool.primes)
            if ring_le != (enc(t1) & ~enc(t2) == 0):
                return f"inclusion mismatch between {r1.name} and {r2.name}"
            meet = Z.OverringSpec(pool, t1 | t2)
            for q in probes:
                if (Z.membership(r1, q) and Z.membership(r2, q)) != Z.membership(meet, q):
                    return f"intersection mismatch at probe {q}"
    return None


def faithfulness(pool):
    (result,) = [r for r in theorems.run_zr_suite(pool, None) if r.name == "encoding-faithfulness"]
    return result


POOLS = [(2, 3, 5), (2, 3, 5, 7, 11, 13, 17)]  # 2^7 subsets: the list is truncated to 64


@pytest.mark.parametrize("primes", POOLS)
def test_encoding_faithfulness_passes(primes):
    pool = Z.PrimePool.of(primes)
    assert reference_encoding_faithfulness(pool) is None
    assert faithfulness(pool) == theorems.CheckResult("encoding-faithfulness", "pass")


def _ignores_prime(p):
    real = Z.membership

    def membership(ring, q):
        return real(Z.OverringSpec(ring.pool, ring.retained - {p}), q)

    return membership


@pytest.mark.parametrize("primes", POOLS)
@pytest.mark.parametrize("fault", ["ignore-3", "ignore-largest", "meets-misread-composite-probes"])
def test_encoding_faithfulness_catches_a_faulty_membership(monkeypatch, primes, fault):
    pool = Z.PrimePool.of(primes)
    if fault == "ignore-3":
        leaky = _ignores_prime(3)
    elif fault == "ignore-largest":
        leaky = _ignores_prime(primes[-1])
    else:
        real = Z.membership

        def leaky(ring, q):  # right at every 1/p, wrong at 1/(p0 pk) and 3 on rings of 2+ primes
            q = Fraction(q)
            wrong = len(ring.retained) > 1 and not (q.numerator == 1 and q.denominator in ring.pool.primes)
            return real(ring, q) != wrong

    monkeypatch.setattr(Z, "membership", leaky)
    want = reference_encoding_faithfulness(pool)
    assert want is not None
    if fault == "meets-misread-composite-probes":  # both probes fail at once; the first one is named
        assert want == f"intersection mismatch at probe 1/{primes[0] * primes[-1]}"
    assert faithfulness(pool) == theorems.CheckResult("encoding-faithfulness", "fail", want)


# --- the engine-side half of run_family_suite against its per-check loops

CLASSIFIED_CHECKS = (
    "irredundance-flag-hierarchy",
    "irredundant-implies-isolated",
    "critical-irredundant-implies-strongly",
    "tight-equals-irredundant-in-up-closure",
    "at-most-one-strongly-irredundant-representation",
    "tight-reps-in-distinct-minimal-reps",
)


def test_family_suite_reads_the_subbasis_once_per_kind(monkeypatch):
    calls = Counter()
    real = T.spectral_subbasis

    def counted(space):
        calls["subbasis"] += 1
        return real(space)

    monkeypatch.setattr(T, "spectral_subbasis", counted)
    for family in (i1_family(), family_from("abcd", "abcd", "", {"P": "ab", "Q": "bc", "R": "cd", "S": "a"})):
        calls.clear()
        assert_no_failures(theorems.run_family_suite(family))
        assert calls["subbasis"] == len(T.KINDS)


def _rep_masks(family):
    return [z for z in range(1, 1 << len(family)) if represents_mask(family, z)]


def reference_classified_checks(family):
    """The checks that read classify_member, one loop per check, each rescanning
    and reclassifying; for families within the exhaustive sub-family cap."""
    space = to_spec_space(family)
    crit_mask = space.point_mask(E.unique_minimal_analysis(family).critical)
    out = []

    hier = iso = corr = removal = None
    for zmask in _rep_masks(family):
        zs = indices_of(zmask)
        upz = T.up_mask(space, zmask)
        for b in zs:
            cls = E.classify_member(family, zs, b)
            if (cls.strongly_irredundant and not cls.irredundant) or (
                    cls.strongly_irredundant != cls.tightly_irredundant):
                hier = hier or (b, zmask)
            if cls.irredundant and not (cls.isolated_spectral and cls.isolated_patch):
                iso = iso or (b, zmask)
            if crit_mask >> b & 1 and cls.irredundant and not cls.strongly_irredundant:
                corr = corr or (b, zmask)
            if upz != zmask:
                in_up = E.classify_member(family, indices_of(upz), b)
                if cls.tightly_irredundant != in_up.irredundant:
                    removal = removal or (b, zmask)
    for name, hit in zip(CLASSIFIED_CHECKS, (hier, iso, corr, removal)):
        out.append((name, "fail", f"violated at point {hit[0]} in {hit[1]:b}") if hit else (name, "pass", ""))

    name = CLASSIFIED_CHECKS[4]
    analysis = E.unique_minimal_analysis(family)
    strong_reps = []
    for zmask in _rep_masks(family):
        zs = indices_of(zmask)
        if all(E.classify_member(family, zs, b).strongly_irredundant for b in zs):
            strong_reps.append(zmask)
    if not analysis.cset_represents:
        out.append((name, "pass", "no uniqueness claim without a represented critical core"))
    elif analysis.strongly_irredundant_rep is None or strong_reps != [
            space.point_mask(analysis.strongly_irredundant_rep)]:
        out.append((name, "fail", "strongly irredundant representations are not the predicted set"))
    else:
        out.append((name, "pass", ""))

    name = CLASSIFIED_CHECKS[5]
    min_masks = [space.point_mask(z) for z in E.unique_minimal_analysis(family).minimal_representations]
    containers = {}
    for zmask in _rep_masks(family):
        zs = indices_of(zmask)
        if all(E.classify_member(family, zs, b).tightly_irredundant for b in zs):
            containers[zmask] = frozenset(m for m in min_masks if zmask & ~m == 0)
    bad = None
    items = list(containers.items())
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
    out.append((name, "fail", bad) if bad else (name, "pass", ""))
    return out


def _fault_families():
    rng = random.Random(60223)
    return [
        i1_family(),
        family_from("abcd", "abc", "a", {"B1": "ab", "B2": "ac", "V": "ad"}),
        family_from("abcde", "abcde", "a", {"B1": "abd", "B2": "ace", "P": "ade"}),
    ] + [random_representation_family(rng, max_points=7) for _ in range(12)]


def _fault_plan(family, fault):
    """(representation mask or None, member or None for all of them, what to force on its gains).

    Tight irredundance is the strong flag by construction, so every fault
    acts on the strong gain: forced on (with or without the plain gain),
    forced off, or flipped (which flips the tight flag with it).
    """
    space = to_spec_space(family)
    minimal = sorted(space.point_mask(z) for z in E.unique_minimal_analysis(family).minimal_representations)
    reps = _rep_masks(family)
    non_minimal = [z for z in reps if z not in minimal] + [None]
    if fault == "strong-on-in-a-non-minimal-rep":
        return non_minimal[0], None, "strong-on"
    if fault == "irredundant-and-strong-on-in-a-non-minimal-rep":
        return non_minimal[0], None, "both-on"
    if fault == "tight-flipped-on-one-member":
        return reps[-1], indices_of(reps[-1])[-1], "strong-flipped"
    if fault == "strong-off-on-one-member-of-a-minimal-rep":
        return minimal[0], indices_of(minimal[0])[0], "strong-off"
    raise AssertionError(fault)


def _forced_gains(gained, gained_strong, fixed, target, force):
    some = fixed & ~target  # nonempty, as A is a proper subset of C
    if force == "strong-on":
        return gained, some
    if force == "both-on":
        return some, some
    if force == "strong-off":
        return gained, 0
    return gained, 0 if gained_strong else some


HIER, ISO, CORR, REMOVAL, AT_MOST_ONE, DISTINCT = CLASSIFIED_CHECKS

# each fault, and exactly the checks it fails on some fault family
FAULT_REACHES = {
    "strong-on-in-a-non-minimal-rep": {HIER, REMOVAL, AT_MOST_ONE, DISTINCT},
    "irredundant-and-strong-on-in-a-non-minimal-rep": {ISO, REMOVAL, AT_MOST_ONE, DISTINCT},
    "tight-flipped-on-one-member": {HIER, CORR, AT_MOST_ONE, DISTINCT},
    "strong-off-on-one-member-of-a-minimal-rep": {CORR, REMOVAL, AT_MOST_ONE},
}


def test_helper_faults_reach_every_check_the_classification_faults_reached():
    # the checks that faults injected into classify_member failed before the
    # suite read engine._member_gains directly
    assert set().union(*FAULT_REACHES.values()) >= {HIER, AT_MOST_ONE, DISTINCT}


@pytest.mark.parametrize("fault", FAULT_REACHES)
def test_family_suite_matches_per_check_loops_under_a_faulty_classification(monkeypatch, fault):
    """A fault in the helper reaches the suite and classify_member alike, and
    the suite reports what the per-check loops over classify_member report."""
    real = E._member_gains
    failed = set()
    for family in _fault_families():
        fault_zmask, member, force = _fault_plan(family, fault)
        if fault_zmask is None:
            continue

        def faulty(inter, up, zmask, b, fixed, target):
            gained, gained_strong = real(inter, up, zmask, b, fixed, target)
            if up is family.space.up and zmask == fault_zmask and member in (None, b):
                return _forced_gains(gained, gained_strong, fixed, target, force)
            return gained, gained_strong

        clean = theorems.run_family_suite(family)
        monkeypatch.setattr(E, "_member_gains", faulty)
        got = [(r.name, r.status, r.detail) for r in theorems.run_family_suite(family)]
        want = {name: (name, status, detail) for name, status, detail in reference_classified_checks(family)}
        monkeypatch.setattr(E, "_member_gains", real)
        assert got == [want.get(r.name, (r.name, r.status, r.detail)) for r in clean], family
        failed |= {name for name, status, _ in got if status == "fail"}
    assert failed == FAULT_REACHES[fault]


def test_family_suite_scans_once_and_classifies_each_pair_once(monkeypatch):
    rng = random.Random(60224)
    families = [random_representation_family(rng, max_points=9) for _ in range(30)]
    families = [i1_family()] + [f for f in families if len(f) >= 5][:3]
    assert len(families) == 4
    # above the exhaustive cap only the full family is classified
    families.append(load_instance(str(FIXTURES / "setsys13.json")).family)
    assert len(families[-1]) > theorems.EXHAUSTIVE_SUBFAMILY_CAP
    assert not hasattr(theorems, "represents_mask")
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for family in families:
        space = to_spec_space(family)
        exhaustive = len(family) <= theorems.EXHAUSTIVE_SUBFAMILY_CAP
        reps = _rep_masks(family) if exhaustive else [space.full_mask]
        counts.clear()
        E.unique_minimal_analysis.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(E, "point_slices", counted("slices", E.point_slices))
            m.setattr(E, "_member_gains", counted("gains", E._member_gains))
            m.setattr(E, "classify_member", counted("classify", E.classify_member))
            m.setattr(E, "critical_mask", counted("critical", E.critical_mask))
            results = theorems.run_family_suite(family)
        assert_no_failures(results)
        # the one bit-sliced scan is critical_points_oracle's; the suite's own
        # table up to the cap doubles the raw members
        assert counts["slices"] == 1
        assert counts["classify"] == 0
        # each (representation, member) pair once, and once more in the
        # up-closure of a representation that is not closed
        not_closed = [z for z in reps if T.up_mask(space, z) != z]
        assert counts["gains"] == sum(z.bit_count() for z in reps) + sum(z.bit_count() for z in not_closed)
        assert counts["critical"] == 1


def _drop_an_open(kind):
    """generate_topology with an open dropped from the `kind` topology.

    The first neighbourhood U_i short of every point is widened by the
    lowest point outside it, so U_i is no longer the smallest open around i.
    """
    real = T.generate_topology

    def faulty(space, k):
        top = real(space, k)
        if k != kind:
            return top
        us = list(top.neighbourhoods)
        i = next(i for i, u in enumerate(us) if u != space.full_mask)
        us[i] |= ~us[i] & (us[i] + 1)
        return T.Topology(top.size, top.origin, tuple(us))
    return faulty


def _flip_leq(i, j):
    real = T.SpecSpace.leq

    def faulty(self, a, b):
        return real(self, a, b) != ((a, b) == (i, j))
    return faulty


def _flip_closure_mask(kind, ymask):
    real = T.closure_mask

    def faulty(space, y, k):
        return real(space, y, k) ^ (1 if (y, k) == (ymask, kind) else 0)
    return faulty


def _flip_specialization(i, j):
    real = T.Topology.specialization_leq

    def faulty(self, a, b):
        return real(self, a, b) != ((a, b) == (i, j))
    return faulty


def _flip_closure_of(kind, ymask):
    real = T.Topology.closure_of

    def faulty(self, y):
        return real(self, y) ^ (1 if (y, self.origin) == (ymask, kind) else 0)
    return faulty


# route fault -> (target, attribute, faulty replacement, the check that must fail, its detail)
ROUTE_FAULTS = {
    **{f"dropped-{kind}-open": (T, "generate_topology", _drop_an_open(kind), "topology-generator-equivalence",
                                f"{kind} topology differs from its order fast path") for kind in T.KINDS},
    "leq-flipped": (T.SpecSpace, "leq", _flip_leq(0, 1), "specialization-order-matches-inclusion",
                    "order mismatch at point pair (0, 1)"),
    "specialization-flipped": (T.Topology, "specialization_leq", _flip_specialization(1, 0),
                               "specialization-order-matches-inclusion", "order mismatch at point pair (1, 0)"),
    **{f"closure-mask-flipped-{kind}": (T, "closure_mask", _flip_closure_mask(kind, 0b10),
                                        "closure-fast-path-vs-topology", f"closure mismatch in {kind} at subset 10")
       for kind in T.KINDS},
    **{f"closure-of-flipped-{kind}": (T.Topology, "closure_of", _flip_closure_of(kind, 0b110),
                                      "closure-fast-path-vs-topology", f"closure mismatch in {kind} at subset 110")
       for kind in T.KINDS},
}


@pytest.mark.parametrize("fault", ROUTE_FAULTS)
def test_topology_checks_fail_when_one_route_is_mutated(monkeypatch, fault):
    """Each generated-topology check still compares two routes: mutating either side fails it."""
    target, attr, faulty, check, detail = ROUTE_FAULTS[fault]
    clean = {r.name: r for r in theorems.run_family_suite(i1_family())}
    assert {r.status for r in clean.values()} == {"pass"}
    with monkeypatch.context() as m:
        m.setattr(target, attr, faulty)
        got = {r.name: r for r in theorems.run_family_suite(i1_family())}
    assert (got[check].status, got[check].detail) == ("fail", detail)
    if not fault.startswith("dropped"):
        assert [name for name in got if got[name] != clean[name]] == [check]


def _flip_first_critical(real):
    def faulty(*args):
        crit, cset, cset_represents, srep = real(*args)
        return crit ^ 1, cset, cset_represents, srep
    return faulty


def _no_srep(real):
    def faulty(*args):
        crit, cset, cset_represents, _ = real(*args)
        return crit, cset, cset_represents, None
    return faulty


def _raise_consistency(real):
    def faulty(*args):
        raise ConsistencyError("injected minimal-points fault")
    return faulty


def _flip_critical_mask(real):
    def faulty(family):
        return real(family) ^ 1
    return faulty


def _first_member_full(real):
    def faulty(family):
        members = (family.context.full_mask,) + family.members[1:]
        return E.SplitTable(family.context.full_mask, members)
    return faulty


AT_MOST_ONE = "at-most-one-strongly-irredundant-representation"
MINIMAL_POINT_CHECKS = {
    "minimal-representation-equivalences": "fail", "unique-minimal-criterion": "fail",
    "strongly-irredundant-existence": "fail", AT_MOST_ONE: "skip",
    "tight-reps-in-distinct-minimal-reps": "skip"}

# stage -> (fault, the checks whose status changes from a clean run)
STAGE_FAULTS = {
    "analysis_core-critical": ("analysis_core", _flip_first_critical, {
        "unique-minimal-criterion": "fail", AT_MOST_ONE: "skip"}),
    "analysis_core-srep": ("analysis_core", _no_srep, {AT_MOST_ONE: "fail"}),
    "minimal-points": ("_minimal_points_checked", _raise_consistency, MINIMAL_POINT_CHECKS),
    # the suite's flags come from its own raw table, so a faulty analysis table shows
    "intersection_table": ("intersection_table", _first_member_full, MINIMAL_POINT_CHECKS),
    "critical_mask": ("critical_mask", _flip_critical_mask, {
        "critical-fast-path-vs-oracle": "fail", "unique-minimal-criterion": "fail", AT_MOST_ONE: "skip"}),
}


def _clear_engine_caches():
    for obj in vars(E).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


@pytest.mark.parametrize("fault", STAGE_FAULTS)
def test_family_suite_fails_the_checks_named_after_a_faulty_stage(monkeypatch, fault):
    """A fault injected into one engine stage fails exactly the checks that read it."""
    stage, make, changed = STAGE_FAULTS[fault]
    _clear_engine_caches()
    clean = {r.name: r.status for r in theorems.run_family_suite(i1_family())}
    assert set(clean.values()) == {"pass"}
    _clear_engine_caches()
    with monkeypatch.context() as m:
        m.setattr(E, stage, make(getattr(E, stage)))
        got = {r.name: r.status for r in theorems.run_family_suite(i1_family())}
    _clear_engine_caches()
    assert {name: status for name, status in got.items() if status != clean[name]} == changed
