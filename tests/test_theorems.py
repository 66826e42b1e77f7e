"""The invariant suite must pass on fixtures and randomized instances."""

import json
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from specrep import cli
from specrep import engine as E
from specrep import rings as R
from specrep import setsystems as S
from specrep import theorems
from specrep import topology as T
from specrep import zrdesk as Z
from specrep.cli import load_instance
from specrep.errors import ConsistencyError, SpecrepError
from specrep.setsystems import PointFamily, represents_mask
from specrep.topology import SpecSpace

from helpers import (SUBFAMILY_CHECKS, closed_sets_check_by_loop, family_from, first_shared_or_lonely_by_loop,
                     i1_family, random_representation_family, subfamily_checks_by_loop)


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


def test_sub_pools_are_the_ends_of_the_full_list():
    for k in range(1, 17):
        primes = tuple(range(2, 2 + k))
        every = [frozenset(c) for r in range(k + 1) for c in combinations(primes, r)]
        assert theorems._sub_pools(primes) == (every if len(every) <= 64 else every[:32] + every[-32:]), k


def test_zr_suite_on_22_primes_lists_no_sub_pool_beyond_the_64(capsys, tmp_path):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79]
    path = tmp_path / "zr22.json"
    path.write_text(json.dumps({"schema": 1, "zr": {"pool": primes}}), encoding="utf-8")
    t0 = time.perf_counter()
    code = cli.main(["check-theorems", str(path)])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 4)
    assert {c["name"]: c["status"] for c in out["checks"]}["encoding-faithfulness"] == "pass"
    assert elapsed < 1.0  # listing all 2^22 sub-pools took several seconds and gigabytes


# --- the bit-sliced sub-representation checks against the per-subfamily loop

HIER, ISO, CORR, REMOVAL, AT_MOST_ONE, DISTINCT = SUBFAMILY_CHECKS


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


def _clear_engine_caches():
    for obj in vars(E).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def _sliced_and_looped(family):
    """The six checks by the suite and by the loop, each from fresh caches, as {name: (status, detail)}."""
    _clear_engine_caches()
    got = {r.name: (r.status, r.detail) for r in theorems.run_family_suite(family) if r.name in SUBFAMILY_CHECKS}
    _clear_engine_caches()
    want = subfamily_checks_by_loop(family)
    _clear_engine_caches()
    return got, want


def _fixture_families(most):
    """The families that check-theorems runs the family suite on, from every fixture of at most `most` points."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            inst = load_instance(str(path))
        except SpecrepError:
            continue
        if inst.kind == "ring":
            if inst.ideal is None or not R.is_arithmetical(inst.ring):
                continue
            family = R.build_irr_space(inst.ring, inst.ideal)
        else:
            family = inst.family
        if family is not None and len(family) <= most:
            out.append((path.name, family))
    return out


def test_sliced_checks_match_the_loop_on_random_families():
    rng = random.Random(60225)
    for _ in range(40):
        family = random_representation_family(rng, max_universe=8, max_points=12)
        got, want = _sliced_and_looped(family)
        assert got == want, family


def test_sliced_checks_match_the_loop_on_the_fixtures():
    # the loop takes 2^n Python steps, so the 18- and 20-point fixtures are left to the suite alone
    cases = _fixture_families(13)
    assert {"i1.json", "setsys13.json", "zmod2560.json", "zr_pool235.json"} <= {name for name, _ in cases}
    for name, family in cases:
        got, want = _sliced_and_looped(family)
        assert got == want, name
        assert {status for status, _ in got.values()} == {"pass"}, name


def _with_up(family, up):
    """A copy of family whose order is the given up-masks (and their transpose as down-masks).

    The copy equals the family, so the engine's caches must be cleared around it.
    """
    n = len(family)
    space = SpecSpace(family.members, len(family.context.universe))
    object.__setattr__(space, "up", tuple(up))
    object.__setattr__(space, "down", tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)))
    faulty = PointFamily(family.context, family.names, family.members)
    vars(faulty)["space"] = space
    return faulty


def _with_down(family, down):
    """A copy of family whose down-masks are the given ones, its up-masks kept.

    The copy equals the family, so the engine's caches must be cleared around it.
    """
    space = SpecSpace(family.members, len(family.context.universe))
    object.__setattr__(space, "down", tuple(down))
    faulty = PointFamily(family.context, family.names, family.members)
    vars(faulty)["space"] = space
    return faulty


def _drop_a_cover(family, k):
    """The order without its k-th cover i < j (nothing strictly between): still a partial order."""
    space = family.space
    covers = [(i, j) for i in range(len(family)) for j in range(len(family))
              if i != j and space.up[i] & space.down[j] == 1 << i | 1 << j]
    if k >= len(covers):
        return None
    i, j = covers[k]
    return _with_up(family, [u & ~(1 << j) if a == i else u for a, u in enumerate(space.up)])


def _add_a_relation(family, k):
    """The order with i < j added for its k-th incomparable pair, closed transitively: still a partial order."""
    space = family.space
    pairs = [(i, j) for i in range(len(family)) for j in range(len(family))
             if i != j and not (space.up[i] | space.down[i]) >> j & 1]
    if k >= len(pairs):
        return None
    i, j = pairs[k]
    return _with_up(family, [u | space.up[j] if space.down[i] >> a & 1 else u for a, u in enumerate(space.up)])


def _patched_analysis(stage, change):
    """A fault in one analysis stage: change(output, family) replaces what E.<stage> returns."""
    def patch(monkeypatch, family):
        real = getattr(E, stage)
        monkeypatch.setattr(E, stage, lambda *args: change(real(*args), family))
    return patch


def _srep_without_its_lowest_point(out, family):
    crit, cset, cset_represents, srep = out
    return crit, cset, cset_represents, None if srep is None else srep & srep - 1


def _first_minimal_rep_without_its_lowest_point(minreps, family):
    return [minreps[0] & minreps[0] - 1] + minreps[1:]


def _first_minimal_rep_with_one_more_point(minreps, family):
    outside = ~minreps[0] & (1 << len(family)) - 1
    return [minreps[0] | outside & -outside] + minreps[1:]


def _critical_mask_with_one_more_point(crit, family):
    outside = ~crit & (1 << len(family)) - 1
    return crit | outside & -outside


def _strong_forced_on(monkeypatch, family):
    """A per-member fact both routes read, faulted alike: every point redundant in the full family Z
    is strongly irredundant in Z, in the gains of the loop and in the slices of the suite."""
    full = (1 << len(family)) - 1
    redundant = [b for b in range(len(family)) if represents_mask(family, full ^ 1 << b)]
    if not redundant:
        return False
    gains, slices = E._member_gains, E._member_gain_slices

    def faulty_gains(inter, up, zmask, b, fixed, target):
        gained, gained_strong = gains(inter, up, zmask, b, fixed, target)
        return gained, fixed & ~target if zmask == full and b in redundant else gained_strong

    def faulty_slices(H, R, up, b):
        irr, strong = slices(H, R, up, b)
        return irr, strong | (1 << full if b in redundant else 0)

    monkeypatch.setattr(E, "_member_gains", faulty_gains)
    monkeypatch.setattr(E, "_member_gain_slices", faulty_slices)
    return True


# each fault, and exactly the checks it fails on some fault family.  Dropping a
# cover keeps every one of the six facts true (a subset of j that leaves the
# up-set of i is still inside j), so it checks only that the routes agree.
ORDER_FAULTS = {"drop-a-cover": (_drop_a_cover, set()), "add-a-relation": (_add_a_relation, {ISO, CORR, REMOVAL})}
PATCH_FAULTS = {
    "srep-without-a-point": (_patched_analysis("analysis_core", _srep_without_its_lowest_point), {AT_MOST_ONE}),
    "minimal-rep-shrunk": (_patched_analysis("_minimal_points_checked", _first_minimal_rep_without_its_lowest_point),
                           {DISTINCT}),
    "minimal-rep-grown": (_patched_analysis("_minimal_points_checked", _first_minimal_rep_with_one_more_point),
                          {DISTINCT}),
    "critical-point-added": (_patched_analysis("critical_mask", _critical_mask_with_one_more_point), {CORR}),
    "strong-forced-on": (_strong_forced_on, {HIER, AT_MOST_ONE, DISTINCT}),
}


def _fault_families():
    rng = random.Random(60223)
    return [
        i1_family(),
        family_from("abcd", "abc", "a", {"B1": "ab", "B2": "ac", "V": "ad"}),
        family_from("abcde", "abcde", "a", {"B1": "abd", "B2": "ace", "P": "ade"}),
    ] + [random_representation_family(rng, max_universe=7, max_points=9) for _ in range(40)]


def test_distinct_minimal_reps_check_reports_the_loops_first_fault():
    rng = random.Random(60226)
    for _ in range(300):
        n = rng.randint(1, 6)
        strong_reps = sorted(rng.sample(range(1, 1 << n), rng.randint(0, min(6, (1 << n) - 1))))
        min_masks = rng.sample(range(1, 1 << n), rng.randint(0, min(4, (1 << n) - 1)))
        sliced = sum(1 << z for z in strong_reps)
        assert theorems._first_shared_or_lonely(sliced, E.point_slices(n), min_masks) == \
            first_shared_or_lonely_by_loop(strong_reps, min_masks), (n, strong_reps, min_masks)


def test_faults_reach_every_subfamily_check():
    reached = set().union(*(checks for _, checks in ORDER_FAULTS.values()),
                          *(checks for _, checks in PATCH_FAULTS.values()))
    assert reached == set(SUBFAMILY_CHECKS)


@pytest.mark.parametrize("fault", ORDER_FAULTS)
def test_sliced_checks_report_the_loops_first_witness_on_a_faulty_order(fault):
    make, reaches = ORDER_FAULTS[fault]
    failed = set()
    for family in _fault_families():
        for k in range(6):
            faulty = make(family, k)
            if faulty is None:
                break
            got, want = _sliced_and_looped(faulty)
            assert got == want, (family, k)
            failed |= {name for name, (status, _) in got.items() if status == "fail"}
    assert failed == reaches


def test_closed_sets_check_reports_the_loops_first_fault_under_a_faulty_down_order():
    """up stays a partial order; down[j] gains a point k not below j, or loses j itself.

    Either fault fails the check: j is no longer a minimal point of up(j) |
    up(k) (of up(j) when j is lost), and no other minimal point lies below
    j.  So the sliced check must report the loop's first up-set.  Dropping
    a point strictly below j is no fault case here: the minimal points of
    every up-set stay the same, so the check cannot fail.
    """
    name = "closed-sets-covered-by-minimal-points"
    rng = random.Random(2809)
    statuses = Counter()
    for _ in range(300):
        family = random_representation_family(rng, max_universe=10, max_points=12)
        down = list(family.space.down)
        j = rng.randrange(len(down))
        outside = [k for k in range(len(down)) if not down[j] >> k & 1]
        k = rng.choice(outside) if outside and rng.random() < 0.5 else j
        down[j] ^= 1 << k
        faulty = _with_down(family, down)
        _clear_engine_caches()
        got = next(r for r in theorems.run_family_suite(faulty) if r.name == name)
        _clear_engine_caches()
        assert (got.status, got.detail) == closed_sets_check_by_loop(faulty.space), (family, j, k)
        statuses[got.status] += 1
    assert statuses == {"fail": 300}


@pytest.mark.parametrize("fault", PATCH_FAULTS)
def test_sliced_checks_report_the_loops_first_witness_under_a_patched_fact(monkeypatch, fault):
    patch, reaches = PATCH_FAULTS[fault]
    failed = set()
    for family in _fault_families():
        with monkeypatch.context() as m:
            if patch(m, family) is False:
                continue
            got, want = _sliced_and_looped(family)
        assert got == want, family
        failed |= {name for name, (status, _) in got.items() if status == "fail"}
    assert failed == reaches


def test_family_suite_scans_once_with_no_per_subfamily_call(monkeypatch):
    rng = random.Random(60224)
    families = [random_representation_family(rng, max_universe=8, max_points=12) for _ in range(40)]
    families = [f for f in families if len(f) >= 8][:3]
    assert len(families) == 3
    families.append(load_instance(str(FIXTURES / "setsys13.json")).family)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for family in families:
        n = len(family)
        counts.clear()
        _clear_engine_caches()
        with monkeypatch.context() as m:
            m.setattr(E, "_represents_slice", counted("scan", E._represents_slice))
            m.setattr(E, "_member_gains", counted("gains", E._member_gains))
            m.setattr(E, "classify_member", counted("classify", E.classify_member))
            m.setattr(S, "intersection_mask", counted("intersections", S.intersection_mask))
            m.setattr(E, "intersection_mask", counted("intersections", S.intersection_mask))
            results = theorems.run_family_suite(family)
        assert {r.status for r in results} == {"pass"}, family
        # one raw scan, shared by the six checks and critical_points_oracle
        assert counts["scan"] == 1
        assert counts["gains"] == counts["classify"] == 0
        # the validation, critical_mask and the strongly irredundant representation: a few per point
        assert counts["intersections"] <= 3 * n


def test_subfamily_checks_skip_above_the_cap():
    family = load_instance(str(FIXTURES / "setsys13.json")).family
    _clear_engine_caches()
    got = {r.name: r for r in theorems.run_family_suite(family, cap=12)}
    for name in SUBFAMILY_CHECKS:
        assert got[name] == theorems.CheckResult(name, "skip", "13 points exceeds the cap of 12")
    assert {r.status for r in got.values()} <= {"pass", "skip"}
    got = {r.name: r.status for r in theorems.run_family_suite(family, cap=13)}
    assert {got[name] for name in SUBFAMILY_CHECKS} == {"pass"}


def test_check_theorems_checks_every_subfamily_of_a_20_point_family(capsys):
    _clear_engine_caches()
    assert cli.main(["check-theorems", str(FIXTURES / "setsys20.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert {entry["status"] for entry in payload["checks"]} == {"pass"}
    assert {entry["name"] for entry in payload["checks"]} >= set(SUBFAMILY_CHECKS)


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


def _drop_from_own_up(i):
    """inclusion_order with point i missing from its own up-set, so the order is not reflexive."""
    real = T.inclusion_order

    def faulty(points):
        up, down = real(points)
        return tuple(u & ~(1 << i) if a == i else u for a, u in enumerate(up)), down
    return faulty


# route fault -> (target, attribute, faulty replacement, the check that must fail, its detail);
# a fault named dropped-... breaks the generated topologies too, so other checks fail with it
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
    "dropped-point-from-its-up-set": (T, "inclusion_order", _drop_from_own_up(1), "antichains-inverse-discrete",
                                      "antichain 10 not discrete"),
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


def _edit_order(edit):
    """inclusion_order with edit(up, down) applied to lists of the true up- and down-masks."""
    real = T.inclusion_order

    def faulty(points):
        up, down = map(list, real(points))
        edit(up, down)
        return tuple(up), tuple(down)
    return faulty


def _unlink(up, down):
    """P0 no longer below P2, though P0 < P1 < P2: not transitive."""
    up[0] &= ~(1 << 2)
    down[2] &= ~(1 << 0)


def _unreflect(up, down):
    """P3, a maximal point outside the chain, drops out of its own down-set: not reflexive."""
    down[3] &= ~(1 << 3)


@pytest.mark.parametrize("edit", [_unlink, _unreflect], ids=["non-transitive", "non-reflexive"])
def test_noetherian_trace_witnesses_fail_on_a_faulty_order(monkeypatch, edit):
    # the chain P0 < P1 < P2 and P3 give two maximal points, so the witnesses
    # of the chain's points meet P3: a non-transitive order makes one that is
    # not an up-set, a non-reflexive one a witness with the wrong trace
    def chain():
        return family_from("abcde", "abcde", "a", {"P0": "ab", "P1": "abc", "P2": "abcd", "P3": "ae"})

    name = "noetherian-trace-witnesses"
    clean = {r.name: r for r in theorems.run_family_suite(chain())}
    assert clean[name].status == "pass"
    monkeypatch.setattr(T, "inclusion_order", _edit_order(edit))
    got = {r.name: r for r in theorems.run_family_suite(chain())}
    assert (got[name].status, got[name].detail) == ("fail", "trace criterion failed on the maximal points")


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
