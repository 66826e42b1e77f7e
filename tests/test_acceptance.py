"""Acceptance suite: one test per criterion, one pass/fail line each.

Expected values come from independent oracles computed inside this module
(exhaustive enumerations, a smallest-prime-factor sieve, membership probes),
never from the code paths under test.
"""

import json
import pathlib
import random
import subprocess
import sys
import time
from itertools import combinations
from multiprocessing import Pool

from specrep import engine as E
from specrep import rings as R
from specrep import topology as T
from specrep import zrdesk as Z
from specrep.setsystems import represents_mask, to_spec_space
from specrep.topology import indices_of

from helpers import family_from, opens_of, random_representation_family, random_spec_space, reference_opens

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# 1 ------------------------------------------------------------------------

def test_acceptance_1_topology_oracle_equivalence():
    rng = random.Random(101)
    start = time.time()
    families = 0
    mismatches = 0
    for _ in range(400):
        space = random_spec_space(rng, max_universe=6, max_points=10)
        families += 1
        for kind in T.KINDS:
            if opens_of(T.generate_topology(space, kind)) != reference_opens(space, kind):
                mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 10.0
    _line(1, "topology-oracle-equivalence", ok,
          f"{families} families, 3 topologies each, {mismatches} mismatches, {elapsed:.2f}s")


# 2 ------------------------------------------------------------------------

def test_acceptance_2_irredundance_isolation_suite():
    rng = random.Random(202)
    exceptions = 0
    fixtures = 0
    for _ in range(250):
        fam = random_representation_family(rng, max_points=8)
        fixtures += 1
        space = to_spec_space(fam)
        full = space.full_mask
        zmasks = [z for z in range(1, full + 1) if represents_mask(fam, z)]
        for zmask in zmasks:
            zs = indices_of(zmask)
            for b in zs:
                cls = E.classify_member(fam, zs, b)
                if cls.irredundant and not (cls.isolated_spectral and cls.isolated_patch):
                    exceptions += 1
        for rep in E.unique_minimal_analysis(fam).minimal_representations:
            iso = set(E.isolated_points(fam, rep, "spectral"))
            for b in rep:
                cls = E.classify_member(fam, rep, b)
                if not (cls.irredundant == cls.strongly_irredundant == (b in iso)):
                    exceptions += 1

    # constructed converse-failure pattern: isolated yet redundant outside
    # minimal representations
    fam = family_from("abcd", "abcd", "a", {"B1": "ab", "B2": "ac", "V": "ad"})
    cls = E.classify_member(fam, (0, 1, 2), 2)
    pattern_ok = cls.isolated_spectral and cls.isolated_patch and not cls.irredundant
    ok = exceptions == 0 and pattern_ok
    _line(2, "irredundant-vs-isolated-suite", ok,
          f"{fixtures} fixtures, {exceptions} exceptions, converse-failure fixture {'ok' if pattern_ok else 'BAD'}")


# 3 ------------------------------------------------------------------------

def test_acceptance_3_criticality():
    rng = random.Random(303)
    fixtures = 0
    disagreements = 0
    cor_exceptions = 0
    for _ in range(200):
        fam = random_representation_family(rng, max_points=12)
        fixtures += 1
        if E.unique_minimal_analysis(fam).critical != E.critical_points_oracle(fam, cap=12):
            disagreements += 1
        space = to_spec_space(fam)
        crit = set(E.unique_minimal_analysis(fam).critical)
        full = space.full_mask
        if len(fam) <= 8:
            zmasks = [z for z in range(1, full + 1) if represents_mask(fam, z)]
        else:
            zmasks = [full]
        for zmask in zmasks:
            zs = indices_of(zmask)
            for b in zs:
                cls = E.classify_member(fam, zs, b)
                if b in crit and cls.irredundant and not cls.strongly_irredundant:
                    cor_exceptions += 1
    ok = disagreements == 0 and cor_exceptions == 0
    _line(3, "criticality-fast-vs-oracle", ok,
          f"{fixtures} fixtures, {disagreements} oracle disagreements, "
          f"{cor_exceptions} critical-irredundant exceptions")


# 4 ------------------------------------------------------------------------

def test_acceptance_4_unique_minimal_criterion():
    rng = random.Random(404)
    fixtures = 0
    violations = 0
    for _ in range(150):
        fam = random_representation_family(rng, max_points=10)
        fixtures += 1
        space = to_spec_space(fam)
        analysis = E.unique_minimal_analysis(fam)
        unique = len(analysis.minimal_representations) == 1
        if analysis.cset_represents != unique:
            violations += 1
            continue
        full = space.full_mask
        strong_reps = []
        for zmask in range(1, full + 1):
            if not represents_mask(fam, zmask):
                continue
            zs = indices_of(zmask)
            if all(E.classify_member(fam, zs, b).strongly_irredundant for b in zs):
                strong_reps.append(zmask)
        if analysis.cset_represents:
            expected = space.point_mask(analysis.strongly_irredundant_rep or ())
            if strong_reps != [expected]:
                violations += 1
        elif len(strong_reps) > 1:
            # without a represented critical core nothing forces uniqueness,
            # but each strong rep must still be a representation (sanity)
            if any(not represents_mask(fam, z) for z in strong_reps):
                violations += 1
    ok = violations == 0
    _line(4, "unique-minimal-criterion", ok, f"{fixtures} fixtures, {violations} violations")


# 5 ------------------------------------------------------------------------

def _spf_sieve(limit):
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def test_acceptance_5_ring_decomposition():
    limit = 100_000
    start = time.time()
    spf = _spf_sieve(limit)

    def spf_factor(d):
        out = {}
        while d > 1:
            p = spf[d]
            out[p] = out.get(p, 0) + 1
            d //= p
        return out

    pairs = 0
    mismatches = 0
    unique_checked = 0
    unique_bad = 0
    for n in range(2, limit + 1):
        fac = spf_factor(n)
        divs = [1]
        for p, e in fac.items():
            divs = [x * p ** k for x in divs for k in range(e + 1)]
        omega_n = sum(fac.values())
        for d in divs:
            if d == 1:
                continue
            pairs += 1
            got = R.zmod_min_irreducible_generators(n, d)
            oracle = sorted(p ** e for p, e in spf_factor(d).items())
            if got != oracle:
                mismatches += 1
                continue
            if omega_n <= 4:
                # exhaustive uniqueness: among all subfamilies of the
                # irreducibles over (d), exactly one irredundant one intersects
                # to (d), namely the minimal cover
                over = [p ** k for p, e in fac.items() for k in range(1, e + 1) if d % p ** k == 0]
                if len(over) > 12:
                    continue
                unique_checked += 1
                hits = []
                for r in range(1, len(over) + 1):
                    for combo in combinations(over, r):
                        lcm = 1
                        for g in combo:
                            lcm = lcm * g // __import__("math").gcd(lcm, g)
                        if lcm != d:
                            continue
                        irredundant = True
                        for skip in range(r):
                            sub = 1
                            for j, g in enumerate(combo):
                                if j != skip:
                                    sub = sub * g // __import__("math").gcd(sub, g)
                            if sub == d:
                                irredundant = False
                                break
                        if irredundant:
                            hits.append(sorted(combo))
                if hits != [got]:
                    unique_bad += 1

    # the public object-level wrapper must agree with the generator core
    wrapper_bad = 0
    rng = random.Random(505)
    sample_ns = list(range(2, 2000)) + [rng.randint(2000, limit) for _ in range(1000)]
    for n in sample_ns:
        ring = R.FiniteRing.zmod(n)
        fac = spf_factor(n)
        divs = [1]
        for p, e in fac.items():
            divs = [x * p ** k for x in divs for k in range(e + 1)]
        for d in divs:
            if d == 1:
                continue
            dec = R.irredundant_decomposition(ring, R.zmod_ideal(ring, d), verify=False)
            if [b.generator for b in dec] != R.zmod_min_irreducible_generators(n, d):
                wrapper_bad += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and unique_bad == 0 and wrapper_bad == 0 and elapsed < 60.0
    _line(5, "ring-decomposition-crt", ok,
          f"{pairs} ideals over n<=1e5, {mismatches} oracle mismatches, "
          f"{unique_checked} uniqueness enumerations ({unique_bad} bad), "
          f"{wrapper_bad} wrapper disagreements, {elapsed:.1f}s")


# 6 ------------------------------------------------------------------------

def test_acceptance_6_no_proper_closed_subfamily():
    rng = random.Random(606)
    samples = 0
    violations = 0
    while samples < 100:
        n = rng.randint(2, 2000)
        divs = [d for d in R.divisors_of(n) if d > 1]
        d = rng.choice(divs)
        ring = R.FiniteRing.zmod(n)
        fam = R.build_irr_space(ring, R.zmod_ideal(ring, d))
        samples += 1
        space = to_spec_space(fam)
        full = space.full_mask
        for y in range(full):  # every proper subset; up-sets filtered below
            is_upset = all(space.up[i] & ~y == 0 for i in indices_of(y))
            if is_upset and represents_mask(fam, y):
                violations += 1
                break
        if list(E.unique_minimal_analysis(fam).minimal_closed) != [tuple(range(len(fam)))]:
            violations += 1
    ok = violations == 0
    _line(6, "no-proper-closed-subfamily-represents", ok,
          f"{samples} sampled (n, d) pairs, {violations} violations")


# 7 ------------------------------------------------------------------------

def _run_pool_sweep(primes):
    report = Z.pool_uniqueness_check(Z.PrimePool(primes))
    return report.checks, report.passed, report.failures[:1]


def test_acceptance_7_zr_desk_sweep():
    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    pools = [c for k in range(1, 6) for c in combinations(primes, k)]
    start = time.time()
    with Pool(2) as workers:
        results = workers.map(_run_pool_sweep, pools, chunksize=250)
    elapsed = time.time() - start
    checks = sum(r[0] for r in results)
    failures = [r[2][0] for r in results if not r[1]]
    ok = not failures and elapsed < 5.0
    _line(7, "zr-desk-uniqueness-sweep", ok,
          f"{len(pools)} pools, {checks} checks, {len(failures)} failures, {elapsed:.2f}s")


# 8 ------------------------------------------------------------------------

def test_acceptance_8_strongly_irredundant_existence():
    rng = random.Random(808)
    trials = 0
    failures = 0
    for _ in range(500):
        fam = random_representation_family(rng)
        trials += 1
        try:
            rep = E.strongly_irredundant_representation(fam)
        except Exception:
            failures += 1
            continue
        space = to_spec_space(fam)
        if not represents_mask(fam, space.point_mask(rep)):
            failures += 1
            continue
        for b in rep:
            if not E.classify_member(fam, rep, b).strongly_irredundant:
                failures += 1
                break
    ok = failures == 0
    _line(8, "strongly-irredundant-existence", ok, f"{trials} trials, {failures} failures")


# 9 ------------------------------------------------------------------------

def _cli_bytes(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "specrep.cli", *argv],
        cwd=ROOT,
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_acceptance_9_cli_golden_bytes():
    cases = [
        (("analyze", "fixtures/i1.json"), "i1_analyze.json"),
        (("analyze", "fixtures/i1.json", "--format", "text"), "i1_analyze.txt"),
        (("analyze", "fixtures/i1.json", "--format", "dot"), "i1_hasse.dot"),
        (("analyze", "fixtures/i1.json", "--cap-points", "2", "--format", "text"), "i1_analyze_cap2.txt"),
        (("analyze", "fixtures/i1.json", "--cap-points", "2"), "i1_analyze_cap2.json"),
        (("minimal", "fixtures/i1.json"), "i1_minimal.json"),
        (("minimal", "fixtures/two_minimal.json"), "two_minimal_minimal.json"),
        (("critical", "fixtures/i1.json"), "i1_critical.json"),
        (("critical", "fixtures/critical_above.json"), "critical_above_critical.json"),
        (("analyze", "fixtures/zmod2560.json"), "zmod2560_analyze.json"),
        (("analyze", "fixtures/zmod12.json", "--format", "text"), "zmod12_analyze.txt"),
        (("decompose", "fixtures/zmod12.json"), "zmod12_decompose.json"),
        (("decompose", "fixtures/zmod12.json", "--format", "text"), "zmod12_decompose.txt"),
        (("zr-check", "fixtures/zr_pool235.json"), "zr_pool235_zrcheck.json"),
        (("zr-check", "--pool", "2,3,5,7,11,13,17,19,23,29"), "zr_pool10_zrcheck.json"),
        (("analyze", "fixtures/zr_pool235.json"), "zr_pool235_analyze.json"),
        (("check-theorems", "fixtures/i1.json"), "i1_theorems.json"),
        (("check-theorems", "fixtures/zmod12.json"), "zmod12_theorems.json"),
        (("check-theorems", "fixtures/zr_pool235.json"), "zr_pool235_theorems.json"),
        (("check-theorems", "fixtures/f2xy_tables.json"), "f2xy_tables_theorems.json"),
        (("analyze", "fixtures/z60_tables.json"), "z60_tables_analyze.json"),
        (("decompose", "fixtures/z60_tables.json", "--oracle"), "z60_tables_decompose.json"),
        (("check-theorems", "fixtures/z60_tables.json"), "z60_tables_theorems.json"),
        (("decompose", "fixtures/f2_5_tables.json"), "f2_5_tables_decompose.json"),
        (("decompose", "fixtures/f2_5_tables.json", "--oracle"), "f2_5_tables_decompose.json"),
        (("analyze", "fixtures/f2_5_tables.json"), "f2_5_tables_analyze.json"),
        (("check-theorems", "fixtures/f2_5_tables.json"), "f2_5_tables_theorems.json"),
        (("check-theorems", "fixtures/zmod2560.json"), "zmod2560_theorems.json"),
        (("check-theorems", "fixtures/zmod393216.json"), "zmod393216_theorems.json"),
        (("check-theorems", "fixtures/two_minimal.json"), "two_minimal_theorems.json"),
        (("check-theorems", "fixtures/isolated_redundant.json"), "isolated_redundant_theorems.json"),
        (("check-theorems", "fixtures/setsys13.json"), "setsys13_theorems.json"),
        (("analyze", "fixtures/setsys13.json"), "setsys13_analyze.json"),
        (("minimal", "fixtures/setsys20.json"), "setsys20_minimal.json"),
        (("analyze", "fixtures/setsys20.json"), "setsys20_analyze.json"),
        (("critical", "fixtures/setsys20.json"), "setsys20_critical.json"),
        (("check-theorems", "fixtures/setsys20.json"), "setsys20_theorems.json"),
        (("analyze", "fixtures/setsys13.json", "--format", "text"), "setsys13_analyze.txt"),
        (("analyze", "fixtures/setsys13.json", "--format", "dot"), "setsys13_hasse.dot"),
        (("analyze", "fixtures/setsys16_deep.json"), "setsys16_deep_analyze.json"),
        (("minimal", "fixtures/setsys16_deep.json", "--format", "text"), "setsys16_deep_minimal.txt"),
        (("analyze", "fixtures/zr_pool235.json", "--format", "text"), "zr_pool235_analyze.txt"),
        (("minimal", "fixtures/i1.json", "--format", "text"), "i1_minimal.txt"),
        (("minimal", "fixtures/two_minimal.json", "--format", "text"), "two_minimal_minimal.txt"),
        (("critical", "fixtures/i1.json", "--format", "text"), "i1_critical.txt"),
        (("critical", "fixtures/setsys20.json", "--format", "text"), "setsys20_critical.txt"),
    ]
    bad = []
    for argv, golden_name in cases:
        got = _cli_bytes(*argv)
        again = _cli_bytes(*argv)
        want = (GOLDEN / golden_name).read_bytes()
        if got != want or got != again:
            bad.append(golden_name)
    ok = not bad
    _line(9, "cli-golden-byte-equality", ok,
          f"{len(cases)} invocations, divergent: {', '.join(bad) if bad else 'none'}")
