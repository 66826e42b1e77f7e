"""The invariant suite must pass on fixtures and randomized instances."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from specrep import rings as R
from specrep import theorems
from specrep import zrdesk as Z

from helpers import family_from, i1_family, random_representation_family


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
