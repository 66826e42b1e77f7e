"""Ring layer: ideal lattices, filters, decompositions, colon calculus.

The zmod divisor arithmetic is cross-checked against the elementwise table
route by presenting the same modular ring both ways.
"""

import random

import pytest

from specrep import engine as E
from specrep import rings as R
from specrep.errors import CapExceeded, InputError


def zmod_as_tables(n: int) -> R.FiniteRing:
    return R.FiniteRing.from_tables(
        [[(i + j) % n for j in range(n)] for i in range(n)],
        [[(i * j) % n for j in range(n)] for i in range(n)],
    )


def f2xy_ring() -> R.FiniteRing:
    # index a + 2b + 4c encodes a + b*x + c*y with x^2 = xy = y^2 = 0
    def mulf(i, j):
        a1, b1, c1 = i & 1, i >> 1 & 1, i >> 2 & 1
        a2, b2, c2 = j & 1, j >> 1 & 1, j >> 2 & 1
        return (a1 & a2) | ((a1 & b2 ^ a2 & b1) << 1) | ((a1 & c2 ^ a2 & c1) << 2)

    return R.FiniteRing.from_tables(
        [[i ^ j for j in range(8)] for i in range(8)],
        [[mulf(i, j) for j in range(8)] for i in range(8)],
    )


def gf4_ring() -> R.FiniteRing:
    # polynomials over GF(2) modulo t^2 + t + 1; index = a + 2b encodes a + b*t
    def mulf(i, j):
        a1, b1 = i & 1, i >> 1
        a2, b2 = j & 1, j >> 1
        a = a1 & a2 ^ b1 & b2
        b = a1 & b2 ^ a2 & b1 ^ b1 & b2
        return a | b << 1

    return R.FiniteRing.from_tables(
        [[i ^ j for j in range(4)] for i in range(4)],
        [[mulf(i, j) for j in range(4)] for i in range(4)],
    )


# ------------------------------------------------------------- construction

def test_bad_tables_rejected():
    with pytest.raises(InputError, match="ring axioms"):
        R.FiniteRing.from_tables([[0, 1], [1, 1]], [[0, 0], [0, 1]])
    with pytest.raises(InputError):
        R.FiniteRing.from_tables([[0]], [[0], [0]])
    with pytest.raises(InputError, match="zero ring"):
        R.FiniteRing.from_tables([[0]], [[0]])


def test_table_cap():
    with pytest.raises(CapExceeded):
        R.FiniteRing.from_tables([[0] * 65] * 65, [[0] * 65] * 65)


def test_zmod_cap_and_floor():
    with pytest.raises(CapExceeded):
        R.FiniteRing.zmod(10 ** 9 + 1)
    with pytest.raises(InputError):
        R.FiniteRing.zmod(1)


def test_zmod_ideal_canonicalization():
    ring = R.FiniteRing.zmod(12)
    assert R.zmod_ideal(ring, 8).generator == 4
    assert R.zmod_ideal(ring, 0).generator == 12
    assert R.zmod_ideal(ring, 5).generator == 1
    assert R.zmod_ideal(ring, 18).generator == 6


# ------------------------------------------------------------------ filters

def test_zmod12_filters():
    ring = R.FiniteRing.zmod(12)
    names = lambda kind: [i.name for i in R.enumerate_ideals(ring, kind)]
    assert names("proper") == ["(2)", "(3)", "(4)", "(6)", "(12)"]
    assert names("irreducible") == ["(2)", "(3)", "(4)"]
    assert names("strongly_irreducible") == ["(2)", "(3)", "(4)"]
    assert names("prime") == ["(2)", "(3)"]
    assert names("maximal") == ["(2)", "(3)"]
    assert names("radical") == ["(2)", "(3)", "(6)"]


def test_zmod_prime_field_has_zero_ideal_only():
    ring = R.FiniteRing.zmod(7)
    assert [i.name for i in R.enumerate_ideals(ring, "proper")] == ["(7)"]
    assert [i.name for i in R.enumerate_ideals(ring, "prime")] == ["(7)"]
    assert R.zmod_ideal(ring, 7).is_zero()


def test_irreducible_matches_prime_power_formula_sweep():
    for n in range(2, 400):
        ring = R.FiniteRing.zmod(n)
        got = sorted(i.generator for i in R.enumerate_ideals(ring, "irreducible"))
        want = sorted(
            p ** k for p, e in R.factorize(n).items() for k in range(1, e + 1)
        )
        assert got == want, n


def test_table_route_agrees_with_divisor_route():
    for n in (6, 12, 16, 30):
        zr = R.FiniteRing.zmod(n)
        tr = zmod_as_tables(n)
        for kind in R.IDEAL_FILTERS:
            via_divisors = {frozenset(i.element_set()) for i in R.enumerate_ideals(zr, kind)}
            via_tables = {i.elements for i in R.enumerate_ideals(tr, kind)}
            assert via_divisors == via_tables, (n, kind)


def test_strongly_irreducible_within_irreducible_tables():
    for ring in (f2xy_ring(), gf4_ring(), zmod_as_tables(12)):
        irr = {i.sort_key() for i in R.enumerate_ideals(ring, "irreducible")}
        sirr = {i.sort_key() for i in R.enumerate_ideals(ring, "strongly_irreducible")}
        assert sirr <= irr
        if R.is_arithmetical(ring):
            assert sirr == irr


# ------------------------------------------------------------- arithmetical

def test_zmod_always_arithmetical():
    for n in (2, 12, 360):
        assert R.is_arithmetical(R.FiniteRing.zmod(n))


def test_local_square_zero_ring_not_arithmetical():
    ring = f2xy_ring()
    assert len(R._all_table_ideals(ring)) == 6  # 0, three lines, the maximal, R
    assert R.is_arithmetical(ring) is False


def test_finite_fields_arithmetical():
    assert R.is_arithmetical(gf4_ring())
    assert [i.name for i in R.enumerate_ideals(gf4_ring(), "proper")] == ["{0}"]


# ------------------------------------------------------------ ideal spaces

def test_build_irr_space_examples():
    ring = R.FiniteRing.zmod(12)
    fam6 = R.build_irr_space(ring, R.zmod_ideal(ring, 6))
    assert fam6.names == ("(2)", "(3)")
    fam4 = R.build_irr_space(ring, R.zmod_ideal(ring, 4))
    assert fam4.names == ("(2)", "(4)")
    ring7 = R.FiniteRing.zmod(7)
    fam7 = R.build_irr_space(ring7, R.zmod_ideal(ring7, 7))
    assert fam7.names == ("(7)",)


def test_build_irr_space_requires_arithmetical_and_proper():
    with pytest.raises(InputError, match="arithmetical"):
        R.build_irr_space(f2xy_ring(), R.table_ideal(f2xy_ring(), [0, 2]))
    ring = R.FiniteRing.zmod(12)
    with pytest.raises(InputError, match="proper"):
        R.build_irr_space(ring, R.zmod_ideal(ring, 1))


def test_whole_space_is_unique_minimal_closed_representation():
    rng = random.Random(5081)
    for _ in range(25):
        n = rng.randint(2, 400)
        ring = R.FiniteRing.zmod(n)
        divs = [d for d in R.divisors_of(n) if d > 1]
        a = R.zmod_ideal(ring, rng.choice(divs))
        fam = R.build_irr_space(ring, a)
        assert list(E.unique_minimal_analysis(fam).minimal_closed) == [tuple(range(len(fam)))]


def test_prime_points_for_radical_ideal():
    ring = R.FiniteRing.zmod(30)
    fam = R.build_irr_space(ring, R.zmod_ideal(ring, 30), points="prime")
    assert fam.names == ("(2)", "(3)", "(5)")
    assert list(E.unique_minimal_analysis(fam).minimal_representations) == [(0, 1, 2)]


# ------------------------------------------------------------ decomposition

def test_decomposition_examples():
    ring = R.FiniteRing.zmod(12)
    assert [b.name for b in R.irredundant_decomposition(ring, R.zmod_ideal(ring, 6))] == ["(2)", "(3)"]
    assert [b.name for b in R.irredundant_decomposition(ring, R.zmod_ideal(ring, 4))] == ["(4)"]
    r360 = R.FiniteRing.zmod(360)
    assert [b.name for b in R.irredundant_decomposition(r360, R.zmod_ideal(r360, 60))] == [
        "(3)", "(4)", "(5)",
    ]


def test_decomposition_matches_crt_oracle_sweep():
    for n in range(2, 300):
        ring = R.FiniteRing.zmod(n)
        for d in R.divisors_of(n):
            if d == 1:
                continue
            dec = R.irredundant_decomposition(ring, R.zmod_ideal(ring, d), verify=False)
            oracle = sorted(p ** e for p, e in R.factorize(d).items())
            assert sorted(b.generator for b in dec) == oracle


def test_decomposition_verification_runs():
    ring = R.FiniteRing.zmod(360)
    dec = R.irredundant_decomposition(ring, R.zmod_ideal(ring, 60), verify=True)
    assert [b.name for b in dec] == ["(3)", "(4)", "(5)"]


def test_decomposition_table_ring():
    ring = zmod_as_tables(12)
    six = next(i for i in R.enumerate_ideals(ring) if i.elements == frozenset({0, 6}))
    dec = R.irredundant_decomposition(ring, six)
    assert sorted(sorted(b.elements) for b in dec) == [[0, 2, 4, 6, 8, 10], [0, 3, 6, 9]]


def test_decomposition_requires_arithmetical():
    ring = f2xy_ring()
    with pytest.raises(InputError, match="arithmetical"):
        R.irredundant_decomposition(ring, R.table_ideal(ring, [0, 2]))


# ------------------------------------------------- colon, saturation, primes

def test_colon_examples():
    ring = R.FiniteRing.zmod(12)
    a = R.zmod_ideal(ring, 6)
    assert R.colon(a, 2).name == "(3)"
    assert R.colon(a, 3).name == "(2)"
    assert R.colon(a, 1).name == "(6)"
    assert R.colon(a, 0).name == "(1)"


def test_colon_identity_for_all_ideals():
    for n in (6, 12, 60):
        ring = R.FiniteRing.zmod(n)
        for i in R.enumerate_ideals(ring, "proper"):
            assert R.colon(i, 1).generator == i.generator


def test_colon_matches_elementwise():
    n = 24
    zr = R.FiniteRing.zmod(n)
    tr = zmod_as_tables(n)
    for d in R.divisors_of(n):
        if d == 1:
            continue
        zi = R.zmod_ideal(zr, d)
        ti = R.table_ideal(tr, range(0, n, d))
        for r in range(n):
            assert R.colon(zi, r).element_set() == R.colon(ti, r).elements


def test_saturation_examples_and_elementwise():
    ring = R.FiniteRing.zmod(12)
    a = R.zmod_ideal(ring, 6)
    assert R.saturation(a, R.zmod_ideal(ring, 2)).name == "(2)"
    assert R.saturation(a, R.zmod_ideal(ring, 3)).name == "(3)"
    with pytest.raises(InputError, match="prime"):
        R.saturation(a, R.zmod_ideal(ring, 4))
    tr = zmod_as_tables(12)
    t6 = R.table_ideal(tr, [0, 6])
    t2 = R.table_ideal(tr, range(0, 12, 2))
    assert R.saturation(t6, t2).elements == frozenset(range(0, 12, 2))


def test_krull_associated_primes():
    ring = R.FiniteRing.zmod(12)
    a = R.zmod_ideal(ring, 6)
    assert [p.name for p in R.krull_associated_primes(a)] == ["(2)", "(3)"]
    assert [p.name for p in R.max_krull_associated_primes(a)] == ["(2)", "(3)"]
    b = R.zmod_ideal(ring, 4)
    assert [p.name for p in R.krull_associated_primes(b)] == ["(2)"]


def test_krull_primes_match_table_route():
    for n in (12, 24, 30):
        zr = R.FiniteRing.zmod(n)
        tr = zmod_as_tables(n)
        for d in R.divisors_of(n):
            if d == 1:
                continue
            zi = R.zmod_ideal(zr, d)
            ti = R.table_ideal(tr, range(0, n, d))
            via_z = {frozenset(p.element_set()) for p in R.krull_associated_primes(zi)}
            via_t = {p.elements for p in R.krull_associated_primes(ti)}
            assert via_z == via_t, (n, d)


def test_saturations_at_max_krull_primes_equal_minimal_cover():
    rng = random.Random(8128)
    for _ in range(40):
        n = rng.randint(2, 2000)
        ring = R.FiniteRing.zmod(n)
        divs = [d for d in R.divisors_of(n) if d > 1]
        a = R.zmod_ideal(ring, rng.choice(divs))
        sats = sorted(R.saturation(a, p).generator for p in R.max_krull_associated_primes(a))
        mins = sorted(b.generator for b in R.min_irreducibles_over(ring, a))
        assert sats == mins


def test_decomposition_unique_among_subfamilies():
    # uniqueness is what _verify_decomposition enforces; make it observable
    ring = R.FiniteRing.zmod(2 * 3 * 5 * 7)
    a = R.zmod_ideal(ring, 2 * 3 * 5 * 7)
    dec = R.irredundant_decomposition(ring, a, verify=True)
    assert [b.name for b in dec] == ["(2)", "(3)", "(5)", "(7)"]
