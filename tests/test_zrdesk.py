"""Overring desk: exact membership, faithful encoding, uniqueness sweeps."""

import collections
import pathlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import cli
from specrep import engine as E
from specrep import zrdesk as Z
from specrep.errors import CapExceeded, ConsistencyError, InputError, NotARepresentation

from helpers import i1_family

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


POOL235 = Z.PrimePool.of([2, 3, 5])


def spec(pool, retained):
    return Z.OverringSpec.of(pool, retained)


# ------------------------------------------------------------------ basics

def test_pool_validates_primality():
    with pytest.raises(InputError, match="not prime"):
        Z.PrimePool.of([2, 3, 4])
    with pytest.raises(InputError):
        Z.PrimePool.of([])
    assert Z.PrimePool.of([5, 3, 2]).primes == (2, 3, 5)


def test_retained_must_come_from_pool():
    with pytest.raises(InputError):
        spec(POOL235, [7])


def test_membership_examples():
    assert Z.membership(spec(POOL235, [2, 3]), Fraction(5, 6)) is False
    assert Z.membership(spec(POOL235, [5]), Fraction(6, 35)) is False
    assert Z.membership(spec(POOL235, [5]), Fraction(35, 6)) is True
    assert Z.membership(spec(POOL235, []), Fraction(5, 6)) is True
    assert Z.membership(spec(POOL235, [2]), 7) is True
    assert Z.membership(spec(POOL235, [2]), "3/4") is False


def test_membership_canonicalizes():
    # 10/4 reduces to 5/2, so only the prime 2 matters
    assert Z.membership(spec(POOL235, [5]), Fraction(10, 4)) is True
    assert Z.membership(spec(POOL235, [2]), Fraction(10, 4)) is False


def test_membership_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Z.membership(spec(POOL235, [2]), Fraction(1, 0))


def test_names():
    assert spec(POOL235, []).name == "Q"
    assert spec(POOL235, [3, 2]).name == "Z(2,3)"


# ---------------------------------------------------------------- encoding

def test_encode_flagship():
    target = spec(POOL235, [2, 3, 5])
    fam = Z.encode(POOL235, target, spec(POOL235, []), [spec(POOL235, [p]) for p in (2, 3, 5)])
    assert fam.names == ("Z(2)", "Z(3)", "Z(5)")
    report = E.build_report(fam, oracle=True)
    payload = E.report_to_dict(report)
    for name, p in (("Z(2)", "2"), ("Z(3)", "3"), ("Z(5)", "5")):
        entry = payload["points"][name]
        assert entry["irredundant"] and entry["strongly_irredundant"] and entry["critical"]
        assert entry["witnesses"]["irredundant"] == p
    assert payload["unique_minimal"] is True
    assert payload["strongly_irredundant_representation"] == ["Z(2)", "Z(3)", "Z(5)"]


def test_encode_extra_member_redundant_not_critical():
    target = spec(POOL235, [2, 3, 5])
    members = [spec(POOL235, [p]) for p in (2, 3, 5)] + [spec(POOL235, [2, 3])]
    fam = Z.encode(POOL235, target, spec(POOL235, []), members)
    payload = E.report_to_dict(E.build_report(fam))
    entry = payload["points"]["Z(2,3)"]
    assert not entry["irredundant"]
    assert not entry["critical"]


def test_encode_rejects_mismatched_pools():
    other = Z.PrimePool.of([2, 3])
    with pytest.raises(InputError, match="share one pool"):
        Z.encode(POOL235, spec(POOL235, [2]), spec(POOL235, []), [spec(other, [2])])


def test_encode_rejects_non_representation_with_rational_witness():
    target = spec(POOL235, [2, 3, 5])
    with pytest.raises(NotARepresentation, match="1/5") as info:
        Z.encode(POOL235, target, spec(POOL235, []), [spec(POOL235, [2]), spec(POOL235, [3])])
    assert info.value.witness == "5"


def test_encode_rejects_target_equal_to_fixed():
    # the rationals cannot be strictly refined, so target Q under fixed Q fails
    target = spec(POOL235, [])
    with pytest.raises(InputError, match="strictly inside"):
        Z.encode(POOL235, target, spec(POOL235, []), [spec(POOL235, [])])


def test_encoding_faithfulness_exhaustive_small_pools():
    for primes in ([2], [2, 3], [2, 3, 5], [2, 3, 5, 7, 11, 13]):
        pool = Z.PrimePool.of(primes)
        k = len(pool)
        full = (1 << k) - 1
        index = {p: i for i, p in enumerate(pool.primes)}

        def enc(t):
            m = 0
            for p in t:
                m |= 1 << index[p]
            return full ^ m

        subsets = [frozenset(c) for r in range(k + 1) for c in combinations(pool.primes, r)]
        probes = [Fraction(1, p) for p in pool.primes]
        for t1 in subsets:
            for t2 in subsets:
                ring_le = all(
                    Z.membership(spec(pool, t2), q) or not Z.membership(spec(pool, t1), q)
                    for q in probes
                )
                assert ring_le == (enc(t1) & ~enc(t2) == 0)
                both = enc(t1) & enc(t2)
                assert both == enc(t1 | t2)
        if k <= 3:
            extra = [Fraction(1, 2 * 3), Fraction(4), Fraction(9, 10)]
            for t1 in subsets:
                for t2 in subsets:
                    meet = spec(pool, t1 | t2)
                    for q in probes + extra:
                        assert (
                            Z.membership(spec(pool, t1), q) and Z.membership(spec(pool, t2), q)
                        ) == Z.membership(meet, q)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]), min_size=1, max_size=12),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_encoding_inclusion_hypothesis(primes, seed1, seed2):
    pool = Z.PrimePool.of(primes)
    k = len(pool)
    t1 = frozenset(p for i, p in enumerate(pool.primes) if seed1 >> i & 1)
    t2 = frozenset(p for i, p in enumerate(pool.primes) if seed2 >> i & 1)
    ring_le = all(
        Z.membership(spec(pool, t2), Fraction(1, p)) or not Z.membership(spec(pool, t1), Fraction(1, p))
        for p in pool.primes
    )
    assert ring_le == (t2 <= t1)


# ------------------------------------------------------------------ sweeps

def test_sweep_singleton_pool():
    report = Z.pool_uniqueness_check(Z.PrimePool.of([2]))
    assert report.checks == 1 and report.passed


def test_sweep_small_pools_pass():
    for primes, expected in (([2, 3], 5), ([2, 3, 5], 19), ([2, 3, 5, 7], 65)):
        report = Z.pool_uniqueness_check(Z.PrimePool.of(primes))
        assert report.checks == expected
        assert report.passed, report.failures[:3]


def test_sweep_matches_object_level_analysis():
    # spot-check the lean sweep against the full engine on a random pool
    rng = random.Random(424242)
    pool = Z.PrimePool.of([2, 5, 11])
    for _ in range(10):
        t = frozenset(rng.sample(pool.primes, rng.randint(1, 3)))
        s_pool = [frozenset(c) for r in range(len(t)) for c in combinations(sorted(t), r)]
        s = rng.choice(s_pool)
        fam = Z.encode(pool, spec(pool, t), spec(pool, s), [spec(pool, [p]) for p in sorted(t)])
        analysis = E.unique_minimal_analysis(fam)
        assert analysis.unique and analysis.cset_represents
        want = tuple(i for i, p in enumerate(sorted(t)) if p not in s)
        assert analysis.strongly_irredundant_rep == want


def test_sweep_cap():
    big = Z.PrimePool.of([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73])
    with pytest.raises(CapExceeded):
        Z.pool_uniqueness_check(big)


# ------------------------------------------------- bit-sliced against per-check

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _outcome(route, pool):
    """A route's report, or the message of the ConsistencyError it raised."""
    try:
        return route(pool)
    except ConsistencyError as exc:
        return str(exc)


def test_bit_sliced_sweep_matches_the_per_check_route():
    for k in range(1, 6):
        for primes in combinations(FIRST_PRIMES, k):
            pool = Z.PrimePool.of(primes)
            assert Z.pool_uniqueness_check(pool) == Z.pool_uniqueness_oracle(pool), primes
    pool = Z.PrimePool.of([3, 5, 7, 11, 13, 17, 19])
    report = Z.pool_uniqueness_check(pool)
    assert report == Z.pool_uniqueness_oracle(pool)
    assert report.checks == 3 ** 7 - 2 ** 7 and report.passed


def test_bit_sliced_sweep_in_several_slices_matches(monkeypatch):
    # targets of up to 5 primes split into up to 8 slices of 4 fixed rings
    monkeypatch.setattr(Z, "SLICE_BITS", 2)
    for primes in ([2], [2, 3, 5], [2, 3, 5, 7, 11]):
        pool = Z.PrimePool.of(primes)
        assert Z.pool_uniqueness_check(pool) == Z.pool_uniqueness_oracle(pool)


def _corrupt_size(monkeypatch, m, flips):
    """Flip local bit b of member c, for each (c, b) in flips, in every target of m primes.

    The sweep sees the flips in its size-m input and the oracle in the members
    of each target of m primes: local bit j is the prime t_bits[j], and local
    bit m (the member holds the target) the least prime outside T.
    """
    size_input, localizations = Z._size_input, Z._localizations

    def corrupted_input(size):
        local, up, down = size_input(size)
        if size != m:
            return local, up, down
        local = list(local)
        for c, b in flips:
            local[c] ^= 1 << b
        return (local, *Z.inclusion_order(local))

    def corrupted_localizations(k, t_bits):
        members = localizations(k, t_bits)
        if len(t_bits) == m:
            bits = t_bits + [i for i in range(k) if i not in t_bits][:1]
            for c, b in flips:
                members[c] ^= 1 << bits[b]
        return members

    monkeypatch.setattr(Z, "_size_input", corrupted_input)
    monkeypatch.setattr(Z, "_localizations", corrupted_localizations)


@pytest.mark.parametrize("slice_bits", [Z.SLICE_BITS, 2])
def test_corrupted_family_gives_the_per_check_failures_or_error(monkeypatch, slice_bits):
    # a corrupted member corrupts the excess table of every target of its size
    # and so R; both routes must give the same failure lines in the same
    # order, or raise the same ConsistencyError
    monkeypatch.setattr(Z, "SLICE_BITS", slice_bits)
    pool = Z.PrimePool.of([2, 3, 5, 7])
    k = len(pool)
    corruptions = [(m, [(c, b)]) for m in range(1, k + 1) for c in range(m) for b in range(m + (m < k))]
    # each T of three primes from the members missing its first and second,
    # second and third, first and third primes: three minimal representations
    corruptions.append((3, [(0, 1), (1, 2), (2, 0)]))
    kinds = collections.Counter()
    for m, flips in corruptions:
        with monkeypatch.context() as patch:
            _corrupt_size(patch, m, flips)
            sliced = _outcome(Z.pool_uniqueness_check, pool)
            per_check = _outcome(Z.pool_uniqueness_oracle, pool)
        assert sliced == per_check, (m, flips)
        if isinstance(sliced, str):
            kinds[sliced] += 1
        else:
            kinds.update(line.split(": ", 1)[1].split(" for ")[0] for line in sliced.failures)
    assert kinds["a representation must contain a minimal closed one"]
    for line in ("expected a unique minimal representation", "unexpected strongly irredundant representation",
                 "witness", "criticality does not match the unabsorbed localizations"):
        assert kinds[line], kinds


def test_a_corrupted_target_reaches_only_the_oracle(monkeypatch, capsys):
    # the sweep builds its input from the size of T alone, so one target's
    # corrupted members leave its report clean; the oracle reads them and
    # makes zr-check --oracle exit 4
    pool = Z.PrimePool.of(FIRST_PRIMES[:4])
    clean = Z.pool_uniqueness_check(pool)
    localizations = Z._localizations

    def corrupted(k, t_bits):
        members = localizations(k, t_bits)
        if t_bits == [1, 2]:  # T = {3, 5}: the localization at 3 also loses 5
            members[0] ^= 1 << t_bits[1]
        return members

    monkeypatch.setattr(Z, "_localizations", corrupted)
    assert Z.pool_uniqueness_check(pool) == clean
    assert Z.pool_uniqueness_oracle(pool) != clean
    assert cli.main(["zr-check", "--pool", "2,3,5,7", "--oracle"]) == 4
    assert "disagrees with the per-check oracle" in capsys.readouterr().err


def test_sweep_decides_each_distinct_input_once(monkeypatch):
    # co-singleton members give every target of m primes the same input of
    # _sliced_target, so a k-prime pool has k distinct inputs, each with one
    # order and one excess table; the oracle still searches once per check
    sliced, core = Z._sliced_target, Z.minimal_closed_core
    order, table = Z.inclusion_order, Z.subset_intersections
    sizes = []
    searches = []
    calls = collections.Counter()
    monkeypatch.setattr(Z, "_sliced_target", lambda m, *rest: sizes.append(m) or sliced(m, *rest))
    monkeypatch.setattr(Z, "minimal_closed_core", lambda *args: searches.append(1) or core(*args))
    monkeypatch.setattr(Z, "inclusion_order", lambda *args: calls.update(["order"]) or order(*args))
    monkeypatch.setattr(Z, "subset_intersections", lambda *args: calls.update(["table"]) or table(*args))
    for k in range(1, 7):
        pool = Z.PrimePool.of(FIRST_PRIMES[:k])
        for _ in range(2):  # nothing carries over from one call to the next
            sizes.clear()
            calls.clear()
            report = Z.pool_uniqueness_check(pool)
            assert sorted(sizes) == list(range(1, k + 1)), k
            assert calls == {"order": k, "table": k}, k
            assert report.checks == 3 ** k - 2 ** k and report.passed
        searches.clear()
        assert Z.pool_uniqueness_oracle(pool) == report
        assert len(searches) == 3 ** k - 2 ** k


def _order_fault(m, a, b, kind):
    """inclusion_order with one injected fault on the targets of m primes."""
    order = Z.inclusion_order

    def faulty(points):
        up, down = order(points)
        if len(points) != m:
            return up, down
        up, down = list(up), list(down)
        if kind == "down":  # down[a] loses or gains b
            down[a] ^= 1 << b
        else:  # point a strictly below point b, on both sides of the order
            up[a] |= 1 << b
            down[b] |= 1 << a
        return tuple(up), tuple(down)

    return faulty


def _table_fault(w, e, s):
    """_slice_basis with bit s of U[e] flipped in the slices of width w."""
    basis = Z._slice_basis

    def faulty(width):
        H, U = basis(width)
        if width == w:
            U = list(U)
            U[e] ^= 1 << s
        return H, U

    return faulty


@pytest.mark.parametrize("primes, order, table, message", [
    ([2], (1, 0, 0, "down"), None, "minimal points of a closed representation must represent"),
    ([2, 3, 5], (2, 1, 0, "below"), (2, 3, 1), "a minimal point of a minimal representation is redundant"),
    ([2, 3, 5], (2, 0, 1, "down"), None, "minimal points fail to regenerate their closed representation"),
    ([2, 3, 5], None, (3, 5, 0), "critical-core representation does not match minimal-representation count"),
])
def test_each_bit_sliced_cross_check_can_fire(monkeypatch, primes, order, table, message):
    # The check that a closed representation exists fires in the
    # corrupted-family test.
    if order:
        monkeypatch.setattr(Z, "inclusion_order", _order_fault(*order))
    if table:
        monkeypatch.setattr(Z, "_slice_basis", _table_fault(*table))
    with pytest.raises(ConsistencyError) as info:
        Z.pool_uniqueness_check(Z.PrimePool.of(primes))
    assert str(info.value) == message


# i1: B1 = ab and B2 = ac lie below B3 = abc, with target a; its one minimal
# closed representation is every point, with minimal points B1 and B2
@pytest.mark.parametrize("closed, represents, up, message", [
    # {B3} is an up-set that does not represent
    ([0b100], (), None, "minimal points of a closed representation must represent"),
    # a table that is not monotone lets B1 go: {B2} represents but {B2, B3}
    # does not, so only the irredundance leg sees it
    ([0b111], (0b010,), None, "a minimal point of a minimal representation is redundant"),
    # {B2, B3} represents but {B2} does not, so only the strong leg sees that
    # B1 can be replaced by its cone
    ([0b111], (0b110,), None, "a minimal point of a minimal representation is redundant"),
    # the order loses B3 above B1 and B2
    ([0b111], (), (0b001, 0b010, 0b100), "minimal points fail to regenerate their closed representation"),
    # {B1, B2} is not an up-set
    ([0b011], (), None, "minimal points fail to regenerate their closed representation"),
], ids=["non-representing-up-set", "table-drops-B1", "only-the-strong-leg", "order-drops-B3", "not-an-up-set"])
def test_each_engine_minimal_points_check_can_fire(closed, represents, up, message):
    family = i1_family()
    space, fixed, target = family.space, family.context.fixed_mask, family.context.target_mask
    inter = E.intersection_table(family)
    assert E._minimal_points_checked([0b111], inter, space.up, space.down, fixed, target) == [0b011]
    inter = list(inter)
    for y in represents:
        inter[y] = target
    with pytest.raises(ConsistencyError) as info:
        E._minimal_points_checked(closed, inter, up or space.up, space.down, fixed, target)
    assert str(info.value) == message


def test_the_strong_leg_alone_can_fire_in_the_bit_sliced_route(monkeypatch):
    # point 1 below 0 below 2 without 1 below 2, and one flipped bit of U: the
    # irredundance leg passes, and without the strong leg the sweep reports a
    # regeneration fault instead
    local = [0b111 ^ (1 << c) | 1 << 3 for c in range(3)]  # co-singletons, each holding the target
    monkeypatch.setattr(Z, "_slice_basis", _table_fault(3, 6, 5))
    with pytest.raises(ConsistencyError) as info:
        Z._sliced_target(3, local, (0b101, 0b011, 0b100), (0b011, 0b010, 0b101))
    assert str(info.value) == "a minimal point of a minimal representation is redundant"


def test_both_routes_raise_under_every_single_down_fault(monkeypatch):
    # the messages may differ: the per-check search prunes with the faulty order
    for a, b in product(range(3), repeat=2):
        monkeypatch.setattr(Z, "inclusion_order", _order_fault(3, a, b, "down"))
        for route in (Z.pool_uniqueness_check, Z.pool_uniqueness_oracle):
            with pytest.raises(ConsistencyError):
                route(Z.PrimePool.of([2, 3, 5]))
        monkeypatch.undo()


def test_oracle_catches_a_mutated_per_check_route(monkeypatch, capsys):
    def no_srep(*args):
        crit, cset, cset_represents, _ = E.analysis_core(*args)
        return crit, cset, cset_represents, None

    monkeypatch.setattr(Z, "analysis_core", no_srep)
    pool = ["--pool", "2,3,5"]
    assert cli.main(["zr-check", *pool]) == 0
    assert cli.main(["zr-check", *pool, "--oracle"]) == 4
    assert "disagrees with the per-check oracle" in capsys.readouterr().err
    fixture = str(FIXTURES / "zr_pool235.json")
    assert cli.main(["check-theorems", fixture]) == 0
    assert cli.main(["check-theorems", fixture, "--oracle"]) == 4
    assert "disagrees with the per-check oracle" in capsys.readouterr().err


def test_oracle_catches_a_mutated_bit_sliced_route(monkeypatch, capsys):
    # one bogus failure record for S = {} of the one-prime targets
    sliced = Z._sliced_target
    bogus = (0, True, False, (), False)
    monkeypatch.setattr(Z, "_sliced_target", lambda m, *rest: sliced(m, *rest) + [bogus] * (m == 1))
    assert cli.main(["zr-check", "--pool", "2,3"]) == 0
    assert "T={2} S={}: expected a unique minimal representation" in capsys.readouterr().out
    assert cli.main(["zr-check", "--pool", "2,3", "--oracle"]) == 4


def test_zr_check_oracle_output_is_the_golden(capsys):
    # the 10-prime pool has m = SLICE_BITS for its full target: every fixed ring in one slice
    for pool, name in (([str(FIXTURES / "zr_pool235.json")], "zr_pool235_zrcheck.json"),
                       (["--pool", "2,3,5,7,11,13,17,19,23,29"], "zr_pool10_zrcheck.json")):
        golden = (pathlib.Path(__file__).resolve().parent / "golden" / name).read_text(encoding="utf-8")
        for extra in ([], ["--oracle"]):
            assert cli.main(["zr-check", *pool, *extra]) == 0
            assert capsys.readouterr().out == golden
