"""The bitmask fast paths of the ring layer against definition-level oracles.

- `is_arithmetical` (meet/join index tables over ideal bitmasks) against a
  triple loop over `ideal_meet` / `ideal_join` on element sets, written here;
- `RingIdeal.element_mask` (a repunit quotient for zmod) against the mask of
  `element_set()`, for every divisor of several moduli;
- the zmod family of `build_irr_space` (one universe point per divisor
  class) against the quotient of an element-level reference family, and the
  report and theorem suite of both families against each other;
- `spectral_subbasis` (one column per element class) against the set of
  per-element columns;
- a call-counting test that one table-ring request builds the lattice tables
  once however often it asks whether the ring is arithmetical;
- the row-wise ring-axiom check of `FiniteRing.from_tables` against a plain
  triple loop, on product rings with one fault each: same first diagnostic;
- its generator route, which confirms the axioms on additive generators:
  never on a faulty table, always on the product rings of the benchmark,
  each of its three checks the only one to catch some faulty table, and
  its two preconditions (commutativity, additive inverses) each needed.
"""

import itertools
import json
import pathlib
import random

import pytest

from helpers import collapse_to_atoms, element_irr_space, pairwise_irreducible_table_ideals, random_spec_space
from specrep import cli, theorems
from specrep import engine as E
from specrep.errors import SpecrepError
from specrep import rings as R
from specrep.topology import SpecSpace, spectral_subbasis

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def product_tables(moduli):
    """Operation tables of Z/m1 x ... x Z/mk, elements numbered in mixed radix."""
    elems = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elems)}

    def table(op):
        return [[index[tuple(op(x, y) % m for x, y, m in zip(a, b, moduli))] for b in elems] for a in elems]

    return table(lambda x, y: x + y), table(lambda x, y: x * y)


def z4x_tables():
    """Z/4[x]/(2x, x^2): index a + 4b encodes a + b*x with a mod 4 and b mod 2."""
    def split(i):
        return i % 4, i // 4

    def add(i, j):
        (a, b), (c, d) = split(i), split(j)
        return (a + c) % 4 + 4 * ((b + d) % 2)

    def mul(i, j):
        (a, b), (c, d) = split(i), split(j)
        return a * c % 4 + 4 * ((a * d + b * c) % 2)

    return [[add(i, j) for j in range(8)] for i in range(8)], [[mul(i, j) for j in range(8)] for i in range(8)]


def f2xy_tables():
    tables = json.loads((FIXTURES / "f2xy_tables.json").read_text())["ring"]["tables"]
    return tables["add"], tables["mul"]


def distributive_oracle(ring):
    """The lattice definition, on element sets: i ∧ (j ∨ k) = (i ∧ j) ∨ (i ∧ k) for all ideals."""
    ideals = [R.RingIdeal(ring=ring, elements=s) for s in R._all_table_ideals(ring)]
    for i in ideals:
        for j in ideals:
            for k in ideals:
                left = R.ideal_meet(i, R.ideal_join(j, k))
                right = R.ideal_join(R.ideal_meet(i, j), R.ideal_meet(i, k))
                if left.elements != right.elements:
                    return False
    return True


ARITHMETICAL = [(2,), (6,), (8,), (9,), (2, 2), (4, 2), (2, 3), (4, 4), (2, 2, 2), (2, 2, 2, 2, 2), (4, 3, 5)]


@pytest.mark.parametrize("moduli", ARITHMETICAL, ids=lambda m: "x".join(map(str, m)))
def test_product_rings_are_arithmetical_by_both_routes(moduli):
    ring = R.FiniteRing.from_tables(*product_tables(moduli))
    assert R.is_arithmetical(ring) is True
    assert distributive_oracle(ring) is True


@pytest.mark.parametrize("tables", [f2xy_tables, z4x_tables], ids=["f2xy-fixture", "z4x-mod-2x-x2"])
def test_non_arithmetical_rings_by_both_routes(tables):
    ring = R.FiniteRing.from_tables(*tables())
    assert R.is_arithmetical(ring) is False
    assert distributive_oracle(ring) is False


def times(first, second):
    """Operation tables of the product ring of two table rings, element (a, b) numbered a * |second| + b."""
    n2 = len(second[0])

    def table(k):
        return [[first[k][a1][a2] * n2 + second[k][b1][b2] for a2 in range(len(first[0])) for b2 in range(n2)]
                for a1 in range(len(first[0])) for b1 in range(n2)]

    return table(0), table(1)


@pytest.mark.parametrize("tables", [lambda: times(f2xy_tables(), product_tables((2,))),
                                    lambda: times(z4x_tables(), product_tables((3,))),
                                    lambda: times(product_tables((2,)), z4x_tables())],
                         ids=["f2xy-x-z2", "z4x-x-z3", "z2-x-z4x"])
def test_products_with_a_non_arithmetical_factor_by_both_routes(tables):
    # a product lattice is distributive iff each factor's is, and the factors here are
    # the two non-arithmetical rings above, so each lattice has join-irreducibles on both sides
    ring = R.FiniteRing.from_tables(*tables())
    assert R.is_arithmetical(ring) is False
    assert distributive_oracle(ring) is False


def dual_number_tables():
    """F2[x]/(x^2): index a + 2b encodes a + b*x; x is the one nonzero element whose square is 0."""
    mul = [[(i & 1) * (j & 1) | (((i & 1) * (j >> 1) ^ (i >> 1) * (j & 1)) << 1) for j in range(4)] for i in range(4)]
    return [[i ^ j for j in range(4)] for i in range(4)], mul


def _pairs_prime(ring, elems):
    """Primality by every pair of ring elements: the reference for rings._table_is_prime."""
    rng = range(ring.size)
    return all(a in elems or b in elems for a in rng for b in rng if ring.mul[a][b] in elems)


def _pairs_strongly_irreducible(ring, elems):
    """The principal-meet criterion on every pair of elements: the reference for
    rings._table_is_strongly_irreducible."""
    principal = [frozenset(row) for row in ring.mul]
    rng = range(ring.size)
    return not any(principal[a] & principal[b] <= elems and a not in elems and b not in elems
                   for a in rng for b in rng)


@pytest.mark.parametrize("tables", [lambda: product_tables((4, 2)), lambda: product_tables((2, 3, 4)),
                                    f2xy_tables, z4x_tables, lambda: times(f2xy_tables(), product_tables((2,))),
                                    dual_number_tables],
                         ids=["4x2", "2x3x4", "f2xy", "z4x", "f2xy-x-z2", "f2-dual-numbers"])
def test_element_filters_match_their_pairwise_definitions(tables):
    ring = R.FiniteRing.from_tables(*tables())
    for elems in R._all_table_ideals(ring):
        assert R._table_is_prime(ring, elems) == _pairs_prime(ring, elems)
        assert R._table_is_strongly_irreducible(ring, elems) == _pairs_strongly_irreducible(ring, elems)


IRREDUCIBLE_SHAPES = [(2,), (4,), (8,), (9,), (6,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (4, 2), (4, 4),
                      (4, 9), (8, 3), (2, 3, 5), (4, 3, 5), (2, 4, 3)]


@pytest.mark.parametrize("tables", [*(lambda m=m: product_tables(m) for m in IRREDUCIBLE_SHAPES),
                                    f2xy_tables, z4x_tables, lambda: times(f2xy_tables(), product_tables((2,)))],
                         ids=[*("x".join(map(str, m)) for m in IRREDUCIBLE_SHAPES), "f2xy", "z4x", "f2xy-x-z2"])
def test_irreducible_filter_matches_the_pairwise_definition(tables):
    ring = R.FiniteRing.from_tables(*tables())
    got = [ideal.elements for ideal in R.enumerate_ideals(ring, "irreducible")]
    assert got == pairwise_irreducible_table_ideals(ring)


@pytest.mark.parametrize("tables", [lambda: product_tables((4, 2)), lambda: product_tables((2, 2, 2)),
                                    lambda: product_tables((4, 3, 5)), f2xy_tables, z4x_tables],
                         ids=["4x2", "2x2x2", "4x3x5", "f2xy", "z4x"])
def test_lattice_tables_are_intersection_and_sum(tables):
    ring = R.FiniteRing.from_tables(*tables())
    ideals = [R.RingIdeal(ring=ring, elements=s) for s in R._all_table_ideals(ring)]
    meet, join = R._ideal_lattice(ring)
    for a, i in enumerate(ideals):
        for b, j in enumerate(ideals):
            assert ideals[meet[a][b]].elements == R.ideal_meet(i, j).elements
            assert ideals[join[a][b]].elements == R.ideal_join(i, j).elements


@pytest.mark.parametrize("n", [2, 12, 30, 97, 360, 1024, 2310])
def test_zmod_element_mask_is_the_element_set(n):
    ring = R.FiniteRing.zmod(n)
    for g in R.divisors_of(n):  # g = 1 is the whole ring, g = n the zero ideal
        ideal = R.zmod_ideal(ring, g)
        assert ideal.element_mask() == sum(1 << e for e in ideal.element_set()), (n, g)


def test_irr_space_masks_are_the_element_sets():
    # table rings keep the element universe; zmod's divisor classes are
    # checked against the element-level reference below
    table = R.FiniteRing.from_tables(*product_tables((4, 3)))
    zero = R.table_ideal(table, [table.zero])
    family = R.build_irr_space(table, zero)
    for b, mask in zip(R.irreducibles_over(table, zero), family.members):
        assert mask == sum(1 << e for e in b.elements)


@pytest.mark.parametrize("points", ["irreducible", "prime"])
@pytest.mark.parametrize("n", [12, 360, 2310])
def test_zmod_irr_space_is_the_atom_quotient_of_the_element_family(n, points):
    # the atoms are the classes of elements lying in the same ideals
    ring = R.FiniteRing.zmod(n)
    ideals = [R.zmod_ideal(ring, g) for g in R.divisors_of(n)]
    separators = [sum(1 << e for e in i.element_set()) for i in ideals]
    for ideal in ideals[1:]:
        got = R.build_irr_space(ring, ideal, points)
        want = collapse_to_atoms(element_irr_space(ring, ideal, points), separators)
        assert got == want, (n, ideal.name, points)  # labels, C, A, names and members
        assert len(got.context.universe) == len(ideals)


SMALL_ZMOD = [(12, 6), (12, 12), (30, 30), (36, 18), (72, 72), (60, 4), (90, 45), (64, 64)]


def _outcome(read, family):
    """What read(family) returns, or the package error it raises."""
    try:
        return read(family)
    except SpecrepError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n, g", SMALL_ZMOD)
def test_zmod_class_family_answers_as_the_element_family(n, g):
    # the prime points of a non-radical ideal do not represent it: both
    # families then fail alike, with the same separating label
    ring = R.FiniteRing.zmod(n)
    ideal = R.zmod_ideal(ring, g)
    for points in ("irreducible", "prime"):
        classes = R.build_irr_space(ring, ideal, points)
        elements = element_irr_space(ring, ideal, points)
        assert len(classes.context.universe) < len(elements.context.universe) == n
        for read in (lambda f: E.report_to_dict(E.build_report(f, oracle=True)), theorems.run_family_suite):
            assert _outcome(read, classes) == _outcome(read, elements), (n, g, points)


def test_huge_zmod_element_mask_is_capped():
    ring = R.FiniteRing.zmod(R.ZMOD_ELEMENT_CAP + 1)
    with pytest.raises(R.CapExceeded):
        R.zmod_ideal(ring, 7).element_mask()


def subbasis_oracle(space):
    """One column per universe element: the points not containing it."""
    return sorted({sum(1 << i for i, p in enumerate(space.points) if not p >> d & 1)
                   for d in range(space.universe_size)})


def test_spectral_subbasis_matches_per_element_columns():
    rng = random.Random(4404)
    for _ in range(300):
        space = random_spec_space(rng, max_universe=rng.choice((3, 8, 40)), max_points=12)
        assert spectral_subbasis(space) == subbasis_oracle(space)


def test_spectral_subbasis_of_a_large_ring_universe():
    # the divisor classes of zmod(35000) over the ideal (35): the subbasic
    # opens come from the four gcds with 35
    ring = R.FiniteRing.zmod(35000)
    family = R.build_irr_space(ring, R.zmod_ideal(ring, 35))
    space = SpecSpace(points=family.members, universe_size=len(family.context.universe))
    sub = spectral_subbasis(space)
    assert sub == subbasis_oracle(space)
    assert len(sub) == 4


@pytest.mark.parametrize("command, calls", [("decompose", 2), ("check-theorems", 6)])
def test_one_table_ring_request_builds_the_lattice_once(tmp_path, monkeypatch, capsys, command, calls):
    add, mul = product_tables((2, 2, 2, 3))
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"schema": 1, "ring": {"tables": {"add": add, "mul": mul}}, "ideal": [0]}))

    builds, asks = [], []
    build = R._ideal_lattice
    cached = R.is_arithmetical

    def counting_build(ring):
        builds.append(ring)
        return build(ring)

    def counting_ask(ring):
        asks.append(ring)
        return cached(ring)

    cached.cache_clear()
    monkeypatch.setattr(R, "_ideal_lattice", counting_build)
    monkeypatch.setattr(R, "is_arithmetical", counting_ask)
    assert cli.main([command, str(path)]) == 0
    assert capsys.readouterr().out
    assert len(asks) == calls
    assert len(builds) == 1


# ------------------------------------------------------------- ring axioms

def axiom_fault_oracle(add, mul):
    """The first ring-axiom fault of square in-range tables, from a plain loop over all triples."""
    rng = range(len(add))
    zero = next((e for e in rng if all(add[a][e] == a for a in rng)), None)
    if zero is None:
        return "no additive identity"
    if next((e for e in rng if all(mul[a][e] == a for a in rng)), None) is None:
        return "no multiplicative identity"
    for a in rng:
        if all(add[a][b] != zero for b in rng):
            return "missing additive inverse"
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return "operation not commutative"
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return "addition not associative"
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return "multiplication not associative"
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return "distributivity fails"
    return None


def broken_tables(rng, moduli):
    """Product-ring tables with one fault: an entry, a symmetric pair, a lost inverse or a relabelled table."""
    add, mul = product_tables(moduli)
    n = len(add)
    way = rng.randrange(5)
    table = rng.choice((add, mul))
    a, b, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if way == 0:
        table[a][b] = v
    elif way == 1:
        table[a][b] = table[b][a] = v
    elif way == 2:  # element 0 is the zero; 1 + (-1) becomes nonzero
        add[1][add[1].index(0)] = rng.randrange(1, n)
    else:  # swap two labels in one table only: still a commutative monoid, unrelated to the other
        swap = list(range(n))
        swap[a], swap[b] = b, a
        relabelled = [[swap[table[swap[i]][swap[j]]] for j in range(n)] for i in range(n)]
        table[:] = relabelled
    return add, mul


def test_table_axioms_report_the_first_fault_of_a_triple_loop():
    rng = random.Random(5081)
    seen = set()
    for moduli in [(2, 3), (4, 3), (2, 2, 3), (2, 2, 2, 2)] * 60 + [(4, 3, 5)] * 10:
        add, mul = broken_tables(rng, moduli)
        want = axiom_fault_oracle(add, mul)
        if want is None:
            R.FiniteRing.from_tables(add, mul)
            continue
        seen.add(want)
        with pytest.raises(R.InputError) as info:
            R.FiniteRing.from_tables(add, mul)
        assert str(info.value) == f"tables fail ring axioms: {want}"
    assert seen >= {"missing additive inverse", "operation not commutative", "addition not associative",
                    "multiplication not associative", "distributivity fails"}


def _spy_pair_loop(monkeypatch):
    """Record each run of the pair loop of `from_tables`, which runs whenever the generator route does not confirm."""
    runs = []
    loop = R._check_every_pair

    def spy(*args):
        runs.append(args)
        return loop(*args)

    monkeypatch.setattr(R, "_check_every_pair", spy)
    return runs


def test_generator_route_never_confirms_a_faulty_table(monkeypatch):
    runs = _spy_pair_loop(monkeypatch)
    rng = random.Random(5081)
    routed = 0
    for moduli in [(2, 3), (4, 3), (2, 2, 3), (2, 2, 2, 2)] * 60 + [(4, 3, 5)] * 10:
        add, mul = broken_tables(rng, moduli)
        want = axiom_fault_oracle(add, mul)
        if want in (None, "no additive identity", "no multiplicative identity"):
            continue  # sound, or refused before any associativity check
        runs.clear()
        with pytest.raises(R.InputError):
            R.FiniteRing.from_tables(add, mul)
        assert runs, want
        # the route's own preconditions: commutative tables with additive inverses
        add_t, mul_t = tuple(map(tuple, add)), tuple(map(tuple, mul))
        zero = next(e for e in range(len(add)) if all(row[e] == a for a, row in enumerate(add)))
        if add_t == tuple(zip(*add_t)) and mul_t == tuple(zip(*mul_t)) and all(zero in row for row in add):
            assert not R._axioms_hold_on_generators(add_t, mul_t, zero), want
            routed += 1
    assert routed >= 100


def _relabelled(add, mul, perm):
    """The same ring with element x renamed perm[x]."""
    n = len(add)
    inv = sorted(range(n), key=perm.__getitem__)
    return ([[perm[add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
            [[perm[mul[inv[i]][inv[j]]] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (2, 2, 2, 2, 2), (4, 5), (4, 3, 5), (2, 2, 2, 3)],
                         ids=lambda m: "x".join(map(str, m)))
def test_generator_route_confirms_the_benchmark_product_rings(monkeypatch, moduli):
    runs = _spy_pair_loop(monkeypatch)
    add, mul = product_tables(moduli)
    rng = random.Random(len(add))
    for _ in range(4):
        perm = list(range(len(add)))
        rng.shuffle(perm)
        ring = R.FiniteRing.from_tables(*_relabelled(add, mul, perm))
        gens = R._additive_generators(ring.add, ring.zero)
        assert gens is not None and 2 ** len(gens) <= ring.size
    assert runs == []


def _xor_tables(n, product):
    """Tables on n = 2^k labels: + is XOR, * the bilinear extension of product on single bits."""
    def mul(x, y):
        out = 0
        for i in range(n.bit_length() - 1):
            for j in range(n.bit_length() - 1):
                if x >> i & 1 and y >> j & 1:
                    out ^= product(1 << i, 1 << j)
        return out

    return [[x ^ y for y in range(n)] for x in range(n)], [[mul(x, y) for y in range(n)] for x in range(n)]


def _faulty_past_each_check():
    """For each generator check, a table that fails only there among the three checks."""
    # F2^4: 3 + 5 corrupted; no generator (a single bit) and no product x * g reads that entry
    plus_add, plus_mul = product_tables((2, 2, 2, 2))
    plus_add[3][5] = plus_add[5][3] = 7
    # Z/4 with the labels 2 and 3 swapped in the product only: a monoid, not distributive
    swap = [0, 1, 3, 2]
    dist_add, dist_mul = product_tables((4,))
    dist_mul = [[swap[dist_mul[swap[x]][swap[y]]] for y in range(4)] for x in range(4)]
    # F2<1, e, f> with e e = f, e f = 0, f f = 1: commutative and bilinear, (e e) f != e (e f)
    basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): 4, (2, 4): 0, (4, 4): 1}
    times_add, times_mul = _xor_tables(8, lambda a, b: basis[min(a, b), max(a, b)])
    return {
        "_plus_associative_at": (plus_add, plus_mul),
        "_distributive_at": (dist_add, dist_mul),
        "_times_associative_at": (times_add, times_mul),
    }


def _upper_triangular_f2():
    """2x2 upper triangular matrices over F2, label a + 2b + 4c for [[a, b], [0, c]]: a ring, not commutative."""
    def mul(x, y):
        a, b, c = x & 1, x >> 1 & 1, x >> 2
        d, e, f = y & 1, y >> 1 & 1, y >> 2
        return a & d | ((a & e) ^ (b & f)) << 1 | (c & f) << 2

    return [[x ^ y for y in range(8)] for x in range(8)], [[mul(x, y) for y in range(8)] for x in range(8)]


def _saturating_semiring():
    """0..4 with sums and products capped at 4: commutative, associative, distributive, without negatives."""
    return [[min(x + y, 4) for y in range(5)] for x in range(5)], [[min(x * y, 4) for y in range(5)] for x in range(5)]


@pytest.mark.parametrize("tables, want", [(_upper_triangular_f2, "operation not commutative"),
                                          (_saturating_semiring, "missing additive inverse")],
                         ids=["not-commutative", "no-inverses"])
def test_the_generator_route_needs_its_preconditions(tables, want):
    # the route alone accepts these tables; the checks before it send them to the pair loop
    add, mul = tables()
    assert R._axioms_hold_on_generators(tuple(map(tuple, add)), tuple(map(tuple, mul)), 0)
    assert axiom_fault_oracle(add, mul) == want
    with pytest.raises(R.InputError) as info:
        R.FiniteRing.from_tables(add, mul)
    assert str(info.value) == f"tables fail ring axioms: {want}"


@pytest.mark.parametrize("dropped", ["_plus_associative_at", "_distributive_at", "_times_associative_at"])
def test_each_generator_check_is_needed(monkeypatch, dropped):
    add, mul = _faulty_past_each_check()[dropped]
    want = axiom_fault_oracle(add, mul)
    assert want is not None
    with pytest.raises(R.InputError) as info:
        R.FiniteRing.from_tables(add, mul)
    assert str(info.value) == f"tables fail ring axioms: {want}"

    kept = tuple(c for c in R._GENERATOR_CHECKS if c.__name__ != dropped)
    assert len(kept) == 2
    monkeypatch.setattr(R, "_GENERATOR_CHECKS", kept)
    R.FiniteRing.from_tables(add, mul)  # wrongly accepted without the dropped check
