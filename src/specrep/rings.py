"""Finite commutative rings with identity, their ideals, and decompositions.

Two ring presentations: modular arithmetic rings, whose ideals are divisor
lattices and scale to very large moduli, and explicit addition/multiplication
tables, capped at 64 elements.  A table ring's associativity and
distributivity are checked on a generating set of its additive group, and
every pair of elements is checked only when that does not settle them, so a
faulty table reports the first fault a loop over all triples meets.
On top of the ideal lattice sit the irreducibility filters, the arithmetical
(distributive-lattice) test, colon ideals, saturations, Krull associated
primes, and the decomposition of a proper ideal into the irreducible ideals
minimal over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, itemgetter

from .errors import CapExceeded, ConsistencyError, InputError
# represents_mask stays importable from here: the benchmark's tracer test patches it in this module
from .setsystems import ContextTriple, PointFamily, represents_mask  # noqa: F401
from . import engine

TABLE_SIZE_CAP = 64
ZMOD_CAP = 10 ** 9
ZMOD_ELEMENT_CAP = 100_000

IDEAL_FILTERS = ("proper", "irreducible", "strongly_irreducible", "radical", "prime", "maximal")


@lru_cache(maxsize=200_000)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine up to the zmod cap."""
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@lru_cache(maxsize=4096)
def divisors_of(n: int) -> tuple[int, ...]:
    """The divisors of n, ascending; one tuple per modulus, shared by every caller."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def _row_getter(row):
    """t -> tuple(t[x] for x in row), also for a one-element row."""
    if len(row) == 1:
        return lambda t, x=row[0]: (t[x],)
    return itemgetter(*row)


def _check_every_pair(add, mul, zero: int, add_cols, mul_cols) -> None:
    """Raise the first ring-axiom fault a loop over all triples (a, b, c) meets.

    Each (a, b) compares whole rows over c, each row gathered by one
    itemgetter call; a row that differs is walked c by c, so the first fault
    reported is the one a plain triple loop meets first.
    """
    rng = range(len(add))
    add_at = [_row_getter(row) for row in add]
    mul_at = [_row_getter(row) for row in mul]
    for a in rng:
        if zero not in add[a]:
            raise InputError("tables fail ring axioms: missing additive inverse")
        commutes = add[a] == add_cols[a] and mul[a] == mul_cols[a]
        for b in rng:
            if not commutes and (add[a][b] != add[b][a] or mul[a][b] != mul[b][a]):
                raise InputError("tables fail ring axioms: operation not commutative")
            if (add[add[a][b]] != add_at[b](add[a])
                    or mul[mul[a][b]] != mul_at[b](mul[a])
                    or add_at[b](mul[a]) != mul_at[a](add[mul[a][b]])):
                raise _triple_fault(add, mul, a, b)


def _additive_generators(add, zero: int) -> list[int] | None:
    """A greedy generating set of (R, +), or None when a generator fails to double the set reached.

    Each element not yet reached becomes a generator, and the set reached is
    the closure of the generators under adding a generator on the right, a
    subset of what they generate under any bracketing.  In an abelian group
    each new generator at least doubles it (the subgroup grows by a coset),
    so a ring of n elements needs at most log2(n) generators.  Every element
    ends up reached: zero too, as (-g) + g, for + commutative with inverses.
    """
    gens: list[int] = []
    reached = {zero}
    for g in range(len(add)):
        if g in reached:
            continue
        gens.append(g)
        grown = set(gens)
        frontier = gens
        while frontier:
            frontier = {add[r][h] for r in frontier for h in gens} - grown
            grown |= frontier
        if len(grown) < 2 * len(reached):
            return None
        reached = grown
    return gens


def _plus_associative_at(add, mul, gens) -> bool:
    """(x + g) + y = x + (g + y) for all x, y: the g passing this are closed under + (Light's test)."""
    for g in gens:
        add_g = _row_getter(add[g])
        if any(add[add[x][g]] != add_g(add[x]) for x in range(len(add))):
            return False
    return True


def _distributive_at(add, mul, gens) -> bool:
    """x(g + y) = xg + xy for all x, y: once + is associative, the g passing this are closed under +."""
    mul_at = [_row_getter(row) for row in mul]
    for g in gens:
        add_g = _row_getter(add[g])
        if any(add_g(mul[x]) != mul_at[x](add[mul[x][g]]) for x in range(len(add))):
            return False
    return True


def _times_associative_at(add, mul, gens) -> bool:
    """(gx)y = g(xy) for all x, y: with distributivity and commutativity, the g passing this are closed under +."""
    mul_at = [_row_getter(row) for row in mul]
    for g in gens:
        mul_g = mul[g]
        if any(mul[mul_g[x]] != mul_at[x](mul_g) for x in range(len(mul))):
            return False
    return True


_GENERATOR_CHECKS = (_plus_associative_at, _distributive_at, _times_associative_at)


def _axioms_hold_on_generators(add, mul, zero: int) -> bool:
    """Whether + and * are associative and * distributes over +, decided on additive generators.

    Needs both tables commutative and additive inverses.  Each check holds
    for a set of elements closed under + (given the checks before it), so
    passing on a generating set of (R, +) proves it for every element, at
    one row comparison per generator and element.  False means only that
    this route did not decide.
    """
    gens = _additive_generators(add, zero)
    return gens is not None and all(check(add, mul, gens) for check in _GENERATOR_CHECKS)


def _triple_fault(add, mul, a: int, b: int) -> InputError:
    """The first axiom that fails at some (a, b, c), in the order c = 0, 1, ..."""
    for c in range(len(add)):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return InputError("tables fail ring axioms: addition not associative")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return InputError("tables fail ring axioms: multiplication not associative")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return InputError("tables fail ring axioms: distributivity fails")
    raise ConsistencyError(f"row comparison flagged ({a}, {b}) but no triple fails")


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative ring with identity.

    kind is "zmod" (size = modulus, tables implicit) or "tables" (explicit
    operation tables, checked against the ring axioms: associativity and
    distributivity on additive generators, every pair when that fails).
    """

    size: int
    kind: str
    zero: int
    one: int
    add: tuple[tuple[int, ...], ...] | None = None
    mul: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def zmod(cls, n: int) -> "FiniteRing":
        if n < 2:
            raise InputError("zmod needs modulus at least 2")
        if n > ZMOD_CAP:
            raise CapExceeded(f"zmod modulus {n} exceeds the cap of {ZMOD_CAP}")
        return cls(size=n, kind="zmod", zero=0, one=1)

    @classmethod
    def from_tables(cls, add, mul) -> "FiniteRing":
        size = len(add)
        if size == 0 or size > TABLE_SIZE_CAP:
            raise CapExceeded(f"table ring size must be between 1 and {TABLE_SIZE_CAP}")
        add = tuple(tuple(row) for row in add)
        mul = tuple(tuple(row) for row in mul)
        for name, t in (("add", add), ("mul", mul)):
            if len(t) != size or any(len(row) != size for row in t):
                raise InputError(f"{name} table is not square")
            if not all(0 <= min(row) and max(row) < size for row in t):
                raise InputError(f"{name} table has entries outside the element range")
        rng = range(size)
        add_cols, mul_cols = tuple(zip(*add)), tuple(zip(*mul))
        identity = tuple(rng)
        zero = next((e for e in rng if add_cols[e] == identity), None)
        if zero is None:
            raise InputError("tables fail ring axioms: no additive identity")
        one = next((e for e in rng if mul_cols[e] == identity), None)
        if one is None:
            raise InputError("tables fail ring axioms: no multiplicative identity")
        # The generator route can only confirm the axioms; whenever it does
        # not, the pair loop decides and reports the first fault.
        if not (add == add_cols and mul == mul_cols and all(zero in row for row in add)
                and _axioms_hold_on_generators(add, mul, zero)):
            _check_every_pair(add, mul, zero, add_cols, mul_cols)
        if one == zero:
            raise InputError("tables describe the zero ring (0 = 1); a ring needs 0 != 1")
        return cls(size=size, kind="tables", zero=zero, one=one, add=add, mul=mul)

    def describe(self) -> str:
        return f"zmod({self.size})" if self.kind == "zmod" else f"tables({self.size})"


@dataclass(frozen=True)
class RingIdeal:
    """An ideal, canonically a divisor for zmod and an element set for tables."""

    ring: FiniteRing
    generator: int | None = None
    elements: frozenset[int] | None = None

    @property
    def name(self) -> str:
        if self.ring.kind == "zmod":
            return f"({self.generator})"
        return "{" + ",".join(str(e) for e in sorted(self.elements)) + "}"

    def is_proper(self) -> bool:
        if self.ring.kind == "zmod":
            return self.generator > 1
        return len(self.elements) < self.ring.size

    def is_zero(self) -> bool:
        if self.ring.kind == "zmod":
            return self.generator == self.ring.size
        return self.elements == frozenset({self.ring.zero})

    def contains(self, r: int) -> bool:
        if self.ring.kind == "zmod":
            return r % self.generator == 0
        return r in self.elements

    def element_set(self) -> frozenset[int]:
        if self.ring.kind == "zmod":
            if self.ring.size > ZMOD_ELEMENT_CAP:
                raise CapExceeded("materializing elements of a huge zmod ideal")
            return frozenset(range(0, self.ring.size, self.generator))
        return self.elements

    def element_mask(self) -> int:
        """The element set as a bitmask, bit e standing for ring element e."""
        if self.ring.kind == "zmod":
            if self.ring.size > ZMOD_ELEMENT_CAP:
                raise CapExceeded("materializing elements of a huge zmod ideal")
            # (2^n - 1) / (2^g - 1) is the repunit with exactly the bits 0, g, 2g, ..., n - g
            return ((1 << self.ring.size) - 1) // ((1 << self.generator) - 1)
        return sum(1 << e for e in self.elements)

    def sort_key(self):
        if self.ring.kind == "zmod":
            return (self.generator,)
        return (len(self.elements), tuple(sorted(self.elements)))


def zmod_ideal(ring: FiniteRing, g: int) -> RingIdeal:
    """Canonicalize a generator: the least positive one, a divisor of the modulus."""
    if ring.kind != "zmod":
        raise InputError("zmod_ideal needs a zmod ring")
    d = math.gcd(g % ring.size, ring.size)
    if d == 0:
        d = ring.size
    return RingIdeal(ring=ring, generator=d)


def table_ideal(ring: FiniteRing, elements) -> RingIdeal:
    if ring.kind != "tables":
        raise InputError("table_ideal needs a table ring")
    elems = frozenset(elements)
    if not elems:
        raise InputError("an ideal contains at least the zero element")
    for a in sorted(elems):
        if not 0 <= a < ring.size:
            raise InputError(f"ideal element {a} is not in the ring, whose elements are 0..{ring.size - 1}")
    for a in elems:
        for b in elems:
            if ring.add[a][b] not in elems:
                raise InputError("element set is not closed under addition")
        for r in range(ring.size):
            if ring.mul[a][r] not in elems:
                raise InputError("element set is not closed under ring multiples")
    return RingIdeal(ring=ring, elements=elems)


def ideal_le(i: RingIdeal, j: RingIdeal) -> bool:
    if i.ring.kind == "zmod":
        return i.generator % j.generator == 0
    return i.elements <= j.elements


def ideal_meet(i: RingIdeal, j: RingIdeal) -> RingIdeal:
    if i.ring.kind == "zmod":
        return RingIdeal(ring=i.ring, generator=i.generator * j.generator // math.gcd(i.generator, j.generator))
    return RingIdeal(ring=i.ring, elements=i.elements & j.elements)


def ideal_join(i: RingIdeal, j: RingIdeal) -> RingIdeal:
    if i.ring.kind == "zmod":
        return RingIdeal(ring=i.ring, generator=math.gcd(i.generator, j.generator))
    ring = i.ring
    return RingIdeal(ring=ring, elements=frozenset(ring.add[a][b] for a in i.elements for b in j.elements))


@lru_cache(maxsize=32)
def _principal_table_ideals(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """The principal ideal (r) of each element r of a table ring: the set of its row of products."""
    return tuple(map(frozenset, ring.mul))


@lru_cache(maxsize=32)
def _all_table_ideals(ring: FiniteRing) -> tuple[frozenset[int], ...]:
    """Every ideal of a table ring, grown from the zero ideal by adding principal ideals.

    Every ideal is a sum of principal ones, and ideal + (r) depends on r only
    through (r), so each ideal is grown by each distinct principal ideal not
    already inside it.  The sum is the union of the cosets b + ideal over b in
    (r); a b already covered lies in a coset already taken, and is skipped.
    """
    principal = set(_principal_table_ideals(ring))
    add = ring.add
    start = frozenset({ring.zero})
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ideal in frontier:
            coset = _row_getter(tuple(ideal))
            for p in principal:
                if p <= ideal:
                    continue
                grown = set(ideal)
                for b in p:
                    if b not in grown:
                        grown.update(coset(add[b]))
                grown = frozenset(grown)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return tuple(sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))))


def _zmod_proper_divisors(ring: FiniteRing) -> list[int]:
    return [d for d in divisors_of(ring.size) if d > 1]


def _table_is_prime(ring: FiniteRing, elems: frozenset[int]) -> bool:
    """No product of two elements outside the ideal lies inside it."""
    outside = [a for a in range(ring.size) if a not in elems]
    mul = ring.mul
    return not any(mul[a][b] in elems for a in outside for b in outside)


def _table_is_radical(ring: FiniteRing, elems: frozenset[int]) -> bool:
    for a in range(ring.size):
        if a in elems:
            continue
        power = a
        for _ in range(ring.size):
            power = ring.mul[power][a]
            if power in elems:
                return False
    return True


def _table_is_strongly_irreducible(ring: FiniteRing, elems: frozenset[int]) -> bool:
    # elementwise form: principal meets decide the general ideal condition,
    # over the pairs of distinct elements outside the ideal: the meet is
    # symmetric, and (a) holds a, so (a) alone never lies inside the ideal
    principal = _principal_table_ideals(ring)
    outside = [a for a in range(ring.size) if a not in elems]
    for i, a in enumerate(outside):
        pa = principal[a]
        for b in outside[i + 1:]:
            if pa & principal[b] <= elems:
                return False
    return True


def enumerate_ideals(ring: FiniteRing, kind: str = "proper") -> list[RingIdeal]:
    """Proper ideals matching a filter, in canonical order.

    Irreducibility is decided in the ideal lattice, for both ring kinds: a
    proper ideal is irreducible iff the meet of the ideals strictly above it
    is not itself (see _zmod_reducible).  Strong irreducibility is decided by
    the elementwise criterion on principal ideals, primality/radicality
    elementwise for table rings and through exponent patterns for zmod.
    """
    if kind not in IDEAL_FILTERS:
        raise InputError(f"unknown ideal filter {kind!r}")
    if ring.kind == "zmod":
        n = ring.size
        fac = factorize(n)
        divs = _zmod_proper_divisors(ring)
        if kind == "proper":
            keep = divs
        elif kind == "irreducible":
            keep = [d for d in divs if not _zmod_reducible(d)]
        elif kind == "strongly_irreducible":
            keep = [d for d in divs if _zmod_strongly_irreducible(n, d)]
        elif kind == "radical":
            keep = [d for d in divs if all(e <= 1 for e in factorize(d).values())]
        elif kind == "prime":
            keep = [d for d in divs if d in fac]
        else:  # maximal: nothing strictly between (d) and the ring
            keep = [d for d in divs if not any(1 < e < d and d % e == 0 for e in divs)]
        return [RingIdeal(ring=ring, generator=d) for d in keep]

    ideals = _all_table_ideals(ring)
    proper = [s for s in ideals if len(s) < ring.size]
    if kind == "proper":
        keep = proper
    elif kind == "irreducible":
        keep = [s for s in proper if reduce(and_, [t for t in ideals if s < t]) != s]
    elif kind == "strongly_irreducible":
        keep = [s for s in proper if _table_is_strongly_irreducible(ring, s)]
    elif kind == "radical":
        keep = [s for s in proper if _table_is_radical(ring, s)]
    elif kind == "prime":
        keep = [s for s in proper if _table_is_prime(ring, s)]
    else:
        keep = [s for s in proper if not any(s < t and len(t) < ring.size for t in ideals)]
    return [RingIdeal(ring=ring, elements=s) for s in keep]


def _zmod_reducible(d: int) -> bool:
    """Whether (d) = (e) ∩ (f) for two ideals (e), (f) strictly containing it.

    In a finite lattice an element below the top is the meet of two strictly
    larger elements exactly when it is the meet of all of them (fold the
    rest into one side).  The ideals strictly containing (d) are the (e) for
    the divisors e of d other than d, and their meet is (lcm of those e).
    So one lcm fold over the proper divisors decides it, without the
    prime-power formula that irreducible-filter-matches-prime-powers checks
    this filter against.  (Pairs of maximal proper divisors d // p would
    not do: their lcm is d whenever d has two primes, so that test is the
    formula itself.)
    """
    if d == 1:
        return False
    m = 1
    for e in divisors_of(d)[:-1]:
        m = m * e // math.gcd(m, e)
    return m == d


def _zmod_strongly_irreducible(n: int, d: int) -> bool:
    """Whether (e) ∩ (f) inside (d) forces (e) or (f) inside (d), over all divisors e, f of n.

    (e) ∩ (f) = (lcm(e, f)), and (e) lies inside (d) iff d divides e.  lcm is
    monotone under divisibility, so a failing pair stays failing when each
    side is pushed up to a maximal divisor of n that d does not divide; only
    pairs of those are tested.  A divisor e of n misses d when v_p(e) <
    v_p(d) for some prime p, so the maximal ones are n with one such
    exponent lowered to v_p(d) - 1: n // p ** (v_p(n) - v_p(d) + 1), one per
    prime p of d, where p ** (v_p(n) - v_p(d)) = gcd(n // d, p ** v_p(n)).
    """
    top = [n // (p * math.gcd(n // d, p ** e)) for p, e in factorize(n).items() if d % p == 0]
    for i, e in enumerate(top):
        for f in top[i + 1:]:
            if e * f // math.gcd(e, f) % d == 0:
                return False
    return True


def _ideal_lattice(ring: FiniteRing) -> tuple[list[list[int]], list[list[int]]]:
    """Meet and join index tables over the ideals of a table ring.

    Indices follow `_all_table_ideals`, ordered by size.  The meet of two
    ideals is their intersection; their join (the ideal sum) is the first
    ideal in that order containing both, the lowest set bit of the AND of
    their masks of containing indices.
    """
    masks = [sum(1 << e for e in s) for s in _all_table_ideals(ring)]
    pos = {m: i for i, m in enumerate(masks)}
    meet = [[pos[a & b] for b in masks] for a in masks]
    above = [sum(1 << k for k, b in enumerate(masks) if not a & ~b) for a in masks]
    join = [[(common & -common).bit_length() - 1 for common in map(a.__and__, above)] for a in above]
    return meet, join


@lru_cache(maxsize=32)
def is_arithmetical(ring: FiniteRing) -> bool:
    """Distributivity of the ideal lattice, the finite commutative criterion.

    Decided once per ring on the meet/join index tables: a finite lattice
    is distributive iff every join-irreducible element is join-prime.  An
    ideal j is join-irreducible when the join of the ideals strictly below
    it is not j, and join-prime when the join of the ideals not above j is
    not above j either (j above some a ∨ b would put j below that join).
    Index 0 is the zero ideal, the bottom, which is neither.
    """
    if ring.kind == "zmod":
        return True
    meet, join = _ideal_lattice(ring)
    for j in range(1, len(meet)):
        below = not_above = 0
        for k, jk in enumerate(meet[j]):
            if jk != j:  # j is not below k
                not_above = join[not_above][k]
                if jk == k:
                    below = join[below][k]
        if below != j and meet[j][not_above] == j:
            return False
    return True


def irreducibles_over(ring: FiniteRing, ideal: RingIdeal) -> list[RingIdeal]:
    """Irreducible ideals containing the given one."""
    if ring.kind == "zmod":
        d = ideal.generator
        out = []
        for p, e in sorted(factorize(ring.size).items()):
            for k in range(1, e + 1):
                if d % p ** k == 0:
                    out.append(RingIdeal(ring=ring, generator=p ** k))
        return sorted(out, key=RingIdeal.sort_key)
    return [b for b in enumerate_ideals(ring, "irreducible") if ideal_le(ideal, b)]


def build_irr_space(ring: FiniteRing, ideal: RingIdeal, points: str = "irreducible") -> PointFamily:
    """The family of irreducible (or prime) ideals over a proper ideal.

    The target is the ideal, C is the whole universe, and the points
    intersect back to the ideal; by construction the whole family is its own
    unique minimal closed representation, which the engine re-derives
    (checked in the theorem suite and tests).  Requires an arithmetical ring.

    A table ring's universe is its elements.  zmod(n) is read through its
    divisor classes instead: every engine fact sees an element only through
    the ideals holding it, and x lies in (d) exactly when d divides
    gcd(x, n), so the elements with one gcd g form an atom.  The universe is
    the tau(n) atoms, each labelled by its least element (g itself, or "0"
    for the atom of n) and ordered by it, so "0" comes first and the rest
    ascend.  Every ideal is a union of atoms, and the least bit of any such
    union is the least element of the element set it stands for, so every
    witness label is the one the n-element universe gives.
    """
    if points not in ("irreducible", "prime"):
        raise InputError("points must be 'irreducible' or 'prime'")
    if not is_arithmetical(ring):
        raise InputError("the ring is not arithmetical")
    if not ideal.is_proper():
        raise InputError("the ideal must be proper")
    if points == "irreducible":
        members = irreducibles_over(ring, ideal)
    else:
        members = [b for b in enumerate_ideals(ring, "prime") if ideal_le(ideal, b)]
    if not members:
        raise ConsistencyError("a proper ideal always sits under an irreducible one")

    if ring.kind == "zmod":
        labels = _zmod_atoms(ring.size)[0]

        def mask(b: RingIdeal) -> int:
            return _zmod_class_mask(ring.size, b.generator)
    else:
        labels = tuple(map(str, range(ring.size)))
        mask = RingIdeal.element_mask
    context = ContextTriple(universe=labels, fixed_mask=(1 << len(labels)) - 1, target_mask=mask(ideal))
    return PointFamily(
        context=context,
        names=tuple(b.name for b in members),
        members=tuple(mask(b) for b in members),
    )


@lru_cache(maxsize=32)
def _zmod_atoms(n: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The divisor classes of zmod(n) as a universe: their labels, and the gcd of each.

    Ordered by least element, so the class of n, which holds 0, comes first.
    """
    atoms = (n,) + divisors_of(n)[:-1]
    return tuple("0" if g == n else str(g) for g in atoms), atoms


@lru_cache(maxsize=4096)
def _zmod_class_mask(n: int, d: int) -> int:
    """The divisor classes of zmod(n) inside the ideal (d): those whose gcd d divides."""
    return sum(1 << i for i, g in enumerate(_zmod_atoms(n)[1]) if g % d == 0)


def zmod_min_irreducible_generators(n: int, d: int) -> list[int]:
    """Generators of the irreducible ideals minimal over (d) in zmod(n).

    Walks each prime's power ladder upward while the power still contains the
    ideal; the last rung per prime is the deepest, hence inclusion-minimal,
    irreducible ideal over (d).  Stays on plain integers so bulk sweeps over
    many moduli are cheap.
    """
    out = []
    for p, e in factorize(n).items():
        k = 0
        power = 1
        while k < e and d % (power * p) == 0:
            power *= p
            k += 1
        if k:
            out.append(power)
    out.sort()
    return out


def min_irreducibles_over(ring: FiniteRing, ideal: RingIdeal) -> list[RingIdeal]:
    """Inclusion-minimal irreducible ideals over the given one."""
    if ring.kind == "zmod":
        gens = zmod_min_irreducible_generators(ring.size, ideal.generator)
        return [RingIdeal(ring=ring, generator=g) for g in gens]
    over = irreducibles_over(ring, ideal)
    out = [b for b in over if not any(c is not b and ideal_le(c, b) for c in over)]
    return sorted(out, key=RingIdeal.sort_key)


def verified_by_default(ring: FiniteRing, ideal: RingIdeal, cap: int = engine.DEFAULT_POINT_CAP) -> bool:
    """Whether irredundant_decomposition verifies its answer when not told.

    A zmod modulus above the element cap is not: its decomposition stays
    divisor arithmetic alone, the fast path that bench/checks.py pins.  Nor
    are more irreducibles over the ideal than the point cap, as the
    uniqueness search scans every subfamily of them.
    """
    return (
        (ring.kind != "zmod" or ring.size <= ZMOD_ELEMENT_CAP)
        and len(irreducibles_over(ring, ideal)) <= cap
    )


def irredundant_decomposition(
    ring: FiniteRing,
    ideal: RingIdeal,
    cap: int = engine.DEFAULT_POINT_CAP,
    verify: bool | None = None,
) -> list[RingIdeal]:
    """Decompose a proper ideal of an arithmetical ring into irreducibles.

    Returns the irreducible ideals minimal over it, which intersect back to
    the ideal irredundantly.  With verify (by default, verified_by_default)
    the family is handed to the representation engine, each member is
    checked strongly irredundant, and an exhaustive sub-family search
    confirms it is the only irredundant representation.
    """
    if not is_arithmetical(ring):
        raise InputError("the ring is not arithmetical")
    if not ideal.is_proper():
        raise InputError("the ideal must be proper")
    dec = min_irreducibles_over(ring, ideal)

    meet = dec[0]
    for b in dec[1:]:
        meet = ideal_meet(meet, b)
    if meet.sort_key() != ideal.sort_key():
        raise ConsistencyError("minimal irreducibles fail to intersect to the ideal")

    if verify is None:
        verify = verified_by_default(ring, ideal, cap)
    if verify:
        _verify_decomposition(ring, ideal, dec, cap)
    return dec


def _irredundant_subfamilies(family: PointFamily) -> list[int]:
    """Masks of the irredundant representations among all subfamilies, ascending.

    From R of the engine oracles' raw bit-sliced scan (bit z: z represents),
    z is irredundant iff it represents and, for each member j of z (bit z of
    H[j]), z minus j does not (engine.clear_point).
    """
    H, R = engine._represents_slice(family)
    irredundant = R
    for j, h in enumerate(H):
        irredundant &= ~(h & engine.clear_point(R, h, j))
    return list(engine._set_bits(irredundant))


def _verify_decomposition(ring: FiniteRing, ideal: RingIdeal, dec: list[RingIdeal], cap: int) -> None:
    family = build_irr_space(ring, ideal)
    names = {b.name for b in dec}
    zs = tuple(i for i, name in enumerate(family.names) if name in names)
    for b in zs:
        cls = engine.classify_member(family, zs, b)
        if not cls.strongly_irredundant:
            raise ConsistencyError(f"decomposition member {family.names[b]!r} is not strongly irredundant")
    if len(family) > cap:
        raise CapExceeded(f"uniqueness search over {len(family)} ideals exceeds the cap of {cap}")
    want = 0
    for i in zs:
        want |= 1 << i
    if _irredundant_subfamilies(family) != [want]:
        raise ConsistencyError("the irredundant representation by irreducibles is not unique")


def colon(ideal: RingIdeal, r: int) -> RingIdeal:
    """The ideal of elements sending r into the given ideal."""
    ring = ideal.ring
    if ring.kind == "zmod":
        d = ideal.generator
        return RingIdeal(ring=ring, generator=d // math.gcd(d, r % ring.size))
    return RingIdeal(
        ring=ring,
        elements=frozenset(s for s in range(ring.size) if ring.mul[r][s] in ideal.elements),
    )


def saturation(ideal: RingIdeal, prime: RingIdeal) -> RingIdeal:
    """Elements that land in the ideal after multiplying by something outside the prime."""
    ring = ideal.ring
    if not _is_prime_ideal(prime):
        raise InputError("saturation needs a prime ideal")
    if ring.kind == "zmod":
        p = prime.generator
        d = ideal.generator
        pk = 1
        while d % (pk * p) == 0:
            pk *= p
        return RingIdeal(ring=ring, generator=pk)
    outside = [b for b in range(ring.size) if b not in prime.elements]
    elems = frozenset(
        r for r in range(ring.size) if any(ring.mul[b][r] in ideal.elements for b in outside)
    )
    return RingIdeal(ring=ring, elements=elems)


def _is_prime_ideal(ideal: RingIdeal) -> bool:
    ring = ideal.ring
    if ring.kind == "zmod":
        return ideal.is_proper() and ideal.generator in factorize(ring.size)
    return ideal.is_proper() and _table_is_prime(ring, ideal.elements)


def krull_associated_primes(ideal: RingIdeal) -> list[RingIdeal]:
    """Primes that are unions of colon ideals of the given ideal."""
    ring = ideal.ring
    primes = enumerate_ideals(ring, "prime")
    out = []
    if ring.kind == "zmod":
        colon_gens = {ideal.generator // g for g in divisors_of(ideal.generator)}
        for p in primes:
            inside = [e for e in colon_gens if e != 1 and e % p.generator == 0]
            # the union of the (e) with e a multiple of p covers p itself only
            # when p is among them
            if p.generator in inside:
                out.append(p)
        return sorted(out, key=RingIdeal.sort_key)
    colons = {colon(ideal, r).elements for r in range(ring.size)}
    for p in primes:
        union: set[int] = set()
        for c in colons:
            if c <= p.elements:
                union |= c
        if union == set(p.elements):
            out.append(p)
    return sorted(out, key=RingIdeal.sort_key)


def max_krull_associated_primes(ideal: RingIdeal) -> list[RingIdeal]:
    """Maximal members of the Krull associated primes, an antichain."""
    primes = krull_associated_primes(ideal)
    return [p for p in primes if not any(q is not p and ideal_le(p, q) for q in primes)]
