"""Shared fixture builders and definition-level references for the test suite.

The references for the CLI's analyze and minimal reports name points by plain
sorts and write JSON with json.dumps, apart from the CLI's own writers.
"""

import functools
import json
import math
import random
import string

from hypothesis import strategies as st

from specrep import engine, rings, topology, zrdesk
from specrep.errors import ConsistencyError, SpecrepError
from specrep.setsystems import ContextTriple, PointFamily, validate_representation
from specrep.topology import SpecSpace, indices_of


def random_spec_space(rng: random.Random, max_universe: int = 6, max_points: int = 10) -> SpecSpace:
    n = rng.randint(1, max_universe)
    full = (1 << n) - 1
    want = rng.randint(1, max_points)
    points = set()
    while len(points) < want:
        points.add(rng.randint(0, full))
        if len(points) >= full + 1:
            break
    return SpecSpace(points=tuple(sorted(points)), universe_size=n)


def span_from_subbasis(seeds, n: int) -> frozenset[int]:
    """Open family generated by a subbasis: unions of finite intersections.

    Every finite intersection of seeds is grown by breadth-first meets, then
    each of the 2^n candidate sets is kept when every point of it has such
    an intersection around it inside the set.
    """
    full = (1 << n) - 1
    seeds = set(seeds)
    basis = {full}
    frontier = [full]
    while frontier:
        fresh = []
        for b in frontier:
            for s in seeds:
                t = b & s
                if t not in basis:
                    basis.add(t)
                    fresh.append(t)
        frontier = fresh
    by_point = [[s for s in basis if s >> b & 1] for b in range(n)]
    return frozenset(cand for cand in range(full + 1) if all(
        any(s & ~cand == 0 for s in by_point[b]) for b in range(n) if cand >> b & 1))


def reference_opens(space: SpecSpace, kind: str) -> frozenset[int]:
    """The opens of a topology kind by definition, the reference for topology.generate_topology.

    The subbasic open of a universe element is the set of points not
    containing it.  spectral: their span; inverse: the complements of the
    spectral opens (the spectral opens act as a basis of closed sets);
    patch: the span of the subbasic opens together with their complements.
    """
    n = len(space)
    full = space.full_mask
    sub = tuple(sum(1 << i for i, p in enumerate(space.points) if not p >> e & 1)
                for e in range(space.universe_size))
    if kind == "patch":
        return span_from_subbasis(sub + tuple(full ^ s for s in sub), n)
    opens = span_from_subbasis(sub, n)
    return opens if kind == "spectral" else frozenset(full ^ o for o in opens)


def opens_of(top) -> frozenset[int]:
    """Every union of a Topology's smallest open neighbourhoods: its open family."""
    opens = {0}
    for u in top.neighbourhoods:
        opens |= {o | u for o in opens}
    return frozenset(opens)


def random_representation_family(
    rng: random.Random, max_universe: int = 6, max_points: int = 10
) -> PointFamily:
    """A random valid C-representation with |D| <= max_universe, |X| <= max_points."""
    n = rng.randint(1, max_universe)
    universe = string.ascii_lowercase[:n]
    c_size = rng.randint(1, n)
    c_elems = rng.sample(range(n), c_size)
    cmask = sum(1 << i for i in c_elems)
    a_elems = rng.sample(c_elems, rng.randint(0, c_size - 1))
    amask = sum(1 << i for i in a_elems)
    ctx = ContextTriple(tuple(universe), cmask, amask)

    rest = [i for i in range(n) if not amask >> i & 1]
    need = [i for i in c_elems if not amask >> i & 1]
    members: list[int] = []
    seen = set()
    budget = max(1, max_points - len(need))
    for _ in range(rng.randint(1, budget)):
        m = amask
        for i in rest:
            if rng.random() < 0.5:
                m |= 1 << i
        if m not in seen:
            seen.add(m)
            members.append(m)
    for c in need:
        if all(m >> c & 1 for m in members):
            # every current member contains c and this one avoids it, so no
            # collision is possible
            m = amask
            for i in rest:
                if i != c and rng.random() < 0.4:
                    m |= 1 << i
            assert m not in seen
            seen.add(m)
            members.append(m)
    family = PointFamily(
        context=ctx,
        names=tuple(f"P{i+1}" for i in range(len(members))),
        members=tuple(members),
    )
    ok, _ = validate_representation(family)
    assert ok, "random family construction must yield a representation"
    return family


def family_from(universe, fixed, target, points) -> PointFamily:
    ctx = ContextTriple.from_labels(universe, fixed, target)
    return PointFamily.from_labels(ctx, points)


I1 = dict(
    universe="abc",
    fixed="abc",
    target="a",
    points={"B1": "ab", "B2": "ac", "B3": "abc"},
)


def i1_family() -> PointFamily:
    return family_from(I1["universe"], I1["fixed"], I1["target"], I1["points"])


def element_irr_space(ring, ideal, points: str = "irreducible") -> PointFamily:
    """build_irr_space spelled out on ring elements, the reference for its zmod quotient.

    The universe is the n elements with decimal labels, C all of them, and
    the target and every member the element set of its ideal.
    """
    if points == "irreducible":
        members = rings.irreducibles_over(ring, ideal)
    else:
        members = [b for b in rings.enumerate_ideals(ring, "prime") if rings.ideal_le(ideal, b)]

    def mask(b):
        return sum(1 << e for e in b.element_set())

    ctx = ContextTriple(tuple(str(x) for x in range(ring.size)), (1 << ring.size) - 1, mask(ideal))
    return PointFamily(ctx, tuple(b.name for b in members), tuple(mask(b) for b in members))


def collapse_to_atoms(family: PointFamily, separators) -> PointFamily:
    """The quotient of a family by its atoms, ordered and labelled by least element.

    An atom is a class of universe elements lying in the same separators
    (element masks); the members, C and A must each be a union of atoms.
    Atom i of the quotient is the i-th atom by least element.
    """
    ctx = family.context
    blocks = [ctx.full_mask]
    for s in separators:
        blocks = [part for b in blocks for part in (b & s, b & ~s) if part]
    blocks.sort(key=lambda b: b & -b)

    def quotient(mask):
        out = 0
        for i, block in enumerate(blocks):
            inside = mask & block
            assert inside in (0, block), "a set of the family splits an atom"
            if inside:
                out |= 1 << i
        return out

    labels = tuple(ctx.universe[(b & -b).bit_length() - 1] for b in blocks)
    qctx = ContextTriple(labels, quotient(ctx.fixed_mask), quotient(ctx.target_mask))
    return PointFamily(qctx, family.names, tuple(quotient(m) for m in family.members))


@st.composite
def families(draw, max_points=12):
    """A valid C-representation: distinct members containing A, meeting to A inside C."""
    u = draw(st.integers(min_value=2, max_value=7))
    full = (1 << u) - 1
    fixed = draw(st.integers(min_value=1, max_value=full))
    target = draw(st.integers(min_value=0, max_value=full)) & fixed
    if target == fixed:
        target &= target - 1
    drawn = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=max_points - 1,
                          unique_by=lambda m: m | target))
    members = [m | target for m in drawn]
    extra = functools.reduce(int.__and__, members) & fixed & ~target
    if extra:  # a member without the surplus makes the family represent; it is new, or there were none
        members.append(members[0] & ~extra)
    ctx = ContextTriple(tuple("abcdefg"[:u]), fixed, target)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(len(members))), tuple(members))


@st.composite
def families_of_size(draw, n):
    """A valid C-representation of exactly n points, 1 <= n <= 16.

    At least four universe elements lie outside A, so n members that differ
    outside A exist.  If the drawn members meet above A inside C, the last
    one drops the surplus, which every other member holds.
    """
    u = draw(st.integers(min_value=4, max_value=7))
    full = (1 << u) - 1
    fixed = draw(st.integers(min_value=1, max_value=full))
    target = draw(st.integers(min_value=0, max_value=full)) & fixed
    if target == fixed:
        target &= target - 1
    while (full & ~target).bit_count() < 4:
        target &= target - 1
    drawn = draw(st.lists(st.integers(min_value=0, max_value=full), min_size=n, max_size=n,
                          unique_by=lambda m: m | target))
    members = [m | target for m in drawn]
    extra = functools.reduce(int.__and__, members) & fixed & ~target
    members[-1] &= ~extra
    ctx = ContextTriple(tuple("abcdefg"[:u]), fixed, target)
    return PointFamily(ctx, tuple(f"P{i}" for i in range(n)), tuple(members))


def walk_minimal_closed(inter, up, down, fixed: int, target: int) -> list[int]:
    """Minimal closed representations by an up-set walk: the reference for engine.minimal_closed_core.

    Takes the engine search's arguments and gives its answer: masks sorted
    by their point indices, or ConsistencyError when there are none.  Grows
    up-sets along a linear extension from the top and tests each grown
    up-set y as it is produced.  If y represents, growth stops (its
    extensions contain it), and y is kept when dropping any of its minimal
    points breaks representation; dropping a non-minimal point leaves no
    up-set, so this local test decides global minimality.  Otherwise y is
    dropped when no extension can be a minimal representation:
    * some point of y stays minimal whatever comes later (no point below it
      is in y or still to come), yet dropping it leaves the intersection
      inside C unchanged, and adding points never changes that;
    * or y with every point still to come fails to represent.
    """
    lo, h = inter.lo, inter.h
    hi = [x & fixed for x in inter.hi]  # C folded in once: every read below is taken inside C
    lmask = len(lo) - 1
    out = []
    frontier = [0]
    rest = (1 << len(up)) - 1
    for p in sorted(range(len(up)), key=[u.bit_count() for u in up].__getitem__):
        bit = 1 << p
        rest ^= bit
        above = up[p] ^ bit
        kept = []
        for y in frontier:
            s = y | rest
            if lo[s & lmask] & hi[s >> h] == target:
                kept.append(y)
            if above & ~y:
                continue
            y |= bit
            here = lo[y & lmask] & hi[y >> h]
            reach = y if here == target else y | rest
            m = y
            while m:
                low = m & -m
                if down[low.bit_length() - 1] & reach == low:
                    s = y ^ low
                    if lo[s & lmask] & hi[s >> h] == here:
                        break
                m ^= low
            else:
                if here == target:
                    out.append(y)
                elif lo[reach & lmask] & hi[reach >> h] == target:
                    kept.append(y)
        frontier = kept
    if not out:
        raise ConsistencyError("a representation must contain a minimal closed one")
    return sorted(out, key=indices_of)


def minimal_points_by_loop(closed, inter, up, down, fixed: int, target: int) -> list[int]:
    """Minimal points of each closed mask, checked point by point: the reference for engine._minimal_points_checked.

    Takes that function's arguments and gives its answer or raises its
    ConsistencyError.  For each y it finds z, the points of y with no other
    point of y below them, tests every point of y; then it requires that z
    represents, that each b of z is irredundant (z without b fails) and
    strongly irredundant (z with b's cone for b fails), both tested for
    every b, and that the cones of z regenerate y.
    """
    lo, hi, h = inter.lo, inter.hi, inter.h
    lmask = len(lo) - 1
    minreps = []
    for y in closed:
        z = 0
        m = y
        while m:
            low = m & -m
            if down[low.bit_length() - 1] & y == low:
                z |= low
            m ^= low
        if lo[z & lmask] & hi[z >> h] & fixed != target:
            raise ConsistencyError("minimal points of a closed representation must represent")
        regen = 0
        m = z
        while m:
            low = m & -m
            b = low.bit_length() - 1
            regen |= up[b]
            s, t = z ^ low, (z | up[b]) & ~low
            if lo[s & lmask] & hi[s >> h] & fixed == target or lo[t & lmask] & hi[t >> h] & fixed == target:
                raise ConsistencyError("a minimal point of a minimal representation is redundant")
            m ^= low
        if regen != y:
            raise ConsistencyError("minimal points fail to regenerate their closed representation")
        minreps.append(z)
    return minreps


class Brute:
    """Definition-level answers from a scan of every subfamily mask."""

    def __init__(self, family):
        self.family = family
        self.n = n = len(family)
        members = family.members
        ctx = family.context
        self.leq = [[members[i] & ~members[j] == 0 for j in range(n)] for i in range(n)]
        self.upsets = [
            y for y in range(1 << n)
            if all(y >> j & 1 for i in range(n) if y >> i & 1 for j in range(n) if self.leq[i][j])
        ]
        self.fixed, self.target = ctx.fixed_mask, ctx.target_mask
        self.closed_reps = [y for y in self.upsets if self.represents(y)]

    def intersection(self, zmask):
        m = self.family.context.full_mask
        for i in range(self.n):
            if zmask >> i & 1:
                m &= self.family.members[i]
        return m

    def represents(self, zmask):
        return self.intersection(zmask) & self.fixed == self.target

    def closure(self, zmask):
        """The points at or above a chosen point; zmask is an up-set iff this equals it."""
        return sum(1 << j for j in range(self.n)
                   if any(zmask >> i & 1 and self.leq[i][j] for i in range(self.n)))

    def minimal_points(self, ymask):
        return [i for i in range(self.n) if ymask >> i & 1
                and not any(j != i and ymask >> j & 1 and self.leq[j][i] for j in range(self.n))]

    def minimal_closed(self):
        # below[s]: some closed representation lies inside s
        reps = set(self.closed_reps)
        below = [False] * (1 << self.n)
        for s in range(1 << self.n):
            below[s] = s in reps or any(below[s ^ (1 << i)] for i in range(self.n) if s >> i & 1)
        return sorted(
            tuple(i for i in range(self.n) if y >> i & 1)
            for y in self.closed_reps
            if not any(below[y ^ (1 << i)] for i in range(self.n) if y >> i & 1)
        )

    def critical(self):
        acc = (1 << self.n) - 1
        for y in self.closed_reps:
            acc &= y
        return tuple(i for i in range(self.n) if acc >> i & 1)

    def strongly_irredundant(self, zmask, b):
        """Only the full cone over b, among its closed subsets Y, keeps (Z - b) + Y representing."""
        cone = sum(1 << j for j in range(self.n) if self.leq[b][j])
        base = zmask & ~(1 << b)
        working = [y for y in self.upsets if y & ~cone == 0 and self.represents(base | y)]
        return working == [cone]

    def irredundant(self):
        """Masks of the subfamilies that represent and stop representing when any one member is dropped."""
        return [z for z in range(1 << self.n) if self.represents(z)
                and not any(self.represents(z & ~(1 << b)) for b in range(self.n) if z >> b & 1)]


def sorted_names(family: PointFamily, ixs) -> list[str]:
    return sorted(family.names[i] for i in ixs)


def minimal_payload(family: PointFamily, analysis) -> dict:
    """minimal's two name lists, each row and each list a plain sort: the reference for cli's row writers."""
    return {
        "minimal_closed_representations": sorted(sorted_names(family, y) for y in analysis.minimal_closed),
        "minimal_representations": sorted(sorted_names(family, z) for z in analysis.minimal_representations),
    }


def report_payload(report) -> dict:
    """What analyze reports of an engine.RepresentationReport, names sorted by plain sorts.

    Every chosen point's flags and witnesses, the critical points and core,
    the notices, and within the cap the minimal representations, uniqueness
    and the strongly irredundant representation.
    """
    family = report.family
    analysis = report.analysis
    points = {}
    for cls in report.classifications:
        witnesses = {}
        if cls.irredundant:
            witnesses["irredundant"] = cls.witness_irredundant
        if cls.strongly_irredundant:
            witnesses["strongly_irredundant"] = witnesses["tightly_irredundant"] = cls.witness_strong
        points[cls.name] = {
            "irredundant": cls.irredundant,
            "strongly_irredundant": cls.strongly_irredundant,
            "tightly_irredundant": cls.tightly_irredundant,
            "critical": cls.point in analysis.critical,
            "isolated_spectral": cls.isolated_spectral,
            "isolated_patch": cls.isolated_patch,
            "witnesses": witnesses,
        }
    out = {
        "chosen": sorted_names(family, report.chosen),
        "points": points,
        "critical": sorted_names(family, analysis.critical),
        "critical_core": sorted_names(family, analysis.cset),
        "notices": list(report.notices),
    }
    if report.exhaustive:
        out.update(minimal_payload(family, analysis))
        out["unique_minimal"] = analysis.unique
        out["critical_core_represents"] = analysis.cset_represents
        srep = analysis.strongly_irredundant_rep
        out["strongly_irredundant_representation"] = None if srep is None else sorted_names(family, srep)
    return out


def analyze_payload(instance, report) -> dict:
    """analyze's JSON envelope as a dict: report_payload, the instance echo, and a zr point's witnesses as 1/p."""
    family = report.family
    payload = {"schema": 1, "command": "analyze", **report_payload(report)}
    if instance.kind == "set-system":
        ctx = family.context
        payload["instance"] = {
            "universe": list(ctx.universe),
            "C": list(ctx.labels_of(ctx.fixed_mask)),
            "A": list(ctx.labels_of(ctx.target_mask)),
            "points": {name: list(family.member_labels(i)) for i, name in enumerate(family.names)},
        }
    elif instance.kind == "ring":
        payload["instance"] = {"ring": instance.ring.describe(), "ideal": instance.ideal.name}
    else:
        payload["instance"] = {"pool": list(instance.pool.primes)}
        for entry in payload["points"].values():
            entry["witnesses_rational"] = {flag: f"1/{label}" for flag, label in entry["witnesses"].items()}
    return payload


def json_output(payload: dict) -> str:
    """A command's JSON stdout for payload, as the stdlib writes it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def analyze_text(payload: dict) -> str:
    """analyze --format text of an analyze_payload: a line per point, then the exhaustive facts and the notices."""
    lines = []
    for name in sorted(payload["points"]):
        entry = payload["points"][name]
        flags = [key for key in ("irredundant", "strongly_irredundant", "tightly_irredundant", "critical",
                                 "isolated_spectral", "isolated_patch") if entry[key]]
        wit = entry["witnesses"].get("irredundant")
        tail = f" witness={wit}" if wit is not None else ""
        lines.append(f"{name}: {','.join(flags) if flags else '-'}{tail}")
    if "minimal_representations" in payload:
        for rep in payload["minimal_representations"]:
            lines.append("minimal representation: {" + ",".join(rep) + "}")
        lines.append("critical core: {" + ",".join(payload["critical_core"]) + "}")
        lines.append(f"unique minimal: {payload['unique_minimal']}")
    for notice in payload["notices"]:
        lines.append(f"notice: {notice}")
    return "\n".join(lines) + "\n"


def minimal_text(payload: dict) -> str:
    """minimal --format text of a minimal_payload."""
    lines = ["minimal representation: {" + ",".join(rep) + "}" for rep in payload["minimal_representations"]]
    lines += ["minimal closed representation: {" + ",".join(rep) + "}"
              for rep in payload["minimal_closed_representations"]]
    return "\n".join(lines) + "\n"


def bfs_table_ideals(ring):
    """Every ideal of a table ring by growing each ideal by (r) for every element r outside it.

    The reference for rings._all_table_ideals, which grows by distinct
    principal ideals only.
    """
    principal = [frozenset(ring.mul[r][s] for s in range(ring.size)) for r in range(ring.size)]
    start = frozenset({ring.zero})
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ideal in frontier:
            for r in range(ring.size):
                if r in ideal:
                    continue
                grown = frozenset(ring.add[a][b] for a in ideal for b in principal[r])
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return tuple(sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))))


def pairwise_strongly_irreducible(n: int, d: int) -> bool:
    """(d) strongly irreducible in zmod(n) by every pair of divisors e, f of n.

    The reference for rings._zmod_strongly_irreducible, which tests only
    the maximal divisors that d does not divide.
    """
    divs = rings.divisors_of(n)
    for e in divs:
        for f in divs:
            if (e * f // math.gcd(e, f)) % d == 0 and e % d != 0 and f % d != 0:
                return False
    return True


def pairwise_reducible(d: int) -> bool:
    """(d) reducible in zmod: (d) = (lcm(e, f)) for some pair of divisors e, f of d other than d.

    The reference for rings._zmod_reducible, which folds the lcm of all the
    proper divisors at once.
    """
    cands = [e for e in rings.divisors_of(d) if e != d]
    for i, e in enumerate(cands):
        for f in cands[i:]:
            if e * f // math.gcd(e, f) == d:
                return True
    return False


def pairwise_irreducible_table_ideals(ring) -> list[frozenset[int]]:
    """The irreducible proper ideals of a table ring: s is no a & b of two ideals a, b strictly above it.

    The reference for the table-ring filter of rings.enumerate_ideals, which
    takes the meet of all the ideals strictly above s at once.
    """
    ideals = rings._all_table_ideals(ring)
    keep = []
    for s in ideals:
        if len(s) == ring.size:
            continue
        above = [t for t in ideals if s < t]
        if not any(a & b == s for a in above for b in above):
            keep.append(s)
    return keep


SUBFAMILY_CHECKS = (
    "irredundance-flag-hierarchy",
    "irredundant-implies-isolated",
    "critical-irredundant-implies-strongly",
    "tight-equals-irredundant-in-up-closure",
    "at-most-one-strongly-irredundant-representation",
    "tight-reps-in-distinct-minimal-reps",
)


def subfamily_checks_by_loop(family: PointFamily, cap: int = engine.DEFAULT_POINT_CAP) -> dict:
    """The six sub-representation checks of theorems.run_family_suite, by a loop over every subfamily.

    The reference for the bit-sliced suite, on a valid representation within
    the cap.  One 2^n intersection table is doubled over the raw members; each
    representing z is read in ascending order, each member b of z in
    ascending order, and b's flags come from engine._member_gains.  Each flag
    check keeps its first (b, z).  It reads the order from family.space and
    the minimal representations, critical points and strongly irredundant
    representation from the family's analysis, as the suite does.  Returns
    {name: (status, detail)}.
    """
    space = family.space
    ctx = family.context
    fixed, target = ctx.fixed_mask, ctx.target_mask
    table = [ctx.full_mask]
    for m in family.members:
        table += [x & m for x in table]
    inter = table.__getitem__
    analysis = engine.unique_minimal_analysis(family, cap)
    crit_mask = space.point_mask(analysis.critical)

    hier = iso = corr = removal = None
    strong_reps = []
    for zmask in range(1, space.full_mask + 1):
        if table[zmask] & fixed != target:
            continue
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
    out = {}
    for name, hit in zip(SUBFAMILY_CHECKS, (hier, iso, corr, removal)):
        out[name] = ("fail", f"violated at point {hit[0]} in {hit[1]:b}") if hit else ("pass", "")

    def fails(read):
        try:
            read()
        except SpecrepError:
            return True
        return False

    name = SUBFAMILY_CHECKS[4]
    if fails(lambda: analysis.unique):
        out[name] = ("skip", "unique-minimal-criterion did not pass")
    elif not analysis.cset_represents:
        out[name] = ("pass", "no uniqueness claim without a represented critical core")
    elif analysis.strongly_irredundant_rep is None or strong_reps != [
            space.point_mask(analysis.strongly_irredundant_rep)]:
        out[name] = ("fail", "strongly irredundant representations are not the predicted set")
    else:
        out[name] = ("pass", "")

    name = SUBFAMILY_CHECKS[5]
    if fails(lambda: analysis.minimal_representations):
        out[name] = ("skip", "minimal-representation-equivalences did not pass")
        return out
    bad = first_shared_or_lonely_by_loop(strong_reps, [space.point_mask(z) for z in analysis.minimal_representations])
    out[name] = ("fail", bad) if bad else ("pass", "")
    return out


def closed_sets_check_by_loop(space: SpecSpace) -> tuple[str, str]:
    """closed-sets-covered-by-minimal-points by a loop over the ascending up-sets, as (status, detail).

    The reference for the suite's bit-sliced check: the first nonempty
    up-set whose minimal points do not regenerate it fails the check.
    """
    for y in engine.upset_masks(space.up):
        if y and topology.up_mask(space, topology.min_mask(space, y)) != y:
            return "fail", f"closed set {y:b} not covered"
    return "pass", ""


def first_shared_or_lonely_by_loop(strong_reps, min_masks) -> str | None:
    """The first fault of tight-reps-in-distinct-minimal-reps, by a loop over the ascending tight representations.

    The reference for theorems._first_shared_or_lonely: the first za that
    lies in no minimal representation, or shares one with a later zb.
    """
    items = [(z, frozenset(m for m in min_masks if z & ~m == 0)) for z in strong_reps]
    for i, (za, ca) in enumerate(items):
        if not ca:
            return f"tight representation {za:b} lies in no minimal representation"
        for zb, cb in items[i + 1:]:
            if ca & cb:
                return f"tight representations {za:b} and {zb:b} share a minimal representation"
    return None


def sliced_target_by_three_reads(m: int, local, up, down) -> list[tuple]:
    """zrdesk._sliced_target as it read R three times for each minimal point b of each up-set y.

    The reference for the sweep, which skips a read whose index equals one
    already made: R[y ^ b], R[z ^ b] and R[(z | cone of b) - b] are read for
    every b here, whatever the order.
    """
    pts = (1 << m) - 1
    has_target = 1 << m
    excess = engine.subset_intersections(pts | has_target, local)
    lacking = [[c for c in range(m) if not local[c] >> j & 1] for j in range(m)]
    dead = [c for c in range(m) if not local[c] & has_target]

    ups = engine.upset_masks(up)
    # b is a minimal point of y iff b is in y and in down[b] and no other
    # point of y is in down[b]; covered[y] holds the points that y rules out.
    # spread[y] is the union of up[b] over the points b of y.
    refl = 0
    below = [0] * m
    for b, d in enumerate(down):
        refl |= (d >> b & 1) << b
        if d & ~(1 << b):
            for c in indices_of(d & ~(1 << b)):
                below[c] |= 1 << b
    covered = [0]
    spread = [0]
    for c in range(m):
        covered += [v | below[c] for v in covered]
        spread += [v | up[c] for v in spread]

    every = (1 << (1 << m)) - 1
    admissible = every ^ (1 << pts)  # S = T is no check
    H, U = zrdesk._slice_basis(m)
    R = [U[e & pts] if e & has_target else 0 for e in excess]

    def represents(x):
        """The s at which the points chosen by the per-point masks x represent."""
        r = every
        for h, cs in zip(H, lacking):
            for c in cs:
                h |= x[c]
            r &= h
        for c in dead:
            r &= ~x[c]
        return r

    once = twice = 0  # s with at least one / two minimal closed representations
    faults = []  # (s where it fires, stage, y, check, message) in the per-check order
    for y in ups:
        z = y & refl & ~covered[y]  # each isolated in z too: covered[z] lies in covered[y]
        lost = redundant = 0
        zm = z
        while zm:
            low = zm & -zm
            zm ^= low
            lost |= R[y ^ low]
            # the s where z still represents without b, or with b's cone in its place
            redundant |= R[z ^ low] | R[(z | spread[low]) & ~low]
        closed = admissible & R[y] & ~lost
        if not closed:
            continue
        twice |= once & closed
        once |= closed
        # _minimal_points_checked on the s where y is a minimal closed representation
        if closed & ~R[z]:
            faults.append((closed & ~R[z], 1, y, 0, "minimal points of a closed representation must represent"))
        if closed & redundant:
            faults.append((closed & redundant, 1, y, 1,
                           "a minimal point of a minimal representation is redundant"))
        if spread[z] != y:
            faults.append((closed, 1, y, 2, "minimal points fail to regenerate their closed representation"))
    if admissible & ~once:
        faults.append((admissible & ~once, 0, 0, 0, "a representation must contain a minimal closed one"))

    # analysis_core
    crit = [admissible & ~R[pts ^ d] for d in down]
    cset = []
    for b, d in enumerate(down):
        c = crit[b] if refl >> b & 1 else 0
        if d & ~(1 << b):
            for a in indices_of(d & ~(1 << b)):
                c &= ~crit[a]
        cset.append(c)
    core = admissible & represents(cset)
    single = once & ~twice
    if single ^ core:
        faults.append((single ^ core, 2, 0, 0,
                       "critical-core representation does not match minimal-representation count"))
    if faults:
        # the per-check route stops at the greatest failing s, at its first check there
        first_s = 1 << max(f[0] for f in faults).bit_length() - 1
        first = min((f for f in faults if f[0] & first_s), key=lambda f: (f[1], indices_of(f[2]), f[3]))
        raise ConsistencyError(first[4])
    strong = []
    for b in range(m):
        x = [every if up[b] >> c & 1 else xc for c, xc in enumerate(cset)]
        x[b] = 0
        strong.append(core & cset[b] & ~represents(x))
    expect = [every ^ h for h in H]  # the localization at prime j belongs to the answer
    srep_ok = core & represents(strong)
    for b in range(m):
        srep_ok &= ~(strong[b] ^ expect[b])
    witness_bad = []
    for j in range(m):
        gained = excess[pts ^ (1 << j)] & pts
        exact = U[gained ^ (1 << j)] & expect[j] if gained >> j & 1 else 0
        witness_bad.append(srep_ok & expect[j] & ~exact)
    crit_bad = 0
    for b in range(m):
        crit_bad |= (crit[b] ^ expect[b]) | (cset[b] ^ expect[b])
    unique_bad = admissible & ~(single & core)
    srep_bad = admissible & ~srep_ok
    crit_bad &= admissible
    failing = unique_bad | srep_bad | crit_bad
    for bad in witness_bad:
        failing |= bad
    records = []
    while failing:
        s = failing.bit_length() - 1
        bit = 1 << s
        failing ^= bit
        records.append((s, bool(unique_bad & bit), bool(srep_bad & bit),
                        tuple(j for j, bad in enumerate(witness_bad) if bad & bit), bool(crit_bad & bit)))
    return records


def or_of_rows(rel, ymask: int) -> int:
    """The OR of rel[j] over the bits j of ymask, one bit at a time.

    The reference for the 4-point chunk tables of topology.up_mask,
    down_mask and closure_mask.
    """
    m = 0
    for j, row in enumerate(rel):
        if ymask >> j & 1:
            m |= row
    return m


def closure_by_neighbourhoods(top, ymask: int) -> int:
    """The points i whose U_i meets Y: the reference for Topology.closure_of, read from the neighbourhoods."""
    return sum(1 << i for i, u in enumerate(top.neighbourhoods) if u & ymask)
