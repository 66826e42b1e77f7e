"""Seeded instance generators and the request mix of each workload.

Two workloads: `setsys-query` (set systems) and `ring-zr`, whose rounds join
a ring-decompose round (zmod and table rings) and a zr-sweep round
(overrings of Z).  A workload is a sequence of rounds.  Every round holds the same command
classes in the same proportions, so a run that stops at a round boundary
keeps the mix; the seed only draws the instance content inside each class.
Each request owns a distinct instance file (or inline argv), and the same
(workload, seed, round) always yields byte-identical files.

Every request also records the input properties an optimisation depends on
(point count, up-set count, |D|, pool size, ring kind and size), so the
trace can later be sliced by input property.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("setsys-query", "ring-zr")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
POOL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


@dataclass
class Request:
    """One CLI invocation: argv with the placeholder {path} for its instance file."""

    rid: int
    cls: str  # command class, e.g. "analyze", "decompose-zmod-fast"
    argv: list[str]
    kind: str  # set-system | zmod | tables | zr | zr-pool
    instance: dict | None = None  # parsed instance, kept for verification
    props: dict = field(default_factory=dict)

    def text(self) -> str | None:
        if self.instance is None:
            return None
        return dump_instance(self.instance)


def dump_instance(instance: dict) -> str:
    return json.dumps(instance, sort_keys=True, separators=(",", ":")) + "\n"


def _rng(workload: str, seed: int, round_index: int, slot: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}/{slot}")


# ---------------------------------------------------------------- set systems


def setsys_instance(rng: random.Random, n: int, u: int, density: float) -> dict:
    """A valid C-representation with n distinct members over u elements.

    Members contain A and take each other element with probability
    `density`; an element of C \\ A kept by every member is then dropped
    from one member, so the whole family intersects to A inside C.  Low
    density over many elements gives near-antichains (2^n up-sets), high
    density over few elements gives deep orders.
    """
    target = set(rng.sample(range(u), rng.randint(0, 2)))
    rest = [i for i in range(u) if i not in target]
    fixed = target | set(rng.sample(rest, max(2, round(len(rest) * rng.uniform(0.6, 1.0)))))
    members: list[frozenset] = []
    seen: set[frozenset] = set()
    while len(members) < n:
        m = frozenset(target | {i for i in rest if rng.random() < density})
        if m not in seen:
            seen.add(m)
            members.append(m)
    for c in sorted(fixed - target):
        if all(c in m for m in members):
            for j in rng.sample(range(n), n):
                cand = members[j] - {c}
                if cand not in seen:
                    seen.discard(members[j])
                    seen.add(cand)
                    members[j] = cand
                    break
            else:  # every removal collides; drop c from C instead
                fixed.discard(c)
    labels = [f"d{i}" for i in range(u)]
    return {
        "schema": 1,
        "universe": labels,
        "C": [labels[i] for i in sorted(fixed)],
        "A": [labels[i] for i in sorted(target)],
        "points": {f"x{j:02d}": [labels[i] for i in sorted(m)] for j, m in enumerate(members)},
    }


def count_upsets(sets: list[frozenset]) -> int:
    """Number of up-sets of the inclusion order, by splitting on a maximal point."""
    n = len(sets)
    up = [sum(1 << j for j in range(n) if sets[i] <= sets[j]) for i in range(n)]
    down = [sum(1 << j for j in range(n) if sets[j] <= sets[i]) for i in range(n)]
    memo: dict[int, int] = {0: 1}

    def f(s: int) -> int:
        got = memo.get(s)
        if got is not None:
            return got
        x = next(i for i in range(n) if s >> i & 1 and up[i] & s == 1 << i)
        # up-sets without x avoid all of down(x); those with x extend one of s - x
        val = f(s & ~down[x]) + f(s & ~(1 << x))
        memo[s] = val
        return val

    return f((1 << n) - 1)


def _spread(i: int, step: float) -> float:
    """The i-th point of an additive recurrence in [0, 1): evenly spread, no clumps."""
    return (i * step) % 1.0


def _setsys_design(command: str, argv: list[str], points: tuple[int, ...], first: int) -> list:
    """(class, n, |D|, density, argv) per slot; |D| and density spread over 10..28 and 0.3..0.9."""
    return [
        (command, n, 10 + round(18 * _spread(first + i, 0.618034)),
         round(0.3 + 0.6 * _spread(first + i, 0.754878), 2), argv)
        for i, n in enumerate(points)
    ]


# One round of setsys-query.  The slots fix the properties the cost depends
# on (point count, universe size, density); the seed draws the members.
# Point counts are spread evenly over 12..17 so every round covers them all.
SETSYS_ROUND = (
    _setsys_design("analyze", ["analyze", "{path}"], (12, 13, 14, 15, 16, 17) * 2, 0)
    + _setsys_design("analyze-text", ["analyze", "{path}", "--format", "text"], (13, 16), 12)
    + _setsys_design("analyze-dot", ["analyze", "{path}", "--format", "dot"], (12, 15), 14)
    + _setsys_design("analyze-oracle", ["analyze", "{path}", "--oracle"], (12, 14), 16)
    + _setsys_design("minimal", ["minimal", "{path}"], (13, 15, 17), 18)
    + _setsys_design("critical", ["critical", "{path}"], (12, 14, 16), 21)
)


def setsys_round(seed: int, round_index: int, first_rid: int) -> list[Request]:
    out = []
    for slot, (cls, n, u, density, argv) in enumerate(SETSYS_ROUND):
        rng = _rng("setsys-query", seed, round_index, slot)
        inst = setsys_instance(rng, n, u, density)
        sets = [frozenset(v) for v in inst["points"].values()]
        props = {"n": n, "D": u, "density": density, "upsets": count_upsets(sets)}
        out.append(Request(first_rid + slot, cls, argv, "set-system", inst, props))
    return out


# ---------------------------------------------------------------- rings


def factorize(n: int) -> dict[int, int]:
    """Trial division, independent of the program's own factorisation."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _omega_product(rng: random.Random, omega: int, limit: int) -> int:
    """A product of `omega` small primes (with repeats) no larger than limit.

    Each factor is drawn among the primes that still leave room for the
    remaining factors at 2 each, so the draw never fails when 2^omega fits.
    """
    d = 1
    for left in range(omega - 1, -1, -1):
        room = limit // (d * 2 ** left)
        d *= rng.choice([p for p in SMALL_PRIMES if p <= room])
    return d


def zmod_mid_instance(rng: random.Random, size: int, omega: int) -> tuple[dict, dict]:
    """A zmod ring of about `size` elements whose ideal has `omega` irreducibles over it.

    The ideal (d) has Omega(d) = omega prime factors with multiplicity, which
    is the number of irreducible ideals (p^k) over it; the seed draws the
    primes, keeping the best of a few draws so that the modulus n = d * c
    lands near `size`.  The generator in the file is d times a unit of the
    cofactor c plus a random multiple of n, so the program canonicalises it
    and every file differs; c = 1 gives the zero ideal.
    """
    d = min((_omega_product(rng, omega, size) for _ in range(8)),
            key=lambda d: abs(d * max(1, round(size / d)) - size))
    c = max(1, round(size / d))
    n = d * c
    g = d * rng.choice([r for r in range(1, 40) if math.gcd(r, c) == 1]) + n * rng.randrange(10 ** 6)
    inst = {"schema": 1, "ring": {"zmod": n}, "ideal": g}
    return inst, {"ring": "zmod", "size": n, "D": n, "irreducibles": omega, "ideal": d}


def _zmod_design(count: int, first: int) -> list[tuple[int, int]]:
    """(size, omega) per slot: sizes log-spaced over 1e3..1e5, omega spread over 2..12."""
    out = []
    for i in range(count):
        size = round(10 ** (3 + 2 * _spread(first + i, 0.618034)))
        omega = min(2 + round(10 * _spread(first + i, 0.754878)), size.bit_length() - 1)
        out.append((size, omega))
    return out


def zmod_fast_argv(rng: random.Random) -> tuple[list[str], dict]:
    """Inline decompose on a modulus in [1e6, 1e9]: the unverified divisor fast path."""
    n = round(math.exp(rng.uniform(math.log(10 ** 6), math.log(10 ** 9))))
    fac = factorize(n)
    d = 1
    for p, e in fac.items():
        if rng.random() < 0.6:
            d *= p ** rng.randint(1, e)
    if d == 1:
        d = max(fac)
    g = d * rng.choice([r for r in range(1, 40) if math.gcd(r, n // d) == 1])
    argv = ["decompose", "--ring", f"zmod:{n}", "--ideal", str(g)]
    return argv, {"ring": "zmod", "size": n, "ideal": d, "irreducibles": sum(factorize(d).values())}


def product_ring_instance(rng: random.Random, moduli: tuple[int, ...], gens: tuple[int, ...]) -> tuple[dict, dict]:
    """Tables of Z/m1 x ... x Z/mk with shuffled element labels, and the ideal (g1) x ... x (gk).

    Every ideal of a product is such a product, with g_i dividing m_i.  The
    seed shuffles the element labels and the order of equal factors, which
    moves the ideal between isomorphic positions without changing its shape.
    """
    order = sorted(range(len(moduli)), key=lambda i: (moduli[i], rng.random()))
    moduli = tuple(moduli[i] for i in order)
    gens = tuple(gens[i] for i in order)
    elems = list(itertools.product(*(range(m) for m in moduli)))
    size = len(elems)
    label = list(range(size))
    rng.shuffle(label)
    index = {e: label[i] for i, e in enumerate(elems)}
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for x in elems:
        for y in elems:
            add[index[x]][index[y]] = index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))]
            mul[index[x]][index[y]] = index[tuple((a * b) % m for a, b, m in zip(x, y, moduli))]
    ideal = sorted(index[e] for e in elems if all(a % g == 0 for a, g in zip(e, gens)))
    ideals = math.prod(len([d for d in range(1, m + 1) if m % d == 0]) for m in moduli)
    inst = {"schema": 1, "ring": {"tables": {"add": add, "mul": mul}}, "ideal": ideal}
    return inst, {"ring": "tables", "size": size, "D": size, "moduli": list(moduli), "ideals": ideals}


# One round of ring-decompose: (class, command, generator parameters).  The
# slots fix ring size, irreducible count, table shape and ideal shape; the
# seed draws primes, element labels and the placement of the ideal.  F2^4 and F2^5 are the Boolean rings
# with 16 and 32 ideals; F2^3 x Z/3 also has 16.
RING_ROUND = (
    [("decompose-zmod-fast", "decompose", None)] * 10
    + [("decompose-zmod", "decompose", spec) for spec in _zmod_design(6, 0)]
    + [("analyze-zmod", "analyze", spec) for spec in _zmod_design(5, 6)]
    + [("check-theorems-zmod", "check-theorems", spec) for spec in ((3_400, 10), (12_000, 6), (35_000, 2))]
    + [
        ("decompose-tables", "decompose", ((2, 2, 2, 2, 2), (2, 2, 1, 1, 1))),
        ("decompose-tables", "decompose", ((4, 5), (2, 5))),
        ("analyze-tables", "analyze", ((2, 2, 2, 2), (2, 2, 1, 1))),
        ("analyze-tables", "analyze", ((4, 3, 5), (2, 3, 1))),
        ("check-theorems-tables", "check-theorems", ((2, 2, 2, 3), (2, 1, 1, 3))),
    ]
)


def ring_round(seed: int, round_index: int, first_rid: int) -> list[Request]:
    out = []
    for slot, (cls, command, spec) in enumerate(RING_ROUND):
        rng = _rng("ring-decompose", seed, round_index, slot)
        rid = first_rid + slot
        if spec is None:
            argv, props = zmod_fast_argv(rng)
            out.append(Request(rid, cls, argv, "zmod", None, props))
        elif cls.endswith("tables"):
            inst, props = product_ring_instance(rng, *spec)
            out.append(Request(rid, cls, [command, "{path}"], "tables", inst, props))
        else:
            inst, props = zmod_mid_instance(rng, *spec)
            out.append(Request(rid, cls, [command, "{path}"], "zmod", inst, props))
    return out


# ---------------------------------------------------------------- overrings of Z


def zr_instance(rng: random.Random, k: int, members: int) -> dict:
    """Overrings over a random pool of k primes: members with random retained lists.

    The members retain subsets of the target's primes (one to three each,
    occasionally none, which is Q); together with the fixed ring they cover
    the target, so the family represents it.
    """
    pool = sorted(rng.sample(POOL_PRIMES, k))
    while True:
        t_size = rng.randint(max(2, min(k, 4 if members > 7 else 3)), k)
        target = sorted(rng.sample(pool, t_size))
        fixed = sorted(rng.sample(target, rng.randint(0, t_size - 1)))
        choices = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(target, r)]
        if rng.random() < 0.2:
            choices.append(frozenset())
        if len(choices) < members:
            continue
        chosen = rng.sample(choices, members)
        if set().union(*chosen) | set(fixed) == set(target):
            break
    return {
        "schema": 1,
        "zr": {
            "pool": pool,
            "target": target,
            "C": fixed,
            "members": [sorted(m) for m in chosen],
        },
    }


# One round of zr-sweep: zr-check on every pool size 6..10, check-theorems
# on pools of 4 and 6 primes, analyze and critical on 4..10 members over
# pools of 4..10 primes.  Each entry: (class, pool size, member count).
ZR_ROUND = (
    [("zr-check", k, 0) for k in (6, 7, 8, 9, 10)]
    + [("check-theorems-zr", k, m) for k, m in ((4, 6), (6, 6), (6, 4))]
    + [("analyze-zr", k, m) for k, m in zip((4, 7, 10, 5, 8, 6, 9, 10, 6, 8), (4, 5, 6, 7, 8, 9, 10, 4, 7, 10))]
    + [("critical-zr", k, m) for k, m in zip((5, 8, 6, 9, 4, 10, 7, 9, 5, 7), (4, 5, 6, 7, 8, 9, 10, 5, 8, 10))]
)


def zr_round(seed: int, round_index: int, first_rid: int) -> list[Request]:
    out = []
    for slot, (cls, k, members) in enumerate(ZR_ROUND):
        rng = _rng("zr-sweep", seed, round_index, slot)
        rid = first_rid + slot
        if cls == "zr-check":
            pool = sorted(rng.sample(POOL_PRIMES, k))
            argv = ["zr-check", "--pool", ",".join(map(str, pool))]
            out.append(Request(rid, cls, argv, "zr-pool", None, {"k": k, "D": k, "pool": pool}))
            continue
        inst = zr_instance(rng, k, members)
        props = {"k": k, "n": members, "D": k}
        command = cls.rsplit("-", 1)[0]
        out.append(Request(rid, cls, [command, "{path}"], "zr", inst, props))
    return out


def ring_zr_round(seed: int, round_index: int, first_rid: int) -> list[Request]:
    """A ring-decompose round followed by a zr-sweep round.

    About two thirds of the requests take a few ms (the zmod fast path, small
    verified zmod rings, zr analyze and critical), so the median falls inside
    that group.  The next group, zmod and table-ring check-theorems, zr
    check-theorems on 6 primes and zr-check on 9, costs a few hundred ms
    each and holds the 90th percentile; neither lands on a gap between
    classes (per-slot times in BASELINE.md).
    """
    ring = ring_round(seed, round_index, first_rid)
    return ring + zr_round(seed, round_index, first_rid + len(ring))


ROUNDS = {"setsys-query": setsys_round, "ring-zr": ring_zr_round}


def round_requests(workload: str, seed: int, round_index: int, first_rid: int) -> list[Request]:
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ROUNDS[workload](seed, round_index, first_rid)
