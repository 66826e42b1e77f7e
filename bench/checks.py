"""Output verification that does not use the code under test.

Each check recomputes what it needs from the request's own instance: set
intersections for set systems and overrings of Z, divisor arithmetic for
zmod rings, element sets for table rings.  `verify(request, code, stdout,
stderr)` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re

from workloads import Request, factorize

# ---------------------------------------------------------------- models
#
# A model answers one question: does a list of point names represent the
# target?  Set systems and overrings of Z share the set model (an overring
# retaining T is the point-set pool \ T); rings use their own arithmetic.


class SetModel:
    def __init__(self, universe, fixed, target, points: dict[str, frozenset]):
        self.universe = frozenset(universe)
        self.fixed = frozenset(fixed)
        self.target = frozenset(target)
        self.points = points

    @classmethod
    def of_set_system(cls, inst: dict) -> "SetModel":
        points = {name: frozenset(labels) for name, labels in inst["points"].items()}
        return cls(inst["universe"], inst["C"], inst["A"], points)

    @classmethod
    def of_zr(cls, inst: dict) -> "SetModel":
        zr = inst["zr"]
        pool = frozenset(zr["pool"])
        points = {overring_name(m): pool - frozenset(m) for m in zr["members"]}
        return cls(pool, pool - frozenset(zr["C"]), pool - frozenset(zr["target"]), points)

    def represents(self, names) -> bool:
        inter = set(self.universe)
        for name in names:
            inter &= self.points[name]
        return inter & self.fixed == self.target

    def below(self, a: str, b: str) -> bool:
        return self.points[a] <= self.points[b]

    def critical(self) -> set[str]:
        """b is critical iff dropping every point below b (b included) breaks representation."""
        names = list(self.points)
        return {b for b in names if not self.represents([c for c in names if not self.below(c, b)])}

    def covers(self) -> set[tuple[str, str]]:
        names = list(self.points)
        out = set()
        for a in names:
            for b in names:
                if a != b and self.below(a, b):
                    if not any(c not in (a, b) and self.below(a, c) and self.below(c, b) for c in names):
                        out.add((a, b))
        return out


class ZmodModel:
    """Ideals (q) of zmod(n) with q | n; an intersection of (q_i) is (lcm q_i)."""

    def __init__(self, n: int, g: int):
        self.d = math.gcd(g % n, n)  # the canonical generator; n for the zero ideal

    def represents(self, names) -> bool:
        m = 1
        for name in names:
            m = math.lcm(m, int(name.strip("()")))
        return m == self.d

    def irreducibles(self) -> set[str]:
        return {f"({p ** k})" for p, e in factorize(self.d).items() for k in range(1, e + 1)}


class TableModel:
    """Ideals of a table ring named by their element sets."""

    def __init__(self, inst: dict):
        self.size = len(inst["ring"]["tables"]["add"])
        self.ideal = frozenset(inst["ideal"])

    @staticmethod
    def elements(name: str) -> frozenset:
        return frozenset(int(x) for x in name.strip("{}").split(","))

    def represents(self, names) -> bool:
        inter = set(range(self.size))
        for name in names:
            inter &= self.elements(name)
        return inter == self.ideal


def overring_name(retained) -> str:
    return "Z(" + ",".join(str(p) for p in sorted(retained)) + ")" if retained else "Q"


def model_of(req: Request):
    if req.kind == "set-system":
        return SetModel.of_set_system(req.instance)
    if req.kind == "zr":
        return SetModel.of_zr(req.instance)
    if req.kind == "tables":
        return TableModel(req.instance)
    if req.instance is not None:
        return ZmodModel(req.instance["ring"]["zmod"], req.instance["ideal"])
    return None


# ---------------------------------------------------------------- per-command checks


def _check_family_report(model, rep: dict, problems: list[str]) -> None:
    """analyze JSON: representations represent, uniqueness and criticality agree."""
    closed = rep.get("minimal_closed_representations")
    minimal = rep.get("minimal_representations")
    if closed is None or minimal is None:
        problems.append("analyze skipped the exhaustive part under the default cap")
        return
    for y in closed + minimal:
        if not model.represents(y):
            problems.append(f"reported representation {y} does not represent")
    if rep["unique_minimal"] != (len(minimal) == 1):
        problems.append("unique_minimal disagrees with the number of minimal representations")
    crit = set(rep["critical"])
    for y in closed:
        if not crit <= set(y):
            problems.append(f"critical set is not inside minimal closed representation {y}")
    if set(rep["chosen"]) != set(rep["points"]):
        problems.append("analyze did not choose the whole family")


def _check_analyze(req: Request, model, out: dict, problems: list[str]) -> None:
    _check_family_report(model, out, problems)
    if req.kind in ("set-system", "zr"):
        if set(out["points"]) != set(model.points):
            problems.append("report points differ from the instance")
        if set(out["critical"]) != model.critical():
            problems.append("critical points differ from the recomputed ones")
    if req.kind == "zmod" and set(out["points"]) != model.irreducibles():
        problems.append("points differ from the prime powers dividing the ideal")
    if req.kind in ("zmod", "tables") and out.get("unique_minimal") is not True:
        problems.append("an ideal of an arithmetical ring must have a unique minimal representation")
    if req.kind == "zr":
        pool = set(req.instance["zr"]["pool"])
        for name, entry in out["points"].items():
            for flag, q in entry.get("witnesses_rational", {}).items():
                m = re.fullmatch(r"1/(\d+)", q)
                if not m or int(m.group(1)) not in pool:
                    problems.append(f"witness {q!r} of {name} is not 1/p with p in the pool")


def _check_minimal(model, out: dict, problems: list[str]) -> None:
    closed = out["minimal_closed_representations"]
    for y in closed + out["minimal_representations"]:
        if not model.represents(y):
            problems.append(f"reported representation {y} does not represent")
    for z in out["minimal_representations"]:
        if not any(set(z) <= set(y) for y in closed):
            problems.append(f"minimal representation {z} lies in no minimal closed one")


def _check_critical(req: Request, model, out: dict, problems: list[str]) -> None:
    core = out["critical_core"]
    if not set(core) <= set(out["critical"]):
        problems.append("critical core is not inside the critical set")
    if out["critical_core_represents"] != model.represents(core):
        problems.append("critical_core_represents is wrong")
    if out["unique_minimal"] != out["critical_core_represents"]:
        problems.append("unique_minimal disagrees with critical_core_represents")
    srep = out["strongly_irredundant_representation"]
    if srep is not None and not model.represents(srep):
        problems.append("strongly irredundant representation does not represent")
    if req.kind in ("set-system", "zr") and set(out["critical"]) != model.critical():
        problems.append("critical points differ from the recomputed ones")


def _check_decompose(req: Request, model, out: dict, problems: list[str]) -> None:
    comps = out["components"]
    if req.kind == "tables":
        if not model.represents(comps):
            problems.append("components do not intersect back to the ideal")
        if any(not model.ideal <= model.elements(c) for c in comps):
            problems.append("a component does not contain the ideal")
        return
    if req.instance is not None:
        n, g = req.instance["ring"]["zmod"], req.instance["ideal"]
    else:
        n, g = int(req.argv[2].split(":")[1]), int(req.argv[4])
    d = math.gcd(g % n, n)
    want = sorted(p ** e for p, e in factorize(d).items())
    if sorted(int(c.strip("()")) for c in comps) != want:
        problems.append(f"components {comps} are not the prime-power factorisation of {d}")
    if out["verified"] != (n <= 100_000):
        problems.append("verified flag does not match the ring size")


def _check_text_analyze(model, text: str, problems: list[str]) -> None:
    reps = [line.split(": ", 1)[1].strip("{}").split(",")
            for line in text.splitlines() if line.startswith("minimal representation: ")]
    for z in reps:
        if not model.represents(z):
            problems.append(f"text representation {z} does not represent")
    unique = [line for line in text.splitlines() if line.startswith("unique minimal: ")]
    if unique != [f"unique minimal: {len(reps) == 1}"]:
        problems.append("text unique-minimal line disagrees with the representations")
    flagged = {line.split(":", 1)[0] for line in text.splitlines()
               if not line.startswith(("minimal representation", "critical core", "unique minimal", "notice"))}
    if flagged != set(model.points):
        problems.append("text output does not list every point once")


def _check_dot(model, text: str, problems: list[str]) -> None:
    if not (text.startswith("digraph representation {") and text.endswith("}\n")):
        problems.append("dot output is not a digraph")
        return
    nodes = set(re.findall(r'^  "([^"]+)" \[label=', text, re.M))
    edges = set(re.findall(r'^  "([^"]+)" -> "([^"]+)";$', text, re.M))
    if nodes != set(model.points):
        problems.append("dot nodes differ from the instance points")
    if edges != model.covers():
        problems.append("dot edges differ from the covering relation of the inclusion order")


def verify(req: Request, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one request's result; [] when it passed."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:200]}"]
    if stderr:
        return [f"unexpected stderr: {stderr.strip()[:200]}"]
    problems: list[str] = []
    command = req.argv[0]
    model = model_of(req)
    try:
        if "--format" in req.argv:
            fmt = req.argv[req.argv.index("--format") + 1]
            if fmt == "text":
                _check_text_analyze(model, stdout, problems)
            else:
                _check_dot(model, stdout, problems)
            return problems
        out = json.loads(stdout)
        if out.get("schema") != 1 or out.get("command") != command:
            problems.append("JSON envelope is wrong")
        if command == "analyze":
            _check_analyze(req, model, out, problems)
        elif command == "minimal":
            _check_minimal(model, out, problems)
        elif command == "critical":
            _check_critical(req, model, out, problems)
        elif command == "decompose":
            _check_decompose(req, model, out, problems)
        elif command == "check-theorems":
            if out["passed"] is not True or any(c["status"] == "fail" for c in out["checks"]):
                problems.append("a theorem check failed")
        elif command == "zr-check":
            k = req.props["k"]
            if out["passed"] is not True or out["failures"]:
                problems.append("the pool sweep reported failures")
            if out["checks"] != 3 ** k - 2 ** k:
                problems.append(f"{out['checks']} checks instead of 3^{k} - 2^{k}")
            if out["pool"] != req.props["pool"]:
                problems.append("the sweep ran on another pool")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"output does not parse as expected: {exc!r}")
    return problems
