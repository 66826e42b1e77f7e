"""Command-line front end: parse instance files, run analyses, emit reports.

Commands: analyze, minimal, critical, decompose, zr-check, check-theorems.
This is the one module that names points: the engine answers in point
indices and masks, and every JSON, text and DOT report is written here.
Exit codes: 0 success, 1 malformed input, 2 validation failure (not a
representation; the counterexample element is reported), 3 cap exceeded,
4 failed theorem checks or internal consistency faults.  Output is byte
deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import engine, rings, theorems, zrdesk
from .errors import (
    CapExceeded,
    ConsistencyError,
    InputError,
    NotAntichain,
    NotARepresentation,
)
from .setsystems import ContextTriple, PointFamily
from .topology import indices_of, min_mask

SCHEMA_VERSION = 1
ENV_CAP_POINTS = "SPECREP_CAP_POINTS"


@dataclass
class Instance:
    kind: str  # set-system | ring | zr
    family: PointFamily | None = None
    ring: rings.FiniteRing | None = None
    ideal: rings.RingIdeal | None = None
    pool: zrdesk.PrimePool | None = None
    zr_parts: tuple | None = None  # (target, fixed, members) when given


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown field {unknown[0]!r} in {where}")


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _string_list(value, field: str) -> list[str]:
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise InputError(f"field {field!r} must be a list of strings")
    return value


def parse_instance(data) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise InputError(f"field 'schema' must be {SCHEMA_VERSION}")

    keys = set(data) - {"schema"}
    if keys == {"universe", "C", "A", "points"}:
        universe = _string_list(data["universe"], "universe")
        fixed = _string_list(data["C"], "C")
        target = _string_list(data["A"], "A")
        points = data["points"]
        if not isinstance(points, dict) or not points:
            raise InputError("field 'points' must be a nonempty object of name -> labels")
        ctx = ContextTriple.from_labels(universe, fixed, target)
        fam = PointFamily.from_labels(
            ctx, {name: _string_list(labels, f"points.{name}") for name, labels in points.items()}
        )
        return Instance(kind="set-system", family=fam)

    if keys in ({"ring"}, {"ring", "ideal"}):
        spec = data["ring"]
        if not isinstance(spec, dict) or len(spec) != 1:
            raise InputError("field 'ring' must hold exactly one of 'zmod' or 'tables'")
        if "zmod" in spec:
            n = spec["zmod"]
            if not _is_int(n):
                raise InputError("field 'ring.zmod' must be an integer")
            ring = rings.FiniteRing.zmod(n)
        elif "tables" in spec:
            tables = spec["tables"]
            if not isinstance(tables, dict):
                raise InputError("field 'ring.tables' must be an object")
            _require_keys(tables, {"add", "mul"}, "ring.tables")
            add = _int_lists(tables.get("add", []), "ring.tables.add")
            mul = _int_lists(tables.get("mul", []), "ring.tables.mul")
            try:
                ring = rings.FiniteRing.from_tables(add, mul)
            except InputError as exc:
                raise InputError(f"field 'ring.tables': {exc}") from None
        else:
            raise InputError("field 'ring' must hold exactly one of 'zmod' or 'tables'")
        ideal = None
        if "ideal" in data:
            ideal = parse_ideal(ring, data["ideal"])
        return Instance(kind="ring", ring=ring, ideal=ideal)

    if keys == {"zr"}:
        zr = data["zr"]
        if not isinstance(zr, dict):
            raise InputError("field 'zr' must be an object")
        _require_keys(zr, {"pool", "target", "C", "members"}, "zr")
        if "pool" not in zr:
            raise InputError("field 'zr.pool' is required")
        pool = zrdesk.PrimePool.of(_int_list(zr["pool"], "zr.pool"))
        rest = {"target", "C", "members"} & set(zr)
        if not rest:
            return Instance(kind="zr", pool=pool)
        if rest != {"target", "C", "members"}:
            raise InputError("fields 'zr.target', 'zr.C' and 'zr.members' come together")
        target = zrdesk.OverringSpec.of(pool, _int_list(zr["target"], "zr.target"))
        fixed = zrdesk.OverringSpec.of(pool, _int_list(zr["C"], "zr.C"))
        members = [zrdesk.OverringSpec.of(pool, m) for m in _int_lists(zr["members"], "zr.members")]
        family = zrdesk.encode(pool, target, fixed, members)
        return Instance(kind="zr", pool=pool, family=family, zr_parts=(target, fixed, members))

    raise InputError(
        "instance must be a set system (universe/C/A/points), a ring (ring/ideal), or zr"
    )


def _int_list(value, field: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise InputError(f"field {field!r} must be a list of integers")
    return value


def _int_lists(value, field: str) -> list[list[int]]:
    # a row at a time: exactly int, so a JSON true or false is refused as _is_int refuses it
    if not isinstance(value, list) or not all(type(row) is list and set(map(type, row)) <= {int} for row in value):
        raise InputError(f"field {field!r} must be a list of integer lists")
    return value


def parse_ideal(ring: rings.FiniteRing, raw) -> rings.RingIdeal:
    if ring.kind == "zmod":
        if not _is_int(raw):
            raise InputError("field 'ideal': zmod ideals are named by an integer generator")
        return rings.zmod_ideal(ring, raw)
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise InputError("field 'ideal': table-ring ideals are named by their element list")
    return rings.table_ideal(ring, raw)


def load_instance(path: str) -> Instance:
    """The instance in the JSON file at path; read as bytes, with text mode's strict UTF-8 and newline handling.

    The file is read through os.read, which builds no file object.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 20):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
        if "\r" in text:  # as text mode reads them, so that error positions count the same lines
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the interpreter's digit limit
        raise InputError(f"{path}: unreadable JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    return parse_instance(data)


def _family_of(instance: Instance) -> PointFamily:
    if instance.kind == "set-system":
        return instance.family
    if instance.kind == "ring":
        if instance.ideal is None:
            raise InputError("this command needs an 'ideal' field in the ring instance")
        return rings.build_irr_space(instance.ring, instance.ideal)
    if instance.family is None:
        raise InputError("this command needs 'target', 'C' and 'members' in the zr instance")
    return instance.family


def _analyze(instance: Instance, args) -> tuple[str, str | None]:
    """analyze's stdout and the DOT for --dot; each format builds only what it writes."""
    report = engine.build_report(_family_of(instance), cap=args.cap_points, oracle=args.oracle)
    dot = report_to_dot(report) if args.dot or args.format == "dot" else None
    if args.format == "dot":
        return dot, dot
    if args.format == "text":
        return _analyze_text(report), dot
    return _analyze_json(instance, report), dot


def _minimal(instance: Instance, args) -> str:
    """minimal's stdout."""
    family = _family_of(instance)
    analysis = engine.unique_minimal_analysis(family, args.cap_points)
    closed, minimal = analysis._closed_masks, analysis._minimal_masks
    if args.oracle:
        if engine.minimal_closed_oracle(family, args.cap_points) != analysis.minimal_closed:
            raise ConsistencyError("minimal-closed fast path disagrees with the exhaustive oracle")
    ordered, ranks = _name_order(family)
    if args.format == "json":
        rows = _led(list(map(_encode_string, ordered)), "    ")
        return (f'{{\n  "command": "minimal",\n  "minimal_closed_representations": {_rows(rows, ranks, closed)},'
                f'\n  "minimal_representations": {_rows(rows, ranks, minimal)},\n  "schema": {SCHEMA_VERSION}\n}}\n')
    commas = _chunk_tables(["," + name for name in ordered], "")
    lines = _text_rows("minimal representation", commas, ranks, minimal)
    return "\n".join(lines + _text_rows("minimal closed representation", commas, ranks, closed)) + "\n"


def _names(family: PointFamily, ixs) -> list[str]:
    """The names of the points ixs, sorted: critical names a few short lists, so a plain sort costs least."""
    return sorted(family.names[i] for i in ixs)


def _payload_critical(instance: Instance, args) -> dict:
    family = _family_of(instance)
    analysis = engine.unique_minimal_analysis(family, args.cap_points)
    # the capped facts first: beyond the cap, CapExceeded comes before critical_mask's checks
    payload = {
        "unique_minimal": analysis.unique,
        "critical_core_represents": analysis.cset_represents,
        "strongly_irredundant_representation": (
            None
            if analysis.strongly_irredundant_rep is None
            else _names(family, analysis.strongly_irredundant_rep)
        ),
        "critical": _names(family, analysis.critical),
        "critical_core": _names(family, analysis.cset),
    }
    if args.oracle:
        if engine.critical_points_oracle(family, args.cap_points) != analysis.critical:
            raise ConsistencyError("critical fast path disagrees with the exhaustive oracle")
    return payload


def _payload_decompose(instance: Instance, args) -> dict:
    if instance.kind != "ring":
        raise InputError("decompose needs a ring instance")
    if instance.ideal is None:
        raise InputError("decompose needs an ideal")
    verified = args.oracle or rings.verified_by_default(instance.ring, instance.ideal, args.cap_points)
    dec = rings.irredundant_decomposition(instance.ring, instance.ideal, cap=args.cap_points, verify=verified)
    return {
        "ring": instance.ring.describe(),
        "ideal": instance.ideal.name,
        "components": [b.name for b in dec],
        "unique": verified or None,
        "strongly_irredundant": verified or None,
        "verified": verified,
    }


def _payload_zr_check(instance: Instance, args) -> dict:
    if instance.pool is None:
        raise InputError("zr-check needs a pool")
    report = zrdesk.pool_uniqueness_check(instance.pool, cap=args.cap_points, oracle=args.oracle)
    return {
        "pool": list(report.pool),
        "checks": report.checks,
        "passed": report.passed,
        "failures": list(report.failures),
    }


def _payload_check_theorems(instance: Instance, args) -> dict:
    results: list[theorems.CheckResult] = []
    if instance.kind == "ring":
        results += theorems.run_ring_suite(instance.ring, instance.ideal, cap=args.cap_points)
        if instance.ideal is not None and rings.is_arithmetical(instance.ring):
            family = rings.build_irr_space(instance.ring, instance.ideal)
            results += theorems.run_family_suite(family, cap=args.cap_points)
    elif instance.kind == "zr":
        target = fixed = members = None
        if instance.zr_parts is not None:
            target, fixed, members = instance.zr_parts
        results += theorems.run_zr_suite(
            instance.pool, instance.family, members, target, fixed, cap=args.cap_points, oracle=args.oracle
        )
        if instance.family is not None:
            results += theorems.run_family_suite(instance.family, cap=args.cap_points)
    else:
        results += theorems.run_family_suite(instance.family, cap=args.cap_points)
    return {
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ],
        "passed": all(r.status != "fail" for r in results),
    }


_encode_string = json.encoder.encode_basestring_ascii


def _write_json(value, out: list, pad: str) -> None:
    """Append value to out as json.dumps(value, indent=2, sort_keys=True) writes it at indentation pad.

    json.dumps with an indent runs the pure-Python encoder, which costs more
    than this walk over the few types the payloads hold; any other value is
    handed to json.dumps itself.  A list of strings is written in one join,
    and a string or bool in a dict inline.
    """
    if type(value) is str:
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif type(value) in (list, tuple):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if set(map(type, value)) == {str}:
            out.append("[\n" + inner + sep.join(map(_encode_string, value)) + "\n" + pad + "]")
            return
        head = "[\n" + inner
        for item in value:
            out.append(head)
            _write_json(item, out, inner)
            head = sep
        out.append("\n" + pad + "]")
    elif type(value) is dict and set(map(type, value)) <= {str}:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            head = sep + _encode_string(key) + ": "
            if type(item) is str:
                out.append(head + _encode_string(item))
            elif item is True:
                out.append(head + "true")
            elif item is False:
                out.append(head + "false")
            else:
                out.append(head)
                _write_json(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad))


def render_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte."""
    out: list[str] = []
    _write_json(value, out, "")
    return "".join(out)


# analyze and minimal write their JSON and text straight from the analysis,
# reading the names of a mask, already sorted, from chunk tables over the
# sorted names; the tests hold each report equal to a plain sort written by
# json.dumps.  A JSON list's items are encoded and led by ",\n" and their
# indentation, a text list's by ",".

_BOOL = ("false", "true")


def _chunk_tables(items, zero) -> list[list]:
    """tables[k][c]: zero plus the items 4k to 4k + 3 that the 4-bit chunk c picks, in item order.

    _chunk_sum then gives the sum of the items that a mask picks at one
    lookup per chunk; items may be ints with disjoint bits or strings.
    """
    tables = []
    for k in range(0, len(items), 4):
        table = [zero]
        for item in items[k:k + 4]:
            table += [t + item for t in table]
        tables.append(table)
    return tables


def _chunk_sum(tables, m: int, zero):
    """zero plus the items of _chunk_tables that the bits of m pick, in item order (zero itself when m is 0)."""
    out = zero
    for table in tables:
        if not m:
            break
        out = out + table[m & 15]
        m >>= 4
    return out


def _name_order(family: PointFamily) -> tuple[list[str], list[list[int]]]:
    """(the names sorted, ranks): _chunk_sum(ranks, m, 0) has bit r for the point of m whose name is r-th in order.

    Chunk tables over the sorted names then give the names of m already
    sorted.
    """
    names = family.names
    order = sorted(range(len(names)), key=names.__getitem__)
    bits = [0] * len(names)
    for r, i in enumerate(order):
        bits[i] = 1 << r
    return [names[i] for i in order], _chunk_tables(bits, 0)


def _row_keys(ranks, masks) -> list[int]:
    """The masks of an antichain carried to name ranks, in the order of their sorted name lists.

    In rank bits, that order is the one minimal_closed_core gives masks:
    the binary digits from bit 0 up, set before unset.
    """
    return sorted([_chunk_sum(ranks, m, 0) for m in masks], key=lambda y: bin(y)[:1:-1], reverse=True)


def _strings(items: list[str], pad: str) -> str:
    """A JSON list of encoded items at indentation pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _led(items: list[str], pad: str) -> list[list[str]]:
    """Chunk tables of the encoded items, each led by its separator, as list items at indentation pad."""
    return _chunk_tables([",\n" + pad + "  " + item for item in items], "")


def _listed(tables, m: int, pad: str) -> str:
    """The JSON list at indentation pad of the items that m picks from tables of _led(items, pad)."""
    body = _chunk_sum(tables, m, "")
    return "[" + body[1:] + "\n" + pad + "]" if body else "[]"


def _rows(tables, ranks, masks) -> str:
    """The value of a top-level key that lists, sorted, the sorted names of each mask of an antichain.

    tables is _led of the encoded sorted names at indentation "    ", and
    ranks is _name_order's.
    """
    return _strings([_listed(tables, r, "    ") for r in _row_keys(ranks, masks)], "  ")


def _analyze_json(instance: Instance, report: engine.RepresentationReport) -> str:
    """analyze's JSON: the report's names and flags, the exhaustive facts within the cap, and the instance echo.

    A zr instance's points also carry witnesses_rational: each witness
    prime p as the rational 1/p.
    """
    family = report.family
    analysis = report.analysis
    point_mask = family.space.point_mask
    ordered, ranks = _name_order(family)
    encoded = list(map(_encode_string, ordered))
    names = _led(encoded, "  ")

    def named(ixs) -> str:
        return _listed(names, _chunk_sum(ranks, point_mask(ixs), 0), "  ")

    crit = analysis._critical_mask
    rational = instance.kind == "zr"
    entries = []
    for cls in sorted(report.classifications, key=lambda c: c.name):
        witnesses = []
        if cls.irredundant:
            witnesses.append(("irredundant", cls.witness_irredundant))
        if cls.strongly_irredundant:
            witnesses += [("strongly_irredundant", cls.witness_strong), ("tightly_irredundant", cls.witness_strong)]
        entry = (
            f"\n    {_encode_string(cls.name)}: {{\n      \"critical\": {_BOOL[crit >> cls.point & 1]},"
            f"\n      \"irredundant\": {_BOOL[cls.irredundant]},\n      \"isolated_patch\": {_BOOL[cls.isolated_patch]},"
            f"\n      \"isolated_spectral\": {_BOOL[cls.isolated_spectral]},"
            f"\n      \"strongly_irredundant\": {_BOOL[cls.strongly_irredundant]},"
            f"\n      \"tightly_irredundant\": {_BOOL[cls.tightly_irredundant]},"
            f"\n      \"witnesses\": {_witnesses(witnesses)}"
        )
        if rational:
            entry += f",\n      \"witnesses_rational\": {_witnesses([(k, f'1/{w}') for k, w in witnesses])}"
        entries.append(entry + "\n    }")
    points = "{" + ",".join(entries) + "\n  }" if entries else "{}"

    out = [f'{{\n  "chosen": {named(report.chosen)},\n  "command": "analyze",\n  "critical": {named(analysis.critical)},'
           f'\n  "critical_core": {named(analysis.cset)}']
    if report.exhaustive:
        out.append(f',\n  "critical_core_represents": {_BOOL[analysis.cset_represents]}')
    out.append(f',\n  "instance": {_echo(instance, family)}')
    if report.exhaustive:
        rows = _led(encoded, "    ")
        out.append(f',\n  "minimal_closed_representations": {_rows(rows, ranks, analysis._closed_masks)},'
                   f'\n  "minimal_representations": {_rows(rows, ranks, analysis._minimal_masks)}')
    out.append(f',\n  "notices": {_strings(list(map(_encode_string, report.notices)), "  ")},'
               f'\n  "points": {points},\n  "schema": {SCHEMA_VERSION}')
    if report.exhaustive:
        srep = analysis.strongly_irredundant_rep
        out.append(f',\n  "strongly_irredundant_representation": {"null" if srep is None else named(srep)},'
                   f'\n  "unique_minimal": {_BOOL[analysis.unique]}')
    out.append("\n}\n")
    return "".join(out)


def _witnesses(pairs) -> str:
    """The dict of (key, label) pairs, keys in order, as a point entry's value."""
    if not pairs:
        return "{}"
    return "{" + ",".join(f"\n        {_encode_string(k)}: {_encode_string(w)}" for k, w in pairs) + "\n      }"


def _echo(instance: Instance, family: PointFamily) -> str:
    """The instance echo of analyze's envelope, as a top-level value."""
    if instance.kind == "ring":
        return (f'{{\n    "ideal": {_encode_string(instance.ideal.name)},'
                f'\n    "ring": {_encode_string(instance.ring.describe())}\n  }}')
    if instance.kind == "zr":
        return f'{{\n    "pool": {_strings(list(map(int.__repr__, instance.pool.primes)), "    ")}\n  }}'
    ctx = family.context
    labels = [_encode_string(label) for label in ctx.universe]
    at4, at6 = _led(labels, "    "), _led(labels, "      ")
    points = [f",\n      {_encode_string(name)}: {_listed(at6, m, '      ')}"
              for name, m in sorted(zip(family.names, family.members))]
    return (f'{{\n    "A": {_listed(at4, ctx.target_mask, "    ")},\n    "C": {_listed(at4, ctx.fixed_mask, "    ")},'
            f'\n    "points": {{{"".join(points)[1:]}\n    }},\n    "universe": {_listed(at4, ctx.full_mask, "    ")}\n  }}')


def _text_rows(label: str, commas, ranks, masks) -> list[str]:
    """The line label: {names} for each mask of an antichain, in the order of the sorted name lists.

    commas is _chunk_tables of the sorted names, each led by ",", and ranks
    is _name_order's.
    """
    return [f"{label}: {{{_chunk_sum(commas, r, '')[1:]}}}" for r in _row_keys(ranks, masks)]


def _analyze_text(report: engine.RepresentationReport) -> str:
    """analyze's text: a line of flags per chosen point, then the exhaustive facts within the cap, then the notices."""
    analysis = report.analysis
    crit = analysis._critical_mask
    lines = []
    for cls in sorted(report.classifications, key=lambda c: c.name):
        flags = [flag for flag, on in (("irredundant", cls.irredundant),
                                       ("strongly_irredundant", cls.strongly_irredundant),
                                       ("tightly_irredundant", cls.tightly_irredundant),
                                       ("critical", crit >> cls.point & 1),
                                       ("isolated_spectral", cls.isolated_spectral),
                                       ("isolated_patch", cls.isolated_patch)) if on]
        tail = f" witness={cls.witness_irredundant}" if cls.irredundant else ""
        lines.append(f"{cls.name}: {','.join(flags) or '-'}{tail}")
    if report.exhaustive:
        family = report.family
        ordered, ranks = _name_order(family)
        commas = _chunk_tables(["," + name for name in ordered], "")
        lines += _text_rows("minimal representation", commas, ranks, analysis._minimal_masks)
        lines += _text_rows("critical core", commas, ranks, [family.space.point_mask(analysis.cset)])
        lines.append(f"unique minimal: {analysis.unique}")
    lines += [f"notice: {notice}" for notice in report.notices]
    return "\n".join(lines) + "\n"


_FLAG_SHORT = (
    ("irredundant", "irr"),
    ("strongly_irredundant", "strong"),
    ("tightly_irredundant", "tight"),
    ("isolated_spectral", "iso-spec"),
    ("isolated_patch", "iso-patch"),
)


def _dot_quote(text: str) -> str:
    """text as one DOT quoted string: backslash, double quote and newline escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def report_to_dot(report: engine.RepresentationReport) -> str:
    """Hasse diagram of the point order with per-point flag decoration, nodes in name order."""
    fam = report.family
    space = fam.space
    by_name = {cls.name: cls for cls in report.classifications}
    critical = {fam.names[i] for i in report.analysis.critical}
    lines = ["digraph representation {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for name in _name_order(fam)[0]:
        tags = []
        cls = by_name.get(name)
        if cls is not None:
            tags = [short for attr, short in _FLAG_SHORT if getattr(cls, attr)]
        if name in critical:
            tags.append("critical")
        label = name if not tags else name + "\n" + ",".join(tags)
        lines.append(f"  {_dot_quote(name)} [label={_dot_quote(label)}];")
    # j covers i when it is a minimal point strictly above i
    covers = sorted((fam.names[i], fam.names[j]) for i, u in enumerate(space.up)
                    for j in indices_of(min_mask(space, u & ~(1 << i))))
    lines += [f"  {_dot_quote(a)} -> {_dot_quote(b)};" for a, b in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_text(command: str, payload: dict) -> str:
    """The text of critical, decompose, zr-check and check-theorems, from the payload that their JSON writes."""
    lines: list[str] = []
    if command == "critical":
        lines.append("critical: {" + ",".join(payload["critical"]) + "}")
        lines.append("critical core: {" + ",".join(payload["critical_core"]) + "}")
        lines.append(f"unique minimal: {payload['unique_minimal']}")
    elif command == "decompose":
        joined = " ∩ ".join(payload["components"])
        line = f"{payload['ideal']} = {joined}"
        if payload["verified"]:
            line += ", unique, strongly irredundant"
        lines.append(line)
    elif command == "zr-check":
        lines.append(
            f"pool {{{','.join(str(p) for p in payload['pool'])}}}: "
            f"{payload['checks']} checks, {'all passed' if payload['passed'] else 'FAILURES'}"
        )
        lines.extend(payload["failures"])
    else:  # check-theorems
        for entry in payload["checks"]:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[entry["status"]]
            detail = f": {entry['detail']}" if entry["detail"] else ""
            lines.append(f"{mark} {entry['name']}{detail}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed invocation maps to exit 1, like bad input
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _new_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", help="path to a JSON instance file")
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--cap-points", type=int, metavar="N",
                       help=f"exhaustive-enumeration cap (default {engine.DEFAULT_POINT_CAP} or ${ENV_CAP_POINTS}, "
                            f"at most {engine.POINT_CAP_CEILING})")
        p.add_argument("--oracle", action="store_true", help="force brute-force cross-checks")
        p.add_argument("--dot", metavar="PATH", help="also write the Hasse diagram to PATH")

    for name in ("analyze", "minimal", "critical", "check-theorems"):
        common(sub.add_parser(name))
    dec = sub.add_parser("decompose")
    common(dec)
    dec.add_argument("--ring", metavar="zmod:N", help="inline ring, e.g. zmod:12")
    dec.add_argument("--ideal", metavar="G", type=int, help="inline ideal generator")
    zrp = sub.add_parser("zr-check")
    common(zrp)
    zrp.add_argument("--pool", metavar="P,Q,...", help="inline comma-separated prime pool")
    return parser


# Built once per process: parse_args keeps no state between calls (each call
# fills a fresh namespace, and help width is read when help is formatted), so
# main() can be called repeatedly without paying for the parser again.
_PARSER = _new_parser()


def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser that main() uses."""
    return _PARSER


def _grammar(parser: argparse.ArgumentParser) -> dict:
    """command -> (namespace defaults, {option string: action}, the positional's action), from parser's subparsers."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    grammar = {}
    for name, sub in commands.choices.items():
        defaults = {commands.dest: name}
        options = {}
        positional = None
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            defaults[action.dest] = action.default
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, action))
            else:
                positional = action
        grammar[name] = (defaults, options, positional)
    return grammar


_GRAMMAR = _grammar(_PARSER)


def _fast_args(argv) -> argparse.Namespace | None:
    """The namespace _PARSER.parse_args(argv) returns, for a plain argv; None for any other.

    Plain is: a command name, then exact option strings, each value a word
    of its own that does not start with '-', and at most one positional.
    Everything else (help, --opt=value, abbreviations, '--', a value that
    the option's type or choices refuse, unknown words) goes to argparse,
    so its help, usage errors and their texts stay its own.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    defaults, options, positional = _GRAMMAR[argv[0]]
    values = dict(defaults)
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            action, value = positional, word
            if action is None or values[action.dest] is not action.default:  # a second positional
                return None
        else:
            action = options.get(word)
            if action is None:
                return None
            if action.nargs == 0:  # a flag
                values[action.dest] = action.const
                continue
            value = next(words, "-")
            if value[:1] == "-":
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _cap_points(args) -> int:
    """--cap-points, else $SPECREP_CAP_POINTS, else the default; at most the ceiling."""
    value, source = args.cap_points, "--cap-points"
    if value is None:
        raw = os.environ.get(ENV_CAP_POINTS)
        if raw is None:
            return engine.DEFAULT_POINT_CAP
        source = ENV_CAP_POINTS
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{source} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise InputError(f"caps must be positive ({source} is {value})")
    if value > engine.POINT_CAP_CEILING:
        raise InputError(
            f"{source} {value} exceeds the ceiling of {engine.POINT_CAP_CEILING}: exhaustive routes hold "
            f"about N + 7 integers of 2^N bits each, and their time doubles with each point"
        )
    return value


def _instance_from_args(args) -> Instance:
    inline = [f"--{name}" for name in ("ring", "ideal", "pool") if getattr(args, name, None) is not None]
    if inline and args.input:
        raise InputError(f"{' and '.join(inline)} cannot be combined with an instance file")
    if args.command == "decompose" and args.ring is not None:
        if not args.ring.startswith("zmod:"):
            raise InputError("inline rings use the form zmod:N")
        try:
            n = int(args.ring.split(":", 1)[1])
        except ValueError:
            raise InputError("inline rings use the form zmod:N") from None
        ring = rings.FiniteRing.zmod(n)
        if args.ideal is None:
            raise InputError("decompose needs --ideal with --ring")
        return Instance(kind="ring", ring=ring, ideal=rings.zmod_ideal(ring, args.ideal))
    if args.command == "zr-check" and args.pool is not None:
        try:
            primes = [int(x) for x in args.pool.split(",")]
        except ValueError:
            raise InputError("--pool takes comma-separated integers") from None
        return Instance(kind="zr", pool=zrdesk.PrimePool.of(primes))
    if not args.input:
        raise InputError("decompose needs --ring with --ideal" if inline else "an instance file is required")
    return load_instance(args.input)


_PAYLOADS = {
    "critical": _payload_critical,
    "decompose": _payload_decompose,
    "zr-check": _payload_zr_check,
    "check-theorems": _payload_check_theorems,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return exc.code or 0
    failed = False
    dot = None
    try:
        args.cap_points = _cap_points(args)
        if (args.dot or args.format == "dot") and args.command != "analyze":
            raise InputError("dot output only applies to analyze")
        instance = _instance_from_args(args)
        if args.command == "analyze":
            out, dot = _analyze(instance, args)
        elif args.command == "minimal":
            out = _minimal(instance, args)
        else:
            payload = _PAYLOADS[args.command](instance, args)
            if args.format == "json":
                out = render_json({"schema": SCHEMA_VERSION, "command": args.command, **payload}) + "\n"
            else:
                out = _render_text(args.command, payload)
            failed = args.command == "check-theorems" and not payload["passed"]
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotARepresentation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAntichain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4

    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc.strerror}", file=sys.stderr)
            return 1
    sys.stdout.write(out)
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
