"""Fuzzing the exit-code contract: any instance, any command, never a traceback.

Instances are drawn near the three schemas (set systems, rings, zr pools)
with fields that are sometimes of the wrong type, out of range or missing,
and from arbitrary small JSON values.  `parse_instance` must return an
instance or raise a package error; `cli.main` must exit with 0-4, write no
traceback, and print the same bytes when run twice on the same input.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specrep import cli
from specrep.errors import SpecrepError

SMALL_INTS = st.one_of(st.integers(min_value=-3, max_value=40), st.sampled_from([97, 360, 10 ** 9, 10 ** 9 + 1, 2 ** 70]))
SCALARS = st.one_of(st.none(), st.booleans(), SMALL_INTS, st.text("ab0", max_size=2))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text("ab", max_size=2), inner, max_size=3)),
    max_leaves=6,
)

VALID_TABLES = [
    ([[0, 1], [1, 0]], [[0, 0], [0, 1]]),  # F2
    ([[(i + j) % 4 for j in range(4)] for i in range(4)], [[i * j % 4 for j in range(4)] for i in range(4)]),  # Z/4
    ([[i ^ j for j in range(4)] for i in range(4)], [[i & j for j in range(4)] for i in range(4)]),  # F2 x F2
    ([[0]], [[0]]),  # the zero ring
]


def maybe(strategy):
    """A field drawn from the schema seven times in eight, otherwise arbitrary JSON."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda k: JSON if k == 7 else strategy)


@st.composite
def set_systems(draw):
    """A universe prefix of a..e with C, A and points drawn mostly inside it."""
    universe = list("abcde"[:draw(st.integers(min_value=0, max_value=5))])
    inside = st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)) if universe else st.just([])
    fixed = draw(inside)
    target = draw(st.lists(st.sampled_from(fixed), unique=True, max_size=len(fixed) - 1) if fixed else st.just([]))
    points = st.dictionaries(st.sampled_from(["P", "Q", "R", "S"]), inside.map(lambda m: sorted(set(m) | set(target))),
                             min_size=1, max_size=4)
    return {"universe": draw(maybe(st.just(universe))), "C": draw(maybe(st.just(fixed))),
            "A": draw(maybe(st.just(target))), "points": draw(maybe(points))}


tables = st.one_of(
    st.sampled_from(VALID_TABLES),
    st.tuples(st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
              st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3)),
)
ring_specs = st.one_of(
    st.fixed_dictionaries({"zmod": maybe(st.integers(min_value=-2, max_value=400))}),
    tables.map(lambda t: {"tables": {"add": t[0], "mul": t[1]}}),
    JSON,
)
ideals = maybe(st.one_of(st.integers(min_value=-2, max_value=400), st.sampled_from([[0], [0, 2], [0, 1, 2, 3], [5]])))
rings = st.one_of(
    st.fixed_dictionaries({"ring": ring_specs}),
    st.fixed_dictionaries({"ring": ring_specs, "ideal": ideals}),
)

# primes twice, so that most pools are valid
pools = maybe(st.lists(st.sampled_from([2, 3, 5, 7, 2, 3, 5, 7, -2, 0, 1, 4, 2 ** 70]), min_size=1, max_size=4))
prime_lists = maybe(st.lists(st.sampled_from([2, 3, 5, 7, 4]), max_size=3))
zrs = st.one_of(
    st.fixed_dictionaries({"pool": pools}),
    st.fixed_dictionaries({"pool": pools, "target": prime_lists, "C": prime_lists,
                           "members": maybe(st.lists(prime_lists, min_size=1, max_size=3))}),
).map(lambda zr: {"zr": zr})

COMMANDS = ["analyze", "minimal", "critical", "decompose", "check-theorems", "zr-check"]
SHAPES = [  # each schema with the commands that take it
    (set_systems(), ["analyze", "minimal", "critical", "check-theorems"]),
    (rings, ["decompose", "analyze", "minimal", "critical", "check-theorems"]),
    (zrs, ["zr-check", "analyze", "critical", "check-theorems"]),
]


@st.composite
def requests(draw):
    """(instance, command): mostly a schema-shaped instance and a command that takes it."""
    fields, commands = SHAPES[draw(st.integers(min_value=0, max_value=len(SHAPES) - 1))]
    instance = {"schema": draw(maybe(st.just(1))), **draw(fields)}
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        instance = draw(JSON)
    command = draw(st.sampled_from(COMMANDS if draw(st.integers(min_value=0, max_value=7)) == 7 else commands))
    return instance, command


flags = st.lists(st.sampled_from([["--format", "text"], ["--oracle"], ["--cap-points", "3"], ["--cap-points", "0"],
                                  ["--format", "dot"]]), max_size=2).map(lambda groups: [arg for group in groups for arg in group])


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(requests())
def test_parse_instance_returns_or_raises_a_package_error(case):
    try:
        instance = cli.parse_instance(case[0])
    except SpecrepError:
        return
    assert instance.kind in ("set-system", "ring", "zr")


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=requests(), extra=flags)
def test_main_keeps_the_exit_code_contract(tmp_path_factory, case, extra):
    instance, command = case
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    argv = [command, str(path), *extra]
    first = _main(argv)
    code, out, err = first
    assert code in (0, 1, 2, 3, 4), (argv, instance, err)
    assert "Traceback" not in err
    assert _main(argv) == first
