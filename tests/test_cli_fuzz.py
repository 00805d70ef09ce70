"""Contract fuzz: whatever the argv, ``main`` exits 0/2/3/4 and never
prints a traceback.

Sizes stay small (``--steps`` <= 60, ``--grid`` <= 200, sweeps of at most
four angles), so each example runs in milliseconds to a few hundred.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triwalk.cli import main

EXIT_CODES = {0, 2, 3, 4}

NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e309", "-1e309"])
JUNK = NON_FINITE | st.sampled_from(
    ["", "abc", "--", "-", "1,2,3", ":", ",", "--steps", "1e400:0:2"]
)


def pick(*options):
    """One of the strategies ``options``, uniformly; repeat one to weight it."""
    return st.sampled_from(options).flatmap(lambda strategy: strategy)


def mostly(valid):
    """``valid`` seven times in eight, otherwise a junk or non-finite token."""
    return pick(*[valid] * 7, JUNK)


def ints(lo, hi):
    return mostly(st.integers(min_value=lo, max_value=hi).map(str))


REAL = pick(
    st.floats(min_value=0.05, max_value=1.5).map(repr),
    st.floats(min_value=-7.0, max_value=7.0).map(repr),
    st.floats().map(repr),
)
ANGLE = mostly(REAL)
COIN = mostly(st.tuples(REAL, REAL, REAL, REAL).map(",".join))
PAIR = mostly(
    st.sampled_from(["0.6,0", "0,0.8", "0.7071067811865476,0", "0,0.7071067811865476"])
    | st.tuples(REAL, REAL).map(",".join)
)
COUNT = st.sampled_from(["2", "3", "4", "1", "-1"])
SWEEP = pick(
    *[st.tuples(
        st.floats(min_value=-7.0, max_value=7.0),
        st.floats(min_value=0.01, max_value=1.0),
        COUNT,
    ).map(lambda t: f"{t[0]!r}:{t[0] + t[1]!r}:{t[2]}")] * 4,
    st.tuples(REAL, REAL, COUNT).map(":".join),
    st.just("-1e308:1e308:2"),
    JUNK,
)


def flag(name, values):
    """``--name=value`` (the form that lets a value start with '-')."""
    return values.map(lambda v: [f"{name}={v}"])


def both(*parts):
    return st.tuples(*parts).map(lambda p: sum(p, []))


def maybe(name, values):
    return pick(st.just([]), flag(name, values))


def usually(name, values):
    """Present nine times in ten: for options argparse requires."""
    return pick(*[flag(name, values)] * 9, st.just([]))


SPIN = pick(
    st.just([]),
    st.just(["--spin=symmetric"]),
    both(flag("--alpha", PAIR), flag("--beta", PAIR)),
    both(flag("--alpha", PAIR), flag("--beta", PAIR)),
    flag("--alpha", PAIR),
)
FORMAT = maybe("--format", mostly(st.sampled_from(["csv", "json"])))
MODEL = pick(
    *[flag("--theta", ANGLE)] * 3,
    *[flag("--coin", COIN)] * 2,
    st.just([]),
    both(flag("--theta", ANGLE), flag("--coin", COIN)),
)


def command(name, *parts):
    return both(st.just([name]), *parts)


ARGV = st.one_of(
    command("simulate", usually("--theta", ANGLE), usually("--steps", ints(-1, 60)),
            maybe("--every", ints(0, 60)), SPIN, FORMAT),
    command("three-coin", usually("--coin", COIN), usually("--coin", COIN),
            usually("--coin", COIN), usually("--steps", ints(-1, 60)),
            maybe("--every", ints(0, 60)), SPIN, FORMAT),
    command("sweep", usually("--theta-sweep", SWEEP), usually("--steps", ints(-1, 60)),
            SPIN, FORMAT),
    command("density", MODEL, maybe("--grid", ints(0, 200)), SPIN, FORMAT),
    command("compare", MODEL, usually("--steps", ints(3, 60)), SPIN),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    argv=ARGV,
    extra=pick(*[st.just([])] * 7, st.lists(JUNK, min_size=1, max_size=2)),
    output=st.sampled_from([None, "out.txt", "out.txt", "missing/out.txt", "."]),
)
def test_cli_exit_codes_and_no_traceback(tmp_path, argv, extra, output):
    if output is not None:
        argv = [*argv, f"--output={tmp_path / output}"]
    argv = [*argv, *extra]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
