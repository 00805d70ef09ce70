"""The CLI's CSV bytes, pinned to the per-row writer in ``_oracles``, and the
parser that ``main`` builds once per process."""

import contextlib
import io
from argparse import Namespace
from unittest import mock

import numpy as np
import pytest
from _oracles import csv_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triwalk import cli
from triwalk.cli import main

BLOCK = cli._BLOCK_ROWS
COINS = ["--coin=0.3,0.2,0.1,0.9", "--coin=0,0,0,1.2", "--coin=0.5,-0.4,0.2,2.1"]
TABLES = [
    ["simulate", "--theta", "0.7", "--steps", "300"],
    ["simulate", "--theta", "0.4", "--steps", "200", "--every", "7"],
    ["three-coin", *COINS, "--steps", "150", "--every", "10"],
    ["sweep", "--theta-sweep", "0.4:2.7:5", "--steps", "60"],
    ["sweep", "--theta-sweep=-2.5:-0.3:4", "--steps", "40"],
    ["density", "--theta", "1.2566370614359172", "--grid", "400"],
    ["density", "--coin", "0.3,-1.1,0.7,1.0", "--alpha=0.6,0", "--beta=0,0.8"],
    # 4,095, 4,096 and 4,097 rows: one short of a block, a block, one over
    *(["simulate", "--theta", "0.7", "--steps", str(t)] for t in (4094, 4095, 4096)),
]


def written(names, columns) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = Namespace(format="csv", output=None)
        assert cli._emit_table(args, "test", {"k": 1}, names, columns) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", TABLES, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_csv_bytes_equal_the_per_row_writer(tmp_path, monkeypatch, argv):
    tables = []
    emit = cli._emit_table

    def spy(args, command, config, names, columns):
        tables.append((command, config, names, columns))
        return emit(args, command, config, names, columns)

    monkeypatch.setattr(cli, "_emit_table", spy)
    out = tmp_path / "table.csv"
    assert main([*argv, "-o", str(out)]) == 0
    (table,) = tables
    assert out.read_bytes() == csv_table(*table).encode()


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_keyed_csv_bytes_at_block_edges(rows):
    rng = np.random.default_rng(rows)
    # key runs of 1,000 rows straddle every block edge
    keys = np.repeat(rng.normal(size=rows // 1000 + 1), 1000)[:rows]
    columns = [keys, np.arange(rows) - rows // 2, rng.random(rows)]
    names = ["theta", "x", "p"]
    assert written(names, columns) == csv_table("test", {"k": 1}, names, columns)


EDGE_FLOATS = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.0, 0.1,
]
EDGE_BITS = [int(b) for b in np.array(EDGE_FLOATS).view(np.uint64)]
EDGE_BITS += [0x7FF8000000000001, 0xFFF0000000000001]  # NaNs with other payloads
FLOAT_BITS = st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS)
INTS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0, -1])


def float_column(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def tables(draw):
    """A key column of runs of one value, then an int and a float column, from
    raw float64 bit patterns and int64 values, and a block size."""
    int_key = draw(st.booleans())
    values = INTS if int_key else FLOAT_BITS
    runs = draw(st.lists(st.tuples(values, st.integers(1, 9)), max_size=12))
    key = [v for v, _ in runs]
    key = np.array(key, dtype=np.int64) if int_key else float_column(key)
    key = np.repeat(key, [n for _, n in runs])
    rows = key.size
    ints = np.array(draw(st.lists(INTS, min_size=rows, max_size=rows)), dtype=np.int64)
    floats = float_column(draw(st.lists(FLOAT_BITS, min_size=rows, max_size=rows)))
    return [key, ints, floats], draw(st.integers(1, 10))


# +-0.0 side by side, and NaNs of two signs, in a float key column
SIGNED_ZEROS = float_column([EDGE_BITS[0]] * 3 + [EDGE_BITS[1]] * 3 + EDGE_BITS[2:4] * 2)
EXTREME_INTS = np.array([0, 0, -1, 2**63 - 1, -(2**63)] * 2, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@example(([SIGNED_ZEROS, EXTREME_INTS, SIGNED_ZEROS[::-1].copy()], 4))
@given(tables())
def test_csv_bytes_equal_the_per_row_writer_on_raw_bit_patterns(table):
    columns, block = table
    names = ["k", "i", "f"]
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        assert written(names, columns) == csv_table("test", {"k": 1}, names, columns)


def exact_ties(rng, size: int) -> np.ndarray:
    """Doubles ``n + k / 2**j`` (``k`` odd, ``n`` of ``18 - j`` digits) whose
    exact decimal has 18 significant digits, the last a 5: ``%.17g`` rounds
    them half to even (``j = 3`` holds the 7.7e14-scale eighths)."""
    ties = []
    for j in range(2, 18):
        n = rng.integers(10 ** (17 - j), min(10 ** (18 - j), 2 ** (53 - j)), size)
        ties.append(n + (2 * rng.integers(0, 2 ** (j - 1), size) + 1) / 2.0**j)
    return np.concatenate(ties)


def test_csv_cells_equal_percent_formatting_on_a_million_values():
    rng = np.random.default_rng(22)
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    carries = [9.9999999999999999e-5, 99999.999999999999, 0.99999999999999999,
               9.9999999999999999e16, 9.9999999999999999e-300, 772649201234567.125]
    floats = np.concatenate([
        np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf), carries,
        exact_ties(rng, 2_000),
        float_column(EDGE_BITS),
        float_column(rng.integers(1, 2**52, 10_000, dtype=np.uint64)),  # subnormals
        np.exp(rng.uniform(-745.0, 709.0, 50_000)),  # every exponent
        rng.random(50_000) ** 3,  # probabilities
        float_column(rng.integers(0, 2**64, 380_000, dtype=np.uint64)),  # raw bit patterns
    ])
    floats = np.concatenate([floats, -floats])
    ints = rng.integers(-(2**63), 2**63, floats.size, dtype=np.int64)
    ints[: floats.size // 2] //= 10 ** rng.integers(0, 19, floats.size // 2)
    ints[:6] = [0, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 10**16]
    assert 2 * floats.size >= 10**6
    names = ["i", "f"]
    with mock.patch.object(cli, "_BLOCK_ROWS", 1_999):  # blocks end mid-table
        for rows in np.array_split(np.arange(floats.size), 5):
            columns = [ints[rows], floats[rows]]
            blocks = list(cli._csv_blocks(columns))
            assert len(blocks) == -(-rows.size // 1_999)
            # lists of lines: a mismatch is reported by its first line
            expected = csv_table("test", {"k": 1}, names, columns).splitlines()
            assert "".join(blocks).splitlines() == expected[3:]


def test_csv_cells_never_trust_a_wrong_exponent_guess(monkeypatch):
    # a log10 one off either way on alternate values: no digits it leads to
    # may be certified, so every value goes through % and stays exact
    rng = np.random.default_rng(5)
    floats = np.concatenate([rng.random(3_000) ** 9, -np.exp(rng.uniform(-640, 640, 3_000))])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + np.resize([1.0, -1.0], a.shape))
    expected = csv_table("test", {"k": 1}, ["f"], [floats]).splitlines()
    assert written(["f"], [floats]).splitlines() == expected


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    runs = [
        ["simulate", "--theta", "0.7", "--steps", "20", "--every", "5"],
        ["sweep", "--theta-sweep", "0.4:1.4:3", "--steps", "12"],
        ["simulate", "--theta", "0.7", "--steps", "20"],
    ]
    for i, argv in enumerate(runs):
        shared, fresh = tmp_path / f"shared{i}.csv", tmp_path / f"fresh{i}.csv"
        assert main([*argv, "-o", str(shared)]) == 0
        args = cli._parse_args(cli.build_parser(), [*argv, "-o", str(fresh)])
        assert args.func(args) == 0
        assert shared.read_bytes() == fresh.read_bytes()
    text = shared.read_text()
    assert "# every=null\n" in text and "# columns: x,p\n" in text
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
