"""The CLI's JSON table bytes, pinned to ``json.dump`` in ``_oracles``."""

import contextlib
import io
from argparse import Namespace
from unittest import mock

import numpy as np
import pytest
from _oracles import json_table
from hypothesis import example, given, settings
from test_csv_writer import (
    BLOCK,
    COINS,
    EDGE_ROWS,
    EXTREME_INTS,
    SIGNED_ZEROS,
    TABLES,
    check_table_bytes,
    tables,
)

from triwalk import _cells, cli


# the config holds an empty list, as the rows of an empty table are
def written(names, columns) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = Namespace(format="json", output=None)
        assert cli._emit_table(args, "test", {"k": 1, "e": []}, names, columns) == 0
    return out.getvalue()


def expected(names, columns) -> str:
    return json_table({"k": 1, "e": []}, names, columns)


@pytest.mark.parametrize("argv", TABLES, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_json_bytes_equal_the_json_encoder(argv):
    check_table_bytes([*argv, "--format", "json"])


GENERAL = ["--coin", "0.3,-1.1,0.7,1.0"]
ROTATION = ["--theta", "1.2566370614359172"]
# every table command at one row short of a block, a block and one over,
# then the same at two blocks
EDGE_TABLES = [
    *(
        (["simulate", "--theta", "0.4", "--steps", str(s), "--every", "31"], rows)
        for s, rows in ((330, BLOCK - 1), (331, BLOCK), (332, BLOCK + 1))
    ),
    *(
        (["three-coin", *COINS, "--steps", str(s), "--every", "31"], rows)
        for s, rows in ((330, BLOCK - 1), (331, BLOCK), (332, BLOCK + 1))
    ),
    (["sweep", "--theta-sweep", "0.4:2.7:23", "--steps", "88"], BLOCK - 1),
    (["sweep", "--theta-sweep", "0.4:2.7:4", "--steps", "511"], BLOCK),
    (["sweep", "--theta-sweep", "0.4:2.7:3", "--steps", "682"], BLOCK + 1),
    (["density", "--theta", "1.3", "--grid", "2047"], BLOCK - 1),
    (["density", *ROTATION, "--grid", "2048"], BLOCK),
    (["density", *GENERAL, "--grid", "2049"], BLOCK + 1),
    *(
        (["simulate", "--theta", "0.4", "--steps", str(s), "--every", "30"], rows)
        for s, rows in ((478, 2 * BLOCK - 1), (479, 2 * BLOCK), (480, 2 * BLOCK + 1))
    ),
    *(
        (["three-coin", *COINS, "--steps", str(s), "--every", "30"], rows)
        for s, rows in ((478, 2 * BLOCK - 1), (479, 2 * BLOCK), (480, 2 * BLOCK + 1))
    ),
    (["sweep", "--theta-sweep", "0.4:2.7:5", "--steps", "818"], 2 * BLOCK - 1),
    (["sweep", "--theta-sweep", "0.4:2.7:4", "--steps", "1023"], 2 * BLOCK),
    (["sweep", "--theta-sweep", "0.4:2.7:17", "--steps", "240"], 2 * BLOCK + 1),
    (["density", *GENERAL, "--grid", "4094"], 2 * BLOCK - 1),
    (["density", *ROTATION, "--grid", "4095"], 2 * BLOCK),
    (["density", *GENERAL, "--grid", "4097"], 2 * BLOCK + 1),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, rows", EDGE_TABLES, ids=[f"{argv[0]}-{rows}" for argv, rows in EDGE_TABLES]
)
def test_table_bytes_at_block_edges(argv, rows, fmt):
    _, _, _, columns = check_table_bytes([*argv, "--format", fmt])
    assert columns[0].size == rows


@pytest.mark.parametrize("rows", [0, 1, *EDGE_ROWS])
def test_keyed_json_bytes_at_block_edges(rows):
    rng = np.random.default_rng(rows)
    # key runs of 1,000 rows straddle every block edge
    keys = np.repeat(rng.normal(size=rows // 1000 + 1), 1000)[:rows]
    columns = [keys, np.arange(rows) - rows // 2, rng.random(rows)]
    names = ["theta", "x", "p"]
    assert written(names, columns) == expected(names, columns)


def test_empty_json_tables():
    for columns in (
        [np.array([], dtype=np.int64), np.array([])],
        [np.array([]), np.array([], dtype=np.int64), np.array([])],
    ):
        names = ["k", "x", "p"][: len(columns)]
        assert written(names, columns) == expected(names, columns)
        assert '"rows": []\n' in written(names, columns)


NON_FINITE = np.array([np.nan, -np.nan, np.inf, -np.inf, 1.0])


@settings(max_examples=200, deadline=None)
@example(([SIGNED_ZEROS, EXTREME_INTS, SIGNED_ZEROS[::-1].copy()], 4))
@example(([np.repeat(NON_FINITE, 2), np.arange(10), np.tile(NON_FINITE, 2)], 3))
@given(tables())
def test_json_bytes_equal_the_json_encoder_on_raw_bit_patterns(table):
    columns, block = table
    names = ["k", "i", "f"]
    with mock.patch.object(_cells, "_BLOCK_ROWS", block):
        assert written(names, columns) == expected(names, columns)
