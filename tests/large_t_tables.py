"""The CLI's large-T tables, byte for byte as the slow writers in
``_oracles`` write the same columns: the block writer must change no byte.

Each table's columns are built once, through ``walk._distributions``: the
300k-row ``simulate`` CSV, and the 650k-row ``three-coin`` table (eleven
sparse reads up to T = 99,999), checked as CSV and as JSON.  Write the
three files with the CLI, then run this from the repository root::

    triwalk simulate --theta 0.785 --steps 299999 -o /tmp/s.csv
    triwalk three-coin --coin=0.3,0.2,0.1,0.9 --coin=0,0,0,1.2 \\
        --coin=0.5,-0.4,0.2,2.1 --steps 99999 --every 9999 -o /tmp/t.csv
    triwalk three-coin ... --format json -o /tmp/t.json
    python tests/large_t_tables.py /tmp/s.csv /tmp/t.csv /tmp/t.json
"""

import sys
from pathlib import Path

import numpy as np
from _oracles import csv_table, json_table

from triwalk import general_coin, symmetric_spin, three_coin_protocol, three_period_protocol
from triwalk.walk import _distributions

COINS = [[0.3, 0.2, 0.1, 0.9], [0.0, 0.0, 0.0, 1.2], [0.5, -0.4, 0.2, 2.1]]
TIMES = [*range(0, 99999, 9999), 99999]


def check(path: str, expected: str, oracle: str) -> None:
    written = Path(path).read_bytes()
    assert written == expected.encode(), f"CLI table {path} differs from {oracle}"
    print(f"{path}: {len(written)} bytes, equal to {oracle}")


def main(simulate_csv: str, three_csv: str, three_json: str) -> None:
    spin = symmetric_spin()
    spin_cfg = {"alpha": [spin.alpha.real, spin.alpha.imag], "beta": [spin.beta.real, spin.beta.imag]}

    (dist,) = _distributions(spin, three_period_protocol(0.785), [299999])
    config = {"subcommand": "simulate", "theta": 0.785, **spin_cfg,
              "steps": 299999, "every": None, "format": "csv"}
    columns = [dist.positions, dist.probabilities]
    check(simulate_csv, csv_table("simulate", config, ["x", "p"], columns), "the per-row writer")

    dists = _distributions(spin, three_coin_protocol(*(general_coin(*c) for c in COINS)), TIMES)
    columns = [
        np.repeat(TIMES, [d.positions.size for d in dists]),
        np.concatenate([d.positions for d in dists]),
        np.concatenate([d.probabilities for d in dists]),
    ]
    config = {"subcommand": "simulate", "coins": COINS, **spin_cfg, "steps": 99999, "every": 9999}
    names = ["t", "x", "p"]
    csv = csv_table("simulate", {**config, "format": "csv"}, names, columns)
    check(three_csv, csv, "the per-row writer")
    check(three_json, json_table({**config, "format": "json"}, names, columns), "json.dump")


if __name__ == "__main__":
    main(*sys.argv[1:])
