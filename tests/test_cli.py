import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triwalk import (
    InitialSpin,
    LimitModel,
    general_coin,
    limit_density,
    rotation_coin,
    support_intervals,
)
from triwalk.cli import main
from triwalk.limit import ENDPOINT_EXCLUSION

SRC = str(Path(__file__).resolve().parent.parent / "src")
PI4 = "0.7853981633974483"
SYMMETRIC = ["--alpha", "0.7071067811865476,0", "--beta", "0,0.7071067811865476"]


def read_csv(path):
    header = []
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return header, rows


def test_simulate_writes_normalised_distribution(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--theta", PI4, *SYMMETRIC, "--steps", "999", "-o", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert any("columns: x,p" in line for line in header)
    xs = [r[0] for r in rows]
    ps = [r[1] for r in rows]
    assert abs(sum(ps) - 1.0) <= 1e-10
    assert min(xs) >= -999 and max(xs) <= 999
    assert xs == sorted(xs)


def test_spin_symmetric_shorthand_matches_explicit_pair(tmp_path):
    short = tmp_path / "short.csv"
    explicit = tmp_path / "explicit.csv"
    assert (
        main(["simulate", "--theta", PI4, "--spin", "symmetric", "--steps", "30", "-o", str(short)])
        == 0
    )
    assert main(["simulate", "--theta", PI4, *SYMMETRIC, "--steps", "30", "-o", str(explicit)]) == 0
    _, short_rows = read_csv(short)
    _, explicit_rows = read_csv(explicit)
    assert len(short_rows) == len(explicit_rows)
    for (x1, p1), (x2, p2) in zip(short_rows, explicit_rows):
        # the explicit pair is renormalised, shifting the last ulp
        assert x1 == x2 and p1 == pytest.approx(p2, abs=1e-15)
    # shorthand conflicts with an explicit pair
    assert (
        main(
            ["simulate", "--theta", PI4, "--spin", "symmetric", *SYMMETRIC, "--steps", "3", "-o", str(short)]
        )
        == 2
    )


def test_simulate_zero_steps_single_row(tmp_path):
    out = tmp_path / "sim0.csv"
    assert main(["simulate", "--theta", PI4, "--steps", "0", "-o", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


def test_simulate_every_emits_time_column(tmp_path):
    out = tmp_path / "surface.csv"
    assert (
        main(
            ["simulate", "--theta", PI4, "--steps", "9", "--every", "3", "-o", str(out)]
        )
        == 0
    )
    header, rows = read_csv(out)
    assert any("columns: t,x,p" in line for line in header)
    times = sorted({int(r[0]) for r in rows})
    assert times == [0, 3, 6, 9]
    for t in times:
        mass = sum(r[2] for r in rows if r[0] == t)
        assert abs(mass - 1.0) <= 1e-10


def test_three_coin_subcommand_accepts_phased_coin_parameters(tmp_path):
    out = tmp_path / "three.csv"
    coins = [
        f"0,0,0,{2 * math.pi / 5}",
        f"0,0,0,{math.pi / 3}",
        f"0,0,0,{math.pi / 4}",
    ]
    args = ["three-coin", "--steps", "99", "-o", str(out)]
    for coin in coins:
        args.extend(["--coin", coin])
    assert main(args) == 0
    _, rows = read_csv(out)
    assert abs(sum(r[1] for r in rows) - 1.0) <= 1e-10


def test_three_coin_needs_exactly_three_coins(tmp_path):
    code = main(
        ["three-coin", "--coin", "0,0,0,1.0", "--steps", "9", "-o", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_density_headers_record_support(tmp_path, gap_model):
    out = tmp_path / "dens.csv"
    theta = repr(2 * math.pi / 5)
    assert main(["density", "--theta", theta, "--grid", "200", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    support_line = next(line for line in header if "support" in line)
    assert support_line.count(",") == 3
    lo, hi = support_intervals(gap_model).positive
    xs = np.array([r[0] for r in rows])
    fs = np.array([r[1] for r in rows])
    in_gap = np.abs(xs) < lo - 1e-9
    beyond = np.abs(xs) > hi + 1e-9
    assert np.all(fs[in_gap] == 0.0)
    assert np.all(fs[beyond] == 0.0)
    assert np.all(fs[(np.abs(xs) > lo + 1e-9) & (np.abs(xs) < hi - 1e-9)] > 0.0)


def test_density_symmetric_file_for_symmetric_spin(tmp_path):
    out = tmp_path / "dens.csv"
    assert main(["density", "--theta", PI4, *SYMMETRIC, "-o", str(out)]) == 0
    _, rows = read_csv(out)
    for (x, f), (mx, mf) in zip(rows, reversed(rows)):
        assert mx == pytest.approx(-x, abs=1e-12)
        assert mf == pytest.approx(f, abs=1e-12)


def test_density_general_zero_phases_matches_rotation_values(tmp_path):
    rot = tmp_path / "rot.csv"
    gen = tmp_path / "gen.csv"
    assert main(["density", "--theta", PI4, "-o", str(rot)]) == 0
    assert main(["density", "--coin", f"0,0,0,{PI4}", "-o", str(gen)]) == 0
    _, rot_rows = read_csv(rot)
    _, gen_rows = read_csv(gen)
    assert rot_rows == gen_rows


@pytest.mark.parametrize("grid", [2, 400])
@pytest.mark.parametrize(
    "model",
    [
        ["--theta", repr(2 * math.pi / 5)],  # gapped
        ["--theta", PI4, "--alpha=0.6,0", "--beta=0,0.8"],  # gapless
        ["--coin", "0.3,-1.1,0.7,1.0", "--alpha=0.28,-0.96", "--beta=0,0"],
    ],
)
def test_density_rows_match_pointwise_limit_density(tmp_path, model, grid):
    """The array-wide table equals the point-by-point one, bit for bit."""
    out = tmp_path / "dens.csv"
    assert main(["density", *model, "--grid", str(grid), "-o", str(out)]) == 0
    header, rows = read_csv(out)
    config = {k: json.loads(v) for k, v in (h[2:].split("=", 1) for h in header if "=" in h)}
    coin = general_coin(*config["coin"]) if "coin" in config else rotation_coin(config["theta"])
    spin = InitialSpin(complex(*config["alpha"]), complex(*config["beta"]))
    law = LimitModel(coin, spin)
    bounds = [-1.0, *support_intervals(law).endpoint_values().tolist(), 1.0]
    expected = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        length = hi - lo
        if length <= 2.0 * ENDPOINT_EXCLUSION:
            continue
        count = max(1, round(grid * length / 2.0))
        for i in range(count):
            x = lo + length * (i + 0.5) / count
            expected.append([x, limit_density(law, x)])
    assert rows == expected


def test_compare_report_structure(tmp_path):
    out = tmp_path / "report.json"
    assert main(["compare", "--theta", PI4, "--steps", "99", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = doc["report"]
    assert report["time"] == 99
    assert report["ks_distance"] <= 0.05
    assert report["gap_mass"] == "no-gap"
    assert [r for r, _ in report["moment_errors"]] == [0, 1, 2, 3, 4]
    assert "timings" in report
    assert doc["config"]["subcommand"] == "compare"


def test_compare_gap_model_reports_number(tmp_path):
    out = tmp_path / "report.json"
    theta = repr(2 * math.pi / 5)
    assert main(["compare", "--theta", theta, "--steps", "99", "-o", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert isinstance(report["gap_mass"], float)


def test_sweep_rows_cover_all_angles(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        main(["sweep", "--theta-sweep", "0.4:2.7:4", "--steps", "9", "-o", str(out)])
        == 0
    )
    header, rows = read_csv(out)
    assert any("columns: theta,x,p" in line for line in header)
    thetas = sorted({r[0] for r in rows})
    assert len(thetas) == 4
    assert thetas[0] == pytest.approx(0.4)
    assert thetas[-1] == pytest.approx(2.7)
    for theta in thetas:
        assert abs(sum(r[2] for r in rows if r[0] == theta) - 1.0) <= 1e-10


def test_simulate_rows_equal_sweep_rows_at_the_same_angle(tmp_path):
    # One walk at T = 600, read by simulate and by the sweep's first angle.
    sim, swp = tmp_path / "sim.csv", tmp_path / "sweep.csv"
    assert main(["simulate", "--theta", "0.7", "--steps", "600", "-o", str(sim)]) == 0
    sweep = ["sweep", "--theta-sweep", "0.7:1.7:2", "--steps", "600", "-o", str(swp)]
    assert main(sweep) == 0

    def data(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    first = [row.split(",", 1) for row in data(swp)]
    expected = [xp for theta, xp in first if float(theta) == 0.7]
    assert len(expected) == 601 and data(sim) == expected


def test_json_and_csv_round_trip_identically(tmp_path):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    coins = [f"--coin=0.3,-1.1,0.7,{t}" for t in (1.0, 0.4, 2.2)]
    surface = {"t": int, "x": int, "p": float}
    runs = [
        (["simulate", "--theta", PI4, *SYMMETRIC, "--steps", "60"], {"x": int, "p": float}),
        (["simulate", "--theta", "0.4", "--steps", "12", "--every", "5"], surface),
        (["three-coin", *coins, "--steps", "10", "--every", "3"], surface),
        (
            ["sweep", "--theta-sweep", "0.4:2.7:4", "--steps", "9"],
            {"theta": float, "x": int, "p": float},
        ),
        (
            ["density", "--coin", "0.3,-1.1,0.7,1.0", "--alpha=0.6,0", "--beta=0,0.8"],
            {"x": float, "f": float},
        ),
    ]
    for base, columns in runs:
        assert main([*base, "-o", str(csv_path)]) == 0
        assert main([*base, "--format", "json", "-o", str(json_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert f"# columns: {','.join(columns)}" in lines
        csv_rows = [line.split(",") for line in lines if not line.startswith("#")]
        data = json.loads(json_path.read_text())["data"]
        assert data["columns"] == list(columns)
        assert len(data["rows"]) == len(csv_rows) > 0
        for json_row, csv_row in zip(data["rows"], csv_rows):
            for kind, jv, cv in zip(columns.values(), json_row, csv_row, strict=True):
                assert type(jv) is kind and kind(cv) == jv


def test_identical_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["simulate", "--theta", PI4, *SYMMETRIC, "--steps", "120"]
    assert main([*args, "-o", str(first)]) == 0
    assert main([*args, "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    dens_a = tmp_path / "da.csv"
    dens_b = tmp_path / "db.csv"
    assert main(["density", "--theta", PI4, "-o", str(dens_a)]) == 0
    assert main(["density", "--theta", PI4, "-o", str(dens_b)]) == 0
    assert dens_a.read_bytes() == dens_b.read_bytes()


def test_forbidden_angle_exit_code(tmp_path):
    assert main(["simulate", "--theta", "0", "--steps", "5", "-o", str(tmp_path / "x.csv")]) == 3


def test_config_conflicts_exit_code(tmp_path):
    out = str(tmp_path / "x.csv")
    # density/compare want exactly one of --theta / --coin
    assert main(["density", "--theta", PI4, "--coin", "0,0,0,1.0", "-o", out]) == 2
    assert main(["density", "-o", out]) == 2
    # malformed sweep range
    assert main(["sweep", "--theta-sweep", "2.7:0.4:5", "--steps", "3", "-o", out]) == 2
    assert main(["sweep", "--theta-sweep", "0.4:2.7:1", "--steps", "3", "-o", out]) == 2


def test_non_finite_inputs_exit_code(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--theta", "nan", "--steps", "5", "-o", out]) == 2
    assert main(["simulate", "--theta", "inf", "--steps", "5", "-o", out]) == 2
    assert (
        main(
            ["simulate", "--theta", PI4, "--alpha", "nan,0", "--beta", "0,1", "--steps", "5", "-o", out]
        )
        == 2
    )
    assert main(["density", "--coin", "0,nan,0,1.0", "-o", out]) == 2


@pytest.mark.parametrize(
    "args",
    [
        # Some Pythons' argparse store [] for a value of "--"
        ["simulate", "--theta", PI4, "--steps=--"],
        ["density", "--theta", PI4, "--format=--"],
        ["three-coin", "--coin=--", "--coin=0,0,0,1", "--coin=0,0,0,1", "--steps", "3"],
        # finite bounds whose width is not
        ["sweep", "--theta-sweep=-1e308:1e308:2", "--steps", "3"],
        # |alpha|^2 overflows
        ["simulate", "--theta", PI4, "--alpha=1e308,1e308", "--beta=0,1", "--steps", "3"],
    ],
)
def test_degenerate_values_exit_code(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    try:
        code = main([*args, "-o", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "triwalk" in err and "Traceback" not in err
    assert not out.exists()


def malformed(form):
    """``form`` with too few fields, too many, a non-number and a non-finite one."""
    sep = ":" if ":" in form else ","
    fields = form.split(sep)
    return [
        sep.join(fields[:-1]),
        sep.join([*fields, fields[-1]]),
        sep.join(["x", *fields[1:]]),
        sep.join(["nan", *fields[1:]]),
    ]


GOOD_COIN = "--coin=0.3,-1.1,0.7,1.0"
GRAMMAR = [
    *(["simulate", "--theta", PI4, f"--alpha={v}", "--beta=0,0.8", "--steps", "9"]
      for v in malformed("0.6,0")),
    *(["simulate", "--theta", PI4, "--alpha=0.6,0", f"--beta={v}", "--steps", "9"]
      for v in malformed("0,0.8")),
    *(["density", f"--coin={v}"] for v in malformed("0.3,-1.1,0.7,1.0")),
    *(["compare", f"--coin={v}", "--steps", "9"] for v in malformed("0.3,-1.1,0.7,1.0")),
    *(
        ["three-coin", GOOD_COIN, f"--coin={v}", GOOD_COIN, "--steps", "9"]
        for v in malformed("0.3,-1.1,0.7,1.0")
    ),
    *(["sweep", f"--theta-sweep={v}", "--steps", "9"] for v in malformed("0.4:2.7:5")),
    # the count is an int: 1e3 is not read as 1000
    ["sweep", "--theta-sweep=0.4:2.7:1e3", "--steps", "9"],
]


@pytest.mark.parametrize("args", GRAMMAR, ids=" ".join)
def test_malformed_field_exits_2_with_one_line(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    assert main([*args, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("triwalk: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--theta", "0"],
        ["density", "--coin=0.3,-1.1,0.7,0"],
        ["compare", "--theta", "0", "--steps", "9"],
        ["compare", "--coin=0.3,-1.1,0.7,0", "--steps", "9"],
        ["simulate", "--theta", "0", "--steps", "9"],
        ["three-coin", GOOD_COIN, "--coin=0,0,0,0", GOOD_COIN, "--steps", "9"],
    ],
    ids=" ".join,
)
def test_bad_spin_wins_over_forbidden_angle(tmp_path, capsys, args):
    # The spin is read before the coin: exit 2, not the angle's exit 3.
    out = tmp_path / "x.out"
    assert main([*args, "--alpha=0.9,0", "--beta=0.1,0", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("triwalk: spin is not normalised") and err.count("\n") == 1
    assert not out.exists()


def test_compare_at_a_tiny_angle_exits_cleanly(tmp_path):
    # Nearly trivial angle: the panel moments resolve it like any other.
    out = tmp_path / "r.json"
    assert main(["compare", "--theta", "0.0001", "--steps", "9", "-o", str(out)]) == 0
    errors = json.loads(out.read_text())["report"]["moment_errors"]
    assert [r for r, _ in errors] == list(range(5))
    assert all(math.isfinite(e) for _, e in errors)


def test_unnormalised_spin_exit_code(tmp_path):
    code = main(
        [
            "simulate",
            "--theta",
            PI4,
            "--alpha",
            "0.9,0",
            "--beta",
            "0.1,0",
            "--steps",
            "5",
            "-o",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_io_error_exit_code(tmp_path):
    code = main(
        [
            "simulate",
            "--theta",
            PI4,
            "--steps",
            "5",
            "-o",
            str(tmp_path / "missing" / "x.csv"),
        ]
    )
    assert code == 4


HUGE = str(10**20)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--theta", PI4, "--steps", str(10**15)],
        ["compare", "--theta", PI4, "--steps", str(10**15)],
        ["simulate", "--theta", PI4, "--every", "1", "--steps", str(10**15)],
        # sizes numpy refuses with ValueError rather than MemoryError
        ["simulate", "--theta", PI4, "--steps", HUGE],
        ["compare", "--theta", PI4, "--steps", HUGE],
        ["sweep", "--theta-sweep", "0.3:1:3", "--steps", HUGE],
        ["density", "--theta", PI4, "--grid", str(10**15)],
        ["density", "--theta", PI4, "--grid", HUGE],
        ["sweep", "--theta-sweep", f"0.3:1:{HUGE}", "--steps", "3"],
        # two checkpoints, so only the one evolution allocates
        ["simulate", "--theta", PI4, "--steps", str(10**17), "--every", str(10**17)],
        [
            "three-coin",
            *(f"--coin=0.3,-1.1,0.7,{t}" for t in (1.0, 0.4, 2.2)),
            "--steps",
            str(10**17),
            "--every",
            str(10**17),
        ],
    ],
)
def test_huge_steps_exit_code(tmp_path, capsys, args):
    # Each allocation is refused at once: nothing of that size is touched.
    out = tmp_path / "x.out"
    assert main([*args, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("triwalk: ") and "Traceback" not in err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "sim.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "triwalk",
            "simulate",
            "--theta",
            PI4,
            "--steps",
            "12",
            "-o",
            str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize(
    "command", [[], ["simulate"], ["density"], ["compare"], ["sweep"], ["three-coin"]]
)
def test_help_exits_zero_with_its_usage(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: triwalk", *command, "[-h]"]))
