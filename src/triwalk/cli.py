"""Command-line interface: simulate walks, tabulate the limit law, compare.

Subcommands
-----------
simulate    evolve a walk and write its position distribution
density     tabulate the closed-form limit density on a grid
compare     evolve, then report distances to the limit law (JSON)
sweep       distributions at a fixed time across a range of coin angles
three-coin  simulate with three general coins, one per step of the cycle

Data files are deterministic: identical configuration yields byte-identical
output.  CSV files carry ``#``-prefixed header lines; JSON files are a
single document ``{"config": ..., "data": ...}`` (or ``"report"`` for
``compare``, whose timings are the one intentionally non-reproducible
field).  Every table's text comes from ``triwalk._cells``: a CSV value is
written byte for byte as ``%d`` (int columns) or ``%.17g`` (float columns,
which round-trip) writes it, and a JSON table is what ``json.dump(...,
indent=1)`` writes for its rows.  Angles are radians.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from collections.abc import Iterator

import numpy as np

from ._cells import write_table
from .analysis import compare_distribution
from .coins import CoinOperator, general_coin, rotation_coin
from .errors import WalkError
from .limit import ENDPOINT_EXCLUSION, LimitModel, limit_density, support_intervals
from .walk import (
    InitialSpin,
    _distributions,
    canonical_protocol,
    distribution,
    evolve,
    symmetric_spin,
    three_coin_protocol,
    three_period_protocol,
)

SPIN_PARSE_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Invalid command-line configuration (exit code 2)."""


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _fields(text: str, sep: str, form: str, name: str) -> list:
    """The ``sep``-separated fields of ``text``, one per field of ``form``:
    an ``int`` for a field named ``n``, a finite float for any other.

    ``name`` is the option the text came from, for the error message.
    """
    fields, parts = form.split(sep), text.split(sep)
    if len(parts) != len(fields):
        raise ConfigError(f"{name}: expected {form!r}, got {text!r}")
    try:
        return [
            int(part) if field == "n" else _finite(float(part), name)
            for field, part in zip(fields, parts)
        ]
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from None


def _count(value: int, least: int, what: str) -> int:
    """``value`` as a step, grid or angle count of at least ``least``.

    Counts above ``sys.maxsize // 64`` are refused before anything is
    allocated: a walk step takes 64 bytes, so numpy would refuse such a walk
    with a ``ValueError`` rather than a ``MemoryError``, and no grid or
    sweep that large fits in memory either.
    """
    if value < least:
        raise ConfigError(f"{what} must be at least {least}")
    if value > sys.maxsize // 64:
        raise ConfigError(f"{what} {value} is too large to allocate")
    return value


def _resolve_spin(args) -> InitialSpin:
    if getattr(args, "spin", None) == "symmetric":
        if args.alpha is not None or args.beta is not None:
            raise ConfigError("give either --spin symmetric or --alpha/--beta")
        return symmetric_spin()
    if args.alpha is None and args.beta is None:
        return symmetric_spin()
    if args.alpha is None or args.beta is None:
        raise ConfigError("--alpha and --beta must be given together")
    alpha = complex(*_fields(args.alpha, ",", "re,im", "--alpha"))
    beta = complex(*_fields(args.beta, ",", "re,im", "--beta"))
    try:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # components near the float limit
        norm = math.inf
    if not math.isfinite(norm) or abs(norm - 1.0) > SPIN_PARSE_TOLERANCE:
        raise ConfigError(
            f"spin is not normalised: |alpha|^2+|beta|^2 = {norm!r}"
        )
    scale = math.sqrt(norm)
    return InitialSpin(alpha / scale, beta / scale)


def _spin_config(spin: InitialSpin) -> dict:
    return {
        "alpha": [spin.alpha.real, spin.alpha.imag],
        "beta": [spin.beta.real, spin.beta.imag],
    }


def _resolve_walk(args) -> tuple[InitialSpin, list[CoinOperator], dict]:
    """The spin and the coins of ``--theta`` or ``--coin`` (three for
    ``three-coin``, else one), with their config entries, the coin's first.

    The spin is read first, so a bad spin exits 2 even beside a forbidden
    angle, and every ``--coin`` is parsed before any coin is built.
    """
    spin = _resolve_spin(args)
    theta, coin = getattr(args, "theta", None), getattr(args, "coin", None)
    form = "gamma,delta,xi,theta"
    if isinstance(coin, list):  # three-coin's repeated --coin
        if len(coin) != 3:
            raise ConfigError("three-coin needs exactly three --coin options")
        params = [_fields(c, ",", form, "--coin") for c in coin]
        coins, coin_cfg = [general_coin(*p) for p in params], {"coins": params}
    elif (theta is None) == (coin is None):
        if "coin" not in args:  # simulate
            raise ConfigError("--theta is required")
        raise ConfigError("give exactly one of --theta or --coin")
    elif theta is not None:
        coins, coin_cfg = [rotation_coin(_finite(theta, "--theta"))], {"theta": theta}
    else:
        params = _fields(coin, ",", form, "--coin")
        coins, coin_cfg = [general_coin(*params)], {"coin": params}
    return spin, coins, {**coin_cfg, **_spin_config(spin)}


@contextlib.contextmanager
def _output(path: str | None) -> Iterator:
    """stdout for ``None`` or ``-``, else ``path`` opened for writing and
    closed on the way out."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _emit_table(args, command: str, config: dict, names: list[str], columns) -> int:
    """Write numpy ``columns`` as the CSV or JSON table of ``command``, as
    :func:`triwalk._cells.write_table` writes it."""
    with _output(args.output) as handle:
        write_table(handle, args.format, command, config, names, columns)
    return EXIT_OK


def _dist_columns(dists, keys=None) -> list[np.ndarray]:
    """The ``x, p`` columns of ``dists`` stacked in order, led by a column
    repeating ``keys[i]`` on every row of ``dists[i]`` when ``keys`` is given."""
    columns = [
        np.concatenate([d.positions for d in dists]),
        np.concatenate([d.probabilities for d in dists]),
    ]
    if keys is not None:
        sizes = [d.positions.size for d in dists]
        columns.insert(0, np.repeat(np.asarray(keys), sizes))
    return columns


def _checkpoints(steps: int, every: int | None) -> list[int]:
    """Times to write: every ``every`` steps and the last, or the last alone."""
    if every is None:
        return [steps]
    points = list(range(0, steps + 1, every))
    if points[-1] != steps:
        points.append(steps)
    return points


def cmd_simulate(args) -> int:
    _count(args.steps, 0, "--steps")
    if args.every is not None and args.every < 1:
        raise ConfigError("--every must be positive")
    spin, coins, walk_cfg = _resolve_walk(args)
    protocol = three_coin_protocol(*coins) if len(coins) == 3 else canonical_protocol(*coins)
    config = {
        "subcommand": "simulate",
        **walk_cfg,
        "steps": args.steps,
        "every": args.every,
        "format": args.format,
    }
    times = _checkpoints(args.steps, args.every)
    keys = None if args.every is None else times
    columns = _dist_columns(_distributions(spin, protocol, times), keys)
    names = ["x", "p"] if keys is None else ["t", "x", "p"]
    return _emit_table(args, "simulate", config, names, columns)


def _density_rows(model: LimitModel, endpoints, grid: int) -> list[np.ndarray]:
    """``x, f`` columns on midpoint grids per region between the support
    ``endpoints``, over (-1, 1).

    Points are strictly inside each region, so the density is evaluated
    away from its endpoint singularities; regions off the support emit
    explicit zero rows.
    """
    boundaries = [-1.0, *endpoints.tolist(), 1.0]
    xs = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        length = hi - lo
        if length <= 2.0 * ENDPOINT_EXCLUSION:
            continue
        count = max(1, round(grid * length / 2.0))
        xs.append(lo + length * (np.arange(count) + 0.5) / count)
    x = np.concatenate(xs)
    return [x, limit_density(model, x)]


def cmd_density(args) -> int:
    _count(args.grid, 2, "--grid")
    spin, (coin,), walk_cfg = _resolve_walk(args)
    model = LimitModel(coin, spin)
    endpoints = support_intervals(model).endpoint_values()
    config = {
        "subcommand": "density",
        **walk_cfg,
        "grid": args.grid,
        "format": args.format,
        "support": list(endpoints),
    }
    columns = _density_rows(model, endpoints, args.grid)
    return _emit_table(args, "density", config, ["x", "f"], columns)


def cmd_compare(args) -> int:
    _count(args.steps, 3, "--steps")
    spin, (coin,), walk_cfg = _resolve_walk(args)
    model = LimitModel(coin, spin)
    config = {"subcommand": "compare", **walk_cfg, "steps": args.steps}
    protocol = canonical_protocol(model.coin)
    t0 = time.perf_counter()
    state = evolve(model.spin, protocol, args.steps)
    t_evolve = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = compare_distribution(model, distribution(state), args.steps)
    t_analyse = time.perf_counter() - t0
    payload = {
        "time": report.time,
        "coin": report.coin_label,
        "spin": _spin_config(model.spin),
        "ks_distance": report.ks_distance,
        "moment_errors": [[r, e] for r, e in report.moment_errors],
        "gap_mass": report.gap_mass if report.gap_mass is not None else "no-gap",
        "mirror_asymmetry": report.mirror_asymmetry,
        "timings": {"evolve_s": t_evolve, "analysis_s": t_analyse},
    }
    with _output(args.output) as handle:
        json.dump({"config": config, "report": payload}, handle, indent=1)
        handle.write("\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    lo, hi, count = _fields(args.theta_sweep, ":", "lo:hi:n", "--theta-sweep")
    _finite(hi - lo, "sweep width")
    if not hi > lo:
        raise ConfigError("sweep range must have hi > lo")
    _count(count, 2, "sweep angle count")
    _count(args.steps, 0, "--steps")
    spin = _resolve_spin(args)
    thetas = lo + (hi - lo) * np.arange(count) / (count - 1)
    config = {
        "subcommand": "sweep",
        "theta_sweep": [lo, hi, count],
        **_spin_config(spin),
        "steps": args.steps,
        "format": args.format,
    }
    columns = _dist_columns(
        [_distributions(spin, three_period_protocol(t), [args.steps])[0] for t in thetas.tolist()],
        thetas,
    )
    return _emit_table(args, "sweep", config, ["theta", "x", "p"], columns)


def _add_spin_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", help="initial spin-0 amplitude, e.g. --alpha=-0.6,0")
    parser.add_argument("--beta", help="initial spin-1 amplitude, e.g. --beta=-0.8,0")
    parser.add_argument(
        "--spin",
        choices=["symmetric"],
        help="shorthand: 'symmetric' is (1/sqrt(2), i/sqrt(2)), the default",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwalk",
        description=(
            "Two-state quantum walk on the line under a periodic coin "
            "sequence, with its closed-form long-time law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a walk and write (x, p) rows")
    sim.add_argument("--theta", type=float, help="rotation-coin angle (radians)")
    sim.add_argument("--steps", type=int, required=True, help="number of steps")
    sim.add_argument(
        "--every",
        type=int,
        help="also write intermediate times every N steps as (t, x, p) rows",
    )
    _add_spin_options(sim)
    _add_output_options(sim)
    sim.set_defaults(func=cmd_simulate)

    three = sub.add_parser("three-coin", help="simulate with three general coins")
    three.add_argument(
        "--coin",
        action="append",
        required=True,
        help="general coin as 'gamma,delta,xi,theta'; give exactly three",
    )
    three.add_argument("--steps", type=int, required=True)
    three.add_argument("--every", type=int)
    _add_spin_options(three)
    _add_output_options(three)
    three.set_defaults(func=cmd_simulate)

    dens = sub.add_parser("density", help="tabulate the limit density as (x, f) rows")
    dens.add_argument("--theta", type=float, help="rotation-coin angle (radians)")
    dens.add_argument("--coin", help="general coin as 'gamma,delta,xi,theta'")
    dens.add_argument(
        "--grid", type=int, default=400, help="approximate number of grid rows"
    )
    _add_spin_options(dens)
    _add_output_options(dens)
    dens.set_defaults(func=cmd_density)

    comp = sub.add_parser(
        "compare", help="evolve and report distances to the limit law (JSON)"
    )
    comp.add_argument("--theta", type=float, help="rotation-coin angle (radians)")
    comp.add_argument("--coin", help="general coin as 'gamma,delta,xi,theta'")
    comp.add_argument("--steps", type=int, required=True)
    _add_spin_options(comp)
    comp.add_argument("--output", "-o", help="output path (default: stdout)")
    comp.set_defaults(func=cmd_compare)

    swp = sub.add_parser(
        "sweep", help="distributions at fixed time across a range of angles"
    )
    swp.add_argument(
        "--theta-sweep", required=True, help="angles as 'lo:hi:n' (n inclusive points)"
    )
    swp.add_argument("--steps", type=int, required=True)
    _add_spin_options(swp)
    _add_output_options(swp)
    swp.set_defaults(func=cmd_sweep)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv):
    """``parse_args``, refusing the empty list some Pythons store for ``--opt=--``."""
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list) and (not value or [] in value):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it as
    it was, and each ``parse_args`` call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parse_args(_parser(), argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"triwalk: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. a --steps too large to allocate
        detail = str(exc) or "allocation failed"
        print(f"triwalk: out of memory: {detail}", file=sys.stderr)
        return EXIT_CONFIG
    except (WalkError, ArithmeticError) as exc:
        print(f"triwalk: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"triwalk: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
