"""Workloads of the triwalk benchmark: generator, units and correctness checks.

Each workload turns a seed into plain parameters (``generate``), builds the
program's inputs from them (``build``, timed as set-up), runs a fixed batch
of units through triwalk's public API (``units``, timed) and checks every
unit's output afterwards (``check``, untimed).  The program only ever sees
the generated inputs.  Calls go through module attributes (``tw.evolve``,
``tw.cli.main``) so that the tracer's rebinding reaches them.

Why these three (the layer shares are from traced runs on a 2-core x86 VM):

- ``convergence``: KS, gap mass, mirror asymmetry and moment errors along a
  time ladder for a gapped and a gapless rotation coin.  ``walk.evolve``
  (O(T^2) stepping) dominates; the k-space reference moments are computed
  once per model, as ``moment_report`` does.  Exercises evolution.
- ``angle-scan``: one ``compare_walk`` at T=297 per fresh model, alternating
  rotation and general coins.  Every unit is a cold model, so
  ``kspace_moment`` quadrature dominates and evolution is about 1%.
  Exercises momentum-space quadrature, bypasses evolution.
- ``tables``: CLI density tables, refined CDF points, pushforward
  histograms, a stepped ``--every`` surface and one angle sweep.
  Pointwise and per-step work plus file writing; no moment quadrature and
  no large-T evolution.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import triwalk as tw
import triwalk.cli  # noqa: F401  (binds tw.cli)

HALF_PI = 0.5 * math.pi
# Generated angles keep this distance (radians) from every multiple of pi/2.
ANGLE_MARGIN = 0.1

# Tolerances, none looser than the test suite's for the same quantity.
ZEROTH_MOMENT_TOL = 1e-10  # tests/test_kspace.py: kspace_moment(model, 0)
HULL_CDF_TOL = 1e-8  # tests/test_kspace.py: limit_cdf at the support hull
REFINED_BASE_TOL = 1e-4  # tests/test_kspace.py: refined vs base CDF
NORM_TOL = 1e-10  # criterion 2: WalkState.validate
EDGE_SKIP = 0.02  # criterion 4: bins this close to an endpoint are skipped
PUSHFORWARD_ABS, PUSHFORWARD_REL = 1e-3, 0.02  # criterion 4 tolerance
PUSHFORWARD_MIN_BINS = 200  # criterion 4: bins that must be checked

# Per-batch counts the checks take from the CLI's output files.
COUNTERS = ("cli.rows_written", "cli.bytes_written")

# Threads for the CLI sweep (TRIWALK_SWEEP_WORKERS): the CLI's default of one.
# With more, the sweep's evolutions wait on each other for the interpreter
# lock, and their traced self times overlap and overcount.
SWEEP_WORKERS = 1


@dataclass(frozen=True)
class Sizes:
    ladder: tuple[int, ...]
    r_max: int
    scan_models: int
    scan_time: int
    table_models: int
    density_grid: int
    cdf_points: int
    bins: int
    sim_steps: int
    sim_every: int
    sweep: str
    sweep_steps: int


FULL = Sizes(
    ladder=tuple(747 * k for k in range(1, 9)),
    r_max=4,
    scan_models=4,
    scan_time=297,
    table_models=4,
    density_grid=400,
    cdf_points=100,
    bins=2000,
    sim_steps=600,
    sim_every=10,
    sweep="0.3:1.4:24",
    sweep_steps=600,
)

SMOKE = Sizes(
    ladder=(30, 60),
    r_max=4,
    scan_models=2,
    scan_time=30,
    table_models=2,
    density_grid=100,
    cdf_points=10,
    bins=400,
    sim_steps=30,
    sim_every=10,
    sweep="0.3:1.4:3",
    sweep_steps=30,
)


@dataclass(frozen=True)
class ModelSpec:
    """One generated model: coin angle, optional phases, initial spin."""

    theta: float
    phases: tuple[float, float, float] | None  # (gamma, delta, xi) of a general coin
    alpha: complex
    beta: complex

    def model(self) -> tw.LimitModel:
        if self.phases is None:
            coin = tw.rotation_coin(self.theta)
        else:
            coin = tw.general_coin(*self.phases, self.theta)
        return tw.LimitModel(coin, tw.InitialSpin(self.alpha, self.beta))

    def coin_args(self) -> list[str]:
        if self.phases is None:
            return ["--theta", repr(self.theta)]
        return ["--coin=" + ",".join(repr(v) for v in (*self.phases, self.theta))]

    def spin_args(self) -> list[str]:
        # "--name=value": argparse would take a value like "-0.5,0.1" for an option
        return [
            f"--alpha={self.alpha.real!r},{self.alpha.imag!r}",
            f"--beta={self.beta.real!r},{self.beta.imag!r}",
        ]


def _phase(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _spec(rng: random.Random, theta: float, general: bool) -> ModelSpec:
    phases = (_phase(rng), _phase(rng), _phase(rng)) if general else None
    mix = rng.uniform(0.0, HALF_PI)
    alpha = math.cos(mix) * cmath.exp(1j * _phase(rng))
    beta = math.sin(mix) * cmath.exp(1j * _phase(rng))
    return ModelSpec(theta, phases, alpha, beta)


def _stratified_angles(rng: random.Random, n: int) -> list[float]:
    """Angles in random quadrants whose reduced angle ``arccos|cos theta|``
    falls in the i-th of ``n`` equal strata of ``(margin, pi/2 - margin)``.

    The cost of density tables and refined CDFs depends on the reduced
    angle; one model per stratum keeps a batch's cost, and its first unit's,
    from hinging on the seed.
    """
    width = (HALF_PI - 2.0 * ANGLE_MARGIN) / n
    angles = []
    for i in range(n):
        reduced = ANGLE_MARGIN + (i + rng.random()) * width
        quadrant = rng.randrange(4)
        angles.append(
            quadrant * HALF_PI + (reduced if quadrant % 2 == 0 else HALF_PI - reduced)
        )
    return angles


def generate(workload: str, seed: int, sizes: Sizes) -> list[ModelSpec]:
    """The workload's models as plain parameters; equal seeds give equal specs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "convergence":
        # one gapped (theta in (pi/3, pi/2)) and one gapless (theta in (0, pi/3))
        gapped = rng.uniform(math.pi / 3, HALF_PI - ANGLE_MARGIN)
        gapless = rng.uniform(ANGLE_MARGIN, math.pi / 3)
        return [_spec(rng, gapped, False), _spec(rng, gapless, False)]
    count = sizes.scan_models if workload == "angle-scan" else sizes.table_models
    return [
        _spec(rng, theta, bool(i % 2))
        for i, theta in enumerate(_stratified_angles(rng, count))
    ]


def _hull_cdf_error(model: tw.LimitModel) -> str | None:
    # Base CDF, the one ks_distance evaluates at these very points.
    lo, hi = tw.support_intervals(model).hull
    at = tw.limit_cdf(model, np.array([lo, hi]), refine=False)
    if abs(at[0]) > HULL_CDF_TOL or abs(at[1] - 1.0) > HULL_CDF_TOL:
        return f"limit_cdf at the hull ends is {at.tolist()}, expected [0, 1]"
    return None


def _zeroth_moment_error(m0: float) -> str | None:
    if abs(m0 - 1.0) > ZEROTH_MOMENT_TOL:
        return f"zeroth k-space moment is {m0!r}"
    return None


def _model_errors(model: tw.LimitModel) -> str | None:
    return _zeroth_moment_error(tw.kspace_moment(model, 0)) or _hull_cdf_error(model)


class Workload:
    """Base: ``build`` makes the inputs, ``units`` the timed callables."""

    name = ""

    def __init__(self, specs: list[ModelSpec], sizes: Sizes, outdir: Path) -> None:
        self.specs = specs
        self.sizes = sizes
        self.outdir = outdir
        self.counters = dict.fromkeys(COUNTERS, 0)

    def build(self):
        return [spec.model() for spec in self.specs]

    def units(self, inputs) -> list:
        raise NotImplementedError

    def check(self, inputs, index: int, output) -> str | None:
        raise NotImplementedError


class Convergence(Workload):
    name = "convergence"

    def build(self):
        models = super().build()
        return [(m, tw.canonical_protocol(m.coin)) for m in models]

    def units(self, inputs) -> list:
        ladder, r_max = self.sizes.ladder, self.sizes.r_max
        references: dict[int, list[float]] = {}

        def unit(which: int, t: int):
            model, protocol = inputs[which]
            if which not in references:
                references[which] = [
                    tw.kspace_moment(model, r) for r in range(r_max + 1)
                ]
            ref = references[which]
            state = tw.evolve(model.spin, protocol, t)
            dist = tw.distribution(state)
            ks = tw.ks_distance(dist, t, model)
            try:
                gap = tw.gap_mass(dist, t, model)
            except tw.NoGap:
                gap = None
            mirror = tw.mirror_asymmetry(dist)
            errors = [
                abs(tw.empirical_moment(dist, r, t) - ref[r]) for r in range(r_max + 1)
            ]
            return state, ks, gap, mirror, errors, ref[0]

        return [
            (lambda w=which, t=t: unit(w, t))
            for which in range(len(inputs))
            for t in ladder
        ]

    def check(self, inputs, index, output) -> str | None:
        which, rung = divmod(index, len(self.sizes.ladder))
        model = inputs[which][0]
        state, ks, gap, mirror, errors, m0 = output
        try:
            state.validate(NORM_TOL)
        except ValueError as exc:
            return f"walk state invalid: {exc}"
        if not 0.0 <= ks <= 1.0 or mirror < 0.0 or min(errors) < 0.0:
            return "KS, mirror asymmetry or a moment error out of range"
        has_gap = tw.support_intervals(model).gap is not None
        if (gap is not None) != has_gap or (gap is not None and gap < 0.0):
            return f"gap mass {gap!r} does not match the model (gap: {has_gap})"
        if rung == 0:
            return _zeroth_moment_error(m0) or _hull_cdf_error(model)
        return None


class AngleScan(Workload):
    name = "angle-scan"

    def units(self, inputs) -> list:
        t = self.sizes.scan_time
        return [(lambda m=m: tw.compare_walk(m, t)) for m in inputs]

    def check(self, inputs, index, output) -> str | None:
        if output.time != self.sizes.scan_time:
            return f"report is for time {output.time}"
        return _model_errors(inputs[index])


class Tables(Workload):
    name = "tables"

    def __init__(self, specs, sizes, outdir) -> None:
        super().__init__(specs, sizes, outdir)
        self._digests: dict[str, bytes] = {}
        n = sizes.cdf_points  # midpoint grid over (-1, 1)
        self.points = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)

    def build(self):
        os.environ["TRIWALK_SWEEP_WORKERS"] = str(SWEEP_WORKERS)
        s = self.sizes
        out = self.outdir
        rows = []
        for i, spec in enumerate(self.specs):
            density = [
                "density", *spec.coin_args(), *spec.spin_args(),
                "--grid", str(s.density_grid), "-o", str(out / f"density{i}.csv"),
            ]
            simulate = [
                "simulate", "--theta", repr(spec.theta), *spec.spin_args(),
                "--steps", str(s.sim_steps), "--every", str(s.sim_every),
                "-o", str(out / f"simulate{i}.csv"),
            ]
            rows.append((spec.model(), density, simulate))
        sweep = [
            "sweep", "--theta-sweep", s.sweep, "--steps", str(s.sweep_steps),
            "-o", str(out / "sweep.csv"),
        ]
        return rows, sweep

    def units(self, inputs) -> list:
        rows, sweep = inputs
        bins = self.sizes.bins

        def table(model, density, simulate):
            _cli(density)
            cdf = tw.limit_cdf(model, self.points)
            hist = tw.pushforward_density(model, bins)
            _cli(simulate)
            return cdf, hist

        units = [(lambda r=r: table(*r)) for r in rows]
        units.append(lambda: _cli(sweep))
        return units

    def check(self, inputs, index, output) -> str | None:
        rows, sweep = inputs
        if index == len(rows):
            return self._check_file(sweep[-1])
        model, density, simulate = rows[index]
        cdf, hist = output
        base = tw.limit_cdf(model, self.points, refine=False)
        gap = float(np.max(np.abs(cdf - base)))
        if gap > REFINED_BASE_TOL:
            return f"refined and base CDF differ by {gap:.3g}"
        return (
            _pushforward_error(model, hist)
            or _model_errors(model)
            or self._check_file(density[-1])
            or self._check_file(simulate[-1])
        )

    def _check_file(self, path: str) -> str | None:
        data = Path(path).read_bytes()
        rows = sum(1 for line in data.splitlines() if not line.startswith(b"#"))
        self.counters["cli.rows_written"] += rows
        self.counters["cli.bytes_written"] += len(data)
        digest = hashlib.sha256(data).digest()
        name = Path(path).name
        first = self._digests.setdefault(name, digest)
        if first != digest:
            return f"{name} differs from the same unit's output earlier in the run"
        return None


def _cli(argv: list[str]) -> None:
    try:
        code = tw.cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv by exiting
        code = exc.code
    if code != 0:
        raise RuntimeError(f"triwalk {argv[0]} exited with {code}")


def _pushforward_error(model: tw.LimitModel, hist) -> str | None:
    """Criterion 4's comparison: bin averages of the closed form vs the histogram."""
    edges = hist.bin_edges
    endpoints = tw.support_intervals(model).endpoint_values()
    lo, hi = edges[:-1], edges[1:]
    near = np.minimum(
        np.min(np.abs(lo[:, None] - endpoints), axis=1),
        np.min(np.abs(hi[:, None] - endpoints), axis=1),
    )
    keep = np.flatnonzero(near >= EDGE_SKIP)
    if keep.size <= PUSHFORWARD_MIN_BINS:
        return f"only {keep.size} pushforward bins away from the endpoints"
    offsets = (np.arange(8) + 0.5) / 8.0
    sub = lo[keep, None] + offsets * (hi - lo)[keep, None]
    average = tw.limit_density(model, sub.ravel()).reshape(sub.shape).mean(axis=1)
    tolerance = np.maximum(PUSHFORWARD_ABS, PUSHFORWARD_REL * np.abs(average))
    excess = np.abs(average - hist.density[keep]) - tolerance
    if np.max(excess) > 0.0:
        return f"pushforward misses the closed form by {np.max(excess):.3g} beyond tolerance"
    return None


WORKLOADS = {w.name: w for w in (Convergence, AngleScan, Tables)}
