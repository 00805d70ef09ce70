"""Convergence diagnostics: finite-time walk versus the limit law.

The headline metric is the Kolmogorov-Smirnov distance between the
empirical CDF of the rescaled position and the limit CDF (the limit
statement is about CDFs, and total variation against a continuous density
is ill-defined for a lattice distribution).  Also provided: mass inside
the forbidden gap, mirror asymmetry, and moment-error sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoGap
from .kspace import kspace_moment, limit_cdf
from .limit import LimitModel, support_intervals
from .walk import (
    PositionDistribution,
    _check_order,
    _check_scale,
    _check_steps,
    _distributions,
    _moment_terms,
    canonical_protocol,
    distribution,
    evolve,
)

__all__ = [
    "ComparisonReport",
    "MomentErrors",
    "ks_distance",
    "gap_mass",
    "mirror_asymmetry",
    "moment_report",
    "compare_distribution",
    "compare_walk",
    "offphase_compare",
    "GAP_MARGIN",
]

# Rescaled margin kept between the gap edge and the mass window, so finite-time
# leakage across the sharp analytic boundary is not counted.
GAP_MARGIN = 0.01


def ks_distance(dist: PositionDistribution, scale: float, model: LimitModel) -> float:
    """KS distance between the rescaled position ``X/scale`` and the limit law.

    Exact to rounding: :func:`~triwalk.kspace.limit_cdf` is.  The step CDF
    ``C`` of ``X/scale`` is read against the limit CDF ``F`` from both
    sides of every atom: ``C`` after each atom, and the one before it, ``0``
    before the first.  Between atoms ``F`` is nondecreasing, so on each flat
    piece of ``C`` the distance is largest at the piece's ends, which those
    two one-sided reads already take: no point between atoms, and no
    support endpoint, can raise the supremum (Durbin, *Distribution Theory
    for Tests Based on the Sample Distribution Function*, SIAM 1973).
    Rounding keeps this, as ``fl(C - F)`` is monotone in ``F``.  Only past
    the last atom can a point add ``|1 - C_last|``, a rounding residue, and
    at ``scale = t`` the last atom is ``1``, past every endpoint.
    """
    reference = limit_cdf(model, dist.positions / _check_scale(scale))
    cum = np.cumsum(dist.probabilities)
    upper = np.max(np.abs(cum - reference))
    lower = np.max(np.abs(cum[:-1] - reference[1:]), initial=abs(reference[0]))
    return float(max(upper, lower))


def gap_mass(dist: PositionDistribution, scale: float, model: LimitModel) -> float:
    """Probability the rescaled walker sits inside the forbidden gap.

    Counts mass at ``|x/scale| <= gap_edge - GAP_MARGIN``.  Raises
    :class:`NoGap` when the support has no gap around the origin.
    """
    scale = _check_scale(scale)
    gap = support_intervals(model).gap
    if gap is None:
        raise NoGap("support branches overlap at the origin; there is no gap")
    cut = gap[1] - GAP_MARGIN
    y = np.abs(dist.positions / scale)
    return float(np.sum(dist.probabilities[y <= cut]))


def mirror_asymmetry(dist: PositionDistribution) -> float:
    """KS distance between a lattice distribution and its mirror image.

    Both CDFs are read at every position and its mirror image.  When the
    positions are their own mirror image, as those of :func:`distribution`
    are, position ``i`` of ``n`` mirrors to position ``n - 1 - i``, so the
    reads are by index: ``P(X <= x_i)`` is ``cum[i + 1]`` and
    ``P(-X <= x_i) = 1 - P(X < -x_i)`` is ``1 - cum[n - 1 - i]``.  Other
    positions are read over their union with their mirror image, by
    binary search.
    """
    pos = dist.positions
    cum = np.concatenate(([0.0], np.cumsum(dist.probabilities)))
    if np.array_equal(pos, -pos[::-1]):
        forward, mirrored = cum[1:], 1.0 - cum[-2::-1]
    else:
        points = np.union1d(pos, -pos)
        forward = cum[np.searchsorted(pos, points, side="right")]
        mirrored = 1.0 - cum[np.searchsorted(pos, -points, side="left")]
    return float(np.max(np.abs(forward - mirrored)))


def _moment_errors(
    dist: PositionDistribution, reference: list[float], scale: float
) -> tuple[tuple[int, float], ...]:
    """``(r, |m_r - reference[r]|)`` for each order ``r`` of ``reference``,
    ``m_r`` the moment of ``dist`` rescaled by ``scale``."""
    terms = _moment_terms(dist, len(reference) - 1, scale)
    return tuple(
        (r, abs(float(np.sum(term)) - m))
        for r, (term, m) in enumerate(zip(terms, reference))
    )


@dataclass(frozen=True)
class MomentErrors:
    """Absolute moment errors |empirical - limit| at one walk time."""

    time: int
    errors: tuple[tuple[int, float], ...]


def moment_report(
    model: LimitModel, times: Sequence[int], r_max: int = 4
) -> list[MomentErrors]:
    """Moment-error sweep over walk times (headline check uses multiples of 3).

    Every distinct time is read in one walk pass, in increasing order;
    the reports come in the order of ``times``.
    """
    r_max = _check_order(r_max)
    reference = [kspace_moment(model, r) for r in range(r_max + 1)]
    times = [_check_steps(t, 1, "time") for t in times]
    if not times:
        return []
    protocol = canonical_protocol(model.coin)
    dists = {
        d.t: d for d in _distributions(model.spin, protocol, sorted(set(times)))
    }
    return [MomentErrors(t, _moment_errors(dists[t], reference, t)) for t in times]


@dataclass(frozen=True)
class ComparisonReport:
    """Distances between one finite-time distribution and the limit law."""

    time: int
    coin_label: str
    spin: tuple[complex, complex]
    ks_distance: float
    moment_errors: tuple[tuple[int, float], ...]
    gap_mass: float | None
    mirror_asymmetry: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")
        if any(err < 0.0 for _, err in self.moment_errors):
            raise ValueError("moment errors must be nonnegative")
        if self.gap_mass is not None and self.gap_mass < 0.0:
            raise ValueError("gap mass must be nonnegative")
        if self.mirror_asymmetry < 0.0:
            raise ValueError("mirror asymmetry must be nonnegative")


def compare_distribution(
    model: LimitModel,
    dist: PositionDistribution,
    scale: float,
    *,
    r_max: int = 4,
) -> ComparisonReport:
    """Full comparison of one distribution against the limit law of ``model``."""
    r_max = _check_order(r_max)
    ks = ks_distance(dist, scale, model)
    reference = [kspace_moment(model, r) for r in range(r_max + 1)]
    moments = _moment_errors(dist, reference, scale)
    try:
        gap = gap_mass(dist, scale, model)
    except NoGap:
        gap = None
    return ComparisonReport(
        time=dist.t,
        coin_label=model.coin.label(),
        spin=(model.spin.alpha, model.spin.beta),
        ks_distance=ks,
        moment_errors=moments,
        gap_mass=gap,
        mirror_asymmetry=mirror_asymmetry(dist),
    )


def compare_walk(model: LimitModel, time: int, *, r_max: int = 4) -> ComparisonReport:
    """Evolve the canonical cycle to ``time >= 1`` and compare against the limit law."""
    r_max = _check_order(r_max)
    time = _check_steps(time, 1, "time")
    dist = distribution(evolve(model.spin, canonical_protocol(model.coin), time))
    return compare_distribution(model, dist, time, r_max=r_max)


def offphase_compare(
    model: LimitModel, t: int, *, r_max: int = 4
) -> tuple[ComparisonReport, ComparisonReport]:
    """Compare the walk at times ``3t+1`` and ``3t+2`` against the same limit law.

    The limit law is derived at times that are multiples of three, but the
    intermediate times behave indistinguishably at this resolution; both
    reports use the unmodified law.
    """
    r_max = _check_order(r_max)
    _check_steps(t, 1, "t")
    protocol = canonical_protocol(model.coin)
    dists = _distributions(model.spin, protocol, [3 * t + 1, 3 * t + 2])
    return tuple(compare_distribution(model, d, d.t, r_max=r_max) for d in dists)
