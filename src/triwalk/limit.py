"""Closed-form long-time law of the three-step cycle ``[coin, coin, closing]``.

After ``t`` steps the rescaled position ``X_t / t`` of the walk converges in
distribution to a law with compact support inside ``(-1, 1)``.  Writing
``q = |a|^2`` for the squared modulus of the coin's top-left entry, the
support is the pair of open intervals

    ((1 - 4q)/3, sqrt(1 + 8q)/3)   and its mirror image,

which overlap around the origin when ``q > 1/4`` and leave a forbidden gap
around the origin when ``q < 1/4``.  On the support the density is the
symmetric envelope :func:`envelope_density` modulated by the initial-spin
weight :func:`spin_weight`:

    (1 - w(x)) f(x)  on the positive branch
  + (1 + w(-x)) f(-x) on the mirrored branch.

Everything here is a plain function of a :class:`LimitModel`, which bundles
the coin with the initial spin and caches the derived quantities.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coins import CoinOperator
from .errors import DegenerateCoin, EndpointSingularity, OutsideSupportHull
from .walk import InitialSpin

__all__ = [
    "LimitModel",
    "SupportIntervals",
    "support_intervals",
    "radicand",
    "spin_weight",
    "envelope_density",
    "limit_density",
    "ENDPOINT_EXCLUSION",
]

# Density evaluation refuses points closer than this to a support endpoint.
ENDPOINT_EXCLUSION = 1e-12

# Radicand values in [-_CLAMP, 0) are treated as roundoff and clamped to 0;
# anything more negative raises.
_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class LimitModel:
    """Coin plus initial spin, with the derived quantities of the limit law.

    ``a_abs``/``b_abs`` are the moduli of the coin's first-row entries
    (``a_abs^2 + b_abs^2 = 1``).  ``effective_spin`` is the phase-adjusted
    spin pair that the momentum-space route pairs with the first-quadrant
    reduced coin; for rotation coins with angle in (0, pi/2) it equals the
    initial spin unchanged.
    """

    coin: CoinOperator
    spin: InitialSpin
    a_abs: float = field(init=False)
    b_abs: float = field(init=False)
    effective_spin: tuple[complex, complex] = field(init=False)

    def __post_init__(self) -> None:
        m = self.coin.matrix
        if min(abs(complex(e)) for e in m.ravel()) <= 1e-12:
            raise DegenerateCoin(
                "limit law requires every coin entry to be nonzero"
            )
        a, b = complex(m[0, 0]), complex(m[0, 1])
        a_abs, b_abs = abs(a), abs(b)
        # Unitarity guarantees a_abs^2 + b_abs^2 = 1; keep a hard check so the
        # support formulas below cannot silently run outside their domain.
        if abs(a_abs**2 + b_abs**2 - 1.0) > 1e-12:
            raise DegenerateCoin("coin rows are not normalised")
        xi = 0.5 * (cmath.phase(a) - cmath.phase(b))
        phase = cmath.exp(1j * xi)
        object.__setattr__(self, "a_abs", a_abs)
        object.__setattr__(self, "b_abs", b_abs)
        object.__setattr__(
            self,
            "effective_spin",
            (self.spin.alpha * phase, self.spin.beta / phase),
        )


@dataclass(frozen=True)
class SupportIntervals:
    """The two open intervals carrying the limit law, ``negative = -positive``."""

    positive: tuple[float, float]
    negative: tuple[float, float]

    @property
    def hull(self) -> tuple[float, float]:
        """Smallest closed interval containing both branches."""
        return (self.negative[0], self.positive[1])

    @property
    def gap(self) -> tuple[float, float] | None:
        """Open interval around the origin with zero limit mass, if any."""
        lo = self.positive[0]
        if lo <= 0.0:
            return None
        return (-lo, lo)

    def endpoint_values(self) -> np.ndarray:
        """The four endpoint abscissas, sorted ascending."""
        lo, hi = self.positive
        return np.sort(np.array([lo, hi, -lo, -hi]))


def support_intervals(model: LimitModel) -> SupportIntervals:
    """Support of the limit law: ``((1-4q)/3, sqrt(1+8q)/3)`` and its mirror."""
    q = model.a_abs**2
    lo = (1.0 - 4.0 * q) / 3.0
    hi = math.sqrt(1.0 + 8.0 * q) / 3.0
    return SupportIntervals(positive=(lo, hi), negative=(-hi, -lo))


def _pointwise(fn):
    """``fn(model, x, **kw)`` on a flat float array, read at any array-like
    ``x``: a float at a scalar, else an array of ``x``'s shape."""

    @functools.wraps(fn)
    def read(model, x, **kwargs):
        arr = np.asarray(x, dtype=np.float64)
        out = fn(model, arr.ravel(), **kwargs)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return read


@_pointwise
def radicand(model: LimitModel, x) -> float | np.ndarray:
    """Common square-root argument ``1 + 8q - 9q x^2`` of the limit formulas.

    Strictly positive on the closed support hull.  Roundoff-negative values
    are clamped to zero; values below ``-1e-9`` mean the point is outside
    the reach of the formulas and raise :class:`OutsideSupportHull`.
    """
    q = model.a_abs**2
    d = 1.0 + 8.0 * q - 9.0 * q * x**2
    if np.any(d < -1e-9):
        raise OutsideSupportHull(
            "point lies beyond the reach of the limit-law formulas"
        )
    return np.where(d < 0.0, 0.0, d)


@_pointwise
def spin_weight(model: LimitModel, x) -> float | np.ndarray:
    """Initial-spin correction weight multiplying the symmetric envelope.

    Vanishes identically when ``|alpha| = |beta|`` and the cross term
    ``Re(a alpha conj(b beta))`` is zero - for rotation coins that is the
    symmetric spin ``(1/sqrt(2), i/sqrt(2))``.  Nonlinear in ``x`` through
    the shared radicand.
    """
    return _spin_weight(model, x, np.sqrt(radicand(model, x)))


def _spin_weight(model: LimitModel, x: np.ndarray, root_d: np.ndarray) -> np.ndarray:
    """:func:`spin_weight` at flat ``x``, given ``sqrt(radicand(model, x))``."""
    a, b = model.coin.a, model.coin.b
    alpha, beta = model.spin.alpha, model.spin.beta
    q = model.a_abs**2
    denom = 1.0 + 8.0 * q
    delta = abs(alpha) ** 2 - abs(beta) ** 2
    cross = (a * alpha * (b * beta).conjugate()).real
    slope = (9.0 * q**2 * delta + 3.0 * (1.0 + 6.0 * q) * cross) / (q * denom)
    curve = (q * model.b_abs**2 * delta - (1.0 + 2.0 * q) * cross) / (
        q * model.b_abs * denom
    )
    return slope * x + curve * root_d


def _safe_sqrt(values: np.ndarray, what: str) -> np.ndarray:
    if np.any(values < -_CLAMP):
        raise OutsideSupportHull(f"{what} is negative away from roundoff")
    return np.sqrt(np.where(values < 0.0, 0.0, values))


@_pointwise
def envelope_density(model: LimitModel, x) -> float | np.ndarray:
    """Spin-independent density envelope on the positive support branch.

    The full law evaluates this at ``x`` and ``-x`` and weights the two
    branches with :func:`spin_weight`.  Diverges like an inverse square
    root at the branch endpoints, hence the endpoint exclusion.
    """
    lo, hi = support_intervals(model).positive
    if np.any((x < lo) | (x > hi)):
        raise OutsideSupportHull("envelope density requested outside its branch")
    if np.any(np.minimum(np.abs(x - lo), np.abs(x - hi)) <= ENDPOINT_EXCLUSION):
        raise EndpointSingularity(
            "density diverges at the support endpoints; evaluate further inside"
        )
    return _envelope_density(model, x, np.sqrt(radicand(model, x)))


def _envelope_density(model: LimitModel, x: np.ndarray, root_d: np.ndarray) -> np.ndarray:
    """:func:`envelope_density` at flat ``x`` inside its branch."""
    q = model.a_abs**2
    b = model.b_abs
    w_plus = -(1.0 - 4.0 * q) + 3.0 * (1.0 - 2.0 * q) * x**2 + 2.0 * b * x * root_d
    w_minus = (1.0 + 8.0 * q) - 3.0 * (1.0 + 2.0 * q) * x**2 - 2.0 * b * x * root_d
    return (
        b
        * (b * x + root_d) ** 2
        / (
            math.pi
            * (1.0 - x**2)
            * _safe_sqrt(w_plus, "branch weight (+)")
            * _safe_sqrt(w_minus, "branch weight (-)")
            * root_d
        )
    )


@_pointwise
def limit_density(model: LimitModel, x) -> float | np.ndarray:
    """Limit density of the rescaled position; zero off the support, NaN at NaN.

    Raises :class:`EndpointSingularity` within ``1e-12`` of any of the four
    support endpoints, where the density diverges.
    """
    intervals = support_intervals(model)
    endpoints = intervals.endpoint_values()
    if np.any(np.min(np.abs(x[:, None] - endpoints[None, :]), axis=1) <= ENDPOINT_EXCLUSION):
        raise EndpointSingularity(
            "density diverges at the support endpoints; evaluate further inside"
        )
    lo, hi = intervals.positive
    out = np.where(np.isnan(x), np.nan, 0.0)
    for sign in (1.0, -1.0):  # each branch forms its radicand once
        on = (sign * x > lo) & (sign * x < hi)
        if np.any(on):
            xs = sign * x[on]
            root_d = np.sqrt(radicand(model, xs))
            weight = 1.0 - sign * _spin_weight(model, xs, root_d)
            out[on] += weight * _envelope_density(model, xs, root_d)
    return out
