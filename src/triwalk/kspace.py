"""Momentum-space analysis of the three-step cycle.

One period of the canonical cycle acts in Fourier space as the 2x2 unitary
``S(k) (S(k) C)^2`` with ``S(k) = diag(e^{ik}, e^{-ik})``; its two
eigenvalue branches carry group velocities whose distribution under the
eigenvector overlap weights *is* the limit law.  This module exposes:

- :func:`eigen_system` / :func:`group_velocity`: the closed-form branches
  for a rotation-form coin;
- :func:`kspace_moment`: moments of the limit law by midpoint quadrature
  over quasi-momentum (smooth integrand, no density singularities);
- :func:`pushforward_density`: a histogram oracle for the closed-form
  density, built purely from velocities and weights;
- :func:`limit_cdf`: the cumulative law, integrated in momentum space with
  per-cell crossing refinement so it stays accurate where the real-space
  density diverges.

General-unitary coins are handled through their first-quadrant reduction:
the moduli of the coin entries give the rotation angle, and the phase
mismatch is absorbed into ``LimitModel.effective_spin``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .coins import CoinOperator
from .errors import DegenerateQuasimomentum
from .limit import LimitModel
from .walk import StepProtocol

__all__ = [
    "EigenSystem",
    "BinnedDensity",
    "fourier_block",
    "eigen_system",
    "group_velocity",
    "kspace_moment",
    "pushforward_density",
    "limit_cdf",
    "DEFAULT_CELLS",
]

DEFAULT_CELLS = 1 << 16
# The default moment grid doubles from _MIN_CELLS until two tables agree to
# _SETTLED in every order.
_MIN_CELLS = 64
_SETTLED = 1e-14

_K_GUARD = 1e-9
_EDGE_NUDGE = 1e-9
# Rounding of a computed branch velocity, measured at most 1.0e-15 for
# |c| <= 0.97: a cell range passing a level by no more is not split there.
_H_ROUNDING = 1e-15
# Refined-CDF queries per array pass; a query pairs with up to ~4e3 cells.
_QUERY_BLOCK = 256

# Branch signs: index 0 is the branch with positive imaginary eigenvalue part.
_SIGNS = (-1.0, 1.0)


def _rotation_entries(coin: CoinOperator) -> tuple[float, float]:
    m = coin.matrix
    if (
        np.abs(m.imag).max() > 1e-12
        or abs(m[0, 1] - m[1, 0]) > 1e-12
        or abs(m[0, 0] + m[1, 1]) > 1e-12
    ):
        raise ValueError(
            "momentum-space branches need a rotation-form coin [[c, s], [s, -c]]"
        )
    return float(m[0, 0].real), float(m[0, 1].real)


def _check_quasimomentum(k: float) -> None:
    if not -math.pi <= k <= math.pi:
        raise ValueError("quasi-momentum must lie in [-pi, pi]")
    if abs(k) <= _K_GUARD or math.pi - abs(k) <= _K_GUARD:
        raise DegenerateQuasimomentum(
            "branches coincide at k = 0 and k = +-pi; stay away from them"
        )


def fourier_block(protocol: StepProtocol, k: float) -> np.ndarray:
    """One full period of ``protocol`` as a 2x2 matrix at quasi-momentum ``k``.

    Each step contributes ``S(k) @ coin``; the product runs later steps on
    the left.  For the canonical cycle this is ``S (S C)^2``.
    """
    shift = np.array(
        [[np.exp(1j * k), 0.0], [0.0, np.exp(-1j * k)]], dtype=np.complex128
    )
    block = np.eye(2, dtype=np.complex128)
    for coin in protocol.coins:
        block = shift @ coin.matrix @ block
    return block


class _tables:
    """Trigonometric tables of the period block at an array of quasi-momenta.

    The one place the branch trigonometry is written.  ``a +- i root`` are
    the branch eigenvalues, ``b`` and ``cross`` the real components of
    their eigenvectors (see :func:`eigen_system`), ``disc = 1 - a^2``
    computed in the cancellation-free form ``b^2 + cross^2``, ``num`` the
    group-velocity numerator and ``h`` the velocities, shape
    ``(2, *k.shape)``, branch-major.  Velocities need only ``sin k``, so
    ``cos k`` and ``a`` are computed on first use.  Unpacks as
    ``(a, b, disc, num)``.

    Triple angles come from ``sin k`` and ``cos k``: ``sin(3.0 * k)`` would
    carry the ~1e-15 rounding of ``3.0 * k`` near ``k = +-pi``, where
    ``sin k`` itself is that small.
    """

    def __init__(self, c: float, s: float, k: np.ndarray) -> None:
        self.c, self.s, self.k = c, s, k
        c2, s2 = c * c, s * s
        self.sin_k = sin_k = np.sin(k)
        sin_3k = sin_k * (3.0 - 4.0 * sin_k * sin_k)
        self.b = c2 * sin_3k + s2 * sin_k
        self.cross = 2.0 * c * s * sin_k
        self.disc = self.b * self.b + self.cross * self.cross
        self.root = np.sqrt(self.disc)
        self.num = 3.0 * c2 * sin_3k + s2 * sin_k
        self.h = np.empty((2, *k.shape))
        np.divide(self.num, 3.0 * self.root, out=self.h[1])
        np.negative(self.h[1], out=self.h[0])

    @cached_property
    def cos_k(self) -> np.ndarray:
        return np.cos(self.k)

    @cached_property
    def a(self) -> np.ndarray:
        cos_k = self.cos_k
        cos_3k = cos_k * (4.0 * cos_k * cos_k - 3.0)
        return self.c * self.c * cos_3k + self.s * self.s * cos_k

    def __iter__(self):
        return iter((self.a, self.b, self.disc, self.num))


def _velocities(c: float, s: float, k: np.ndarray) -> np.ndarray:
    """Group velocities, shape ``(2, *k.shape)``, branch-major."""
    return _tables(c, s, k).h


def _branches(
    c: float, s: float, k: np.ndarray, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Velocities and overlap weights ``|<branch vector | spin>|^2``.

    Both have shape ``(2, *k.shape)`` and come from one :func:`_tables`
    pass, in real arithmetic.  The branch of sign ``-1`` (index 0) or
    ``+1`` (index 1) projects as ``(1 +- n.sigma) / 2``, where ``n =
    (-cross cos 2k, cross sin 2k, -b) / root`` is a unit vector, so its
    weight is ``(|alpha|^2 + |beta|^2) / 2 +- t``, with ``t`` half the
    spin's Bloch vector along ``n``.  Nothing is divided by a difference
    that cancels, and the two weights at each ``k`` sum to ``|alpha|^2 +
    |beta|^2`` within rounding.  This is the one pass that a moment table
    or a base CDF grid makes; the edge data of a refined read takes
    velocities alone, from :func:`_velocities`.
    """
    t = _tables(c, s, k)
    up, down = abs(alpha) ** 2, abs(beta) ** 2
    g = alpha * beta.conjugate()
    # Re(g e^{-2ik}) = Re g + 2 sin k (Im g cos k - Re g sin k)
    phase = g.real + 2.0 * t.sin_k * (g.imag * t.cos_k - g.real * t.sin_k)
    along = (t.b * (0.5 * (down - up)) - t.cross * phase) / t.root
    weights = np.empty((2, *k.shape))
    np.subtract(0.5 * (up + down), along, out=weights[0])
    np.add(0.5 * (up + down), along, out=weights[1])
    return t.h, weights


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigen data of the period block at one quasi-momentum.

    Branch index 0 carries the eigenvalue with positive imaginary part.
    ``eigenvectors[j]`` is the unit eigenvector of ``eigenvalues[j]``;
    its overall phase is a free choice, so compare only phase-invariant
    quantities.
    """

    k: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norms: np.ndarray
    velocities: np.ndarray


def eigen_system(coin: CoinOperator, k: float) -> EigenSystem:
    """Closed-form eigen decomposition of the period block for a rotation coin.

    Raises
    ------
    DegenerateQuasimomentum
        Within ``1e-9`` of ``k in {0, -pi, pi}`` where the branches merge.
    ValueError
        If the coin is not of rotation form, or ``k`` is out of range.
    """
    c, s = _rotation_entries(coin)
    _check_quasimomentum(k)
    t = _tables(c, s, np.array([float(k)]))
    a0, b0, cross0, root = (float(x[0]) for x in (t.a, t.b, t.cross, t.root))
    eigenvalues = np.array([a0 + 1j * root, a0 - 1j * root])
    # The second components are b +- root.  The one whose sign is opposite
    # to b's cancels, so it is written as cross^2 / (|b| + root) instead.
    u = abs(b0) + root
    q = cross0 * cross0 / u
    second = np.array([sign * (u if sign * b0 >= 0.0 else q) for sign in _SIGNS])
    norms = 2.0 * root * np.abs(second)
    v0 = -cross0 * np.exp(2j * k)
    eigenvectors = np.array([[v0, x] for x in second]) / np.sqrt(norms)[:, None]
    return EigenSystem(
        k=float(k),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        norms=norms,
        velocities=t.h[:, 0],
    )


def group_velocity(coin: CoinOperator, k: float, branch: int) -> float:
    """Group velocity of one branch; ``branch`` is 1 or 2 and ``h_1 = -h_2``."""
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    c, s = _rotation_entries(coin)
    _check_quasimomentum(k)
    return float(_velocities(c, s, np.array([float(k)]))[branch - 1, 0])


def _midpoints(cells: int) -> np.ndarray:
    dk = 2.0 * math.pi / cells
    return -math.pi + dk * (np.arange(cells) + 0.5)


def _reduced(model: LimitModel) -> tuple[float, float, complex, complex]:
    alpha, beta = model.effective_spin
    return model.a_abs, model.b_abs, alpha, beta


def _moment_table(model: LimitModel, cells: int) -> np.ndarray:
    """Moments of orders 0..8 on one midpoint grid, from one branch pass.

    A running product ``h^r w`` stands in for ``h**r * w``: one multiply per
    order instead of a power.
    """
    c, s, alpha, beta = _reduced(model)
    h, hw = _branches(c, s, _midpoints(cells), alpha, beta)
    table = np.empty(9)
    for r in range(9):
        if r:
            hw *= h
        table[r] = np.sum(hw) / cells
    return table


def kspace_moment(model: LimitModel, r: int, *, cells: int | None = None) -> float:
    """``r``-th moment of the limit law by midpoint quadrature over momentum.

    Uses open uniform grids, which never sample the degenerate points
    ``k = 0, +-pi``.  Each grid yields every order 0..8 from one branch
    pass, and its table is memoized per model and grid size, so the other
    orders then cost nothing.  ``r`` is an integer from 0 to 8, like the
    empirical moments.  The integrand is smooth and periodic, so the error
    falls exponentially with the grid size.  What each setting buys:

    - ``cells=None`` (the default) doubles the grid from 64 cells and stops
      at the first pair whose tables agree to 1e-14 in all nine orders,
      returning the finer table's entry; the stop depends on the model
      only, and that last difference is the error bound.  Angles at least
      0.1 from a multiple of pi/2 settled by 2,048 cells, and 1.5706 by
      128; 0.01 takes 16,384.
    - A model that has not settled by the pair ``(DEFAULT_CELLS,
      2 * DEFAULT_CELLS)``, such as the angle 0.001, falls back to that
      pair as below.
    - An explicit ``cells`` uses the pair ``(cells, 2 * cells)`` and returns
      the finer value, after checking that the requested order moved by at
      most 1e-8 between the two.

    Raises
    ------
    ArithmeticError
        If the 1e-8 check of the fixed pair fails.
    """
    r = operator.index(r)
    if not 0 <= r <= 8:
        raise ValueError("moment order must be between 0 and 8")
    if cells is None:
        cells = _MIN_CELLS
        coarse = _cached(_moment_table, model, cells)
        while cells < DEFAULT_CELLS:
            cells *= 2
            fine = _cached(_moment_table, model, cells)
            if np.max(np.abs(fine - coarse)) <= _SETTLED:
                return float(fine[r])
            coarse = fine
        # Not settled: cells is now DEFAULT_CELLS, the fixed pair below.
    coarse = _cached(_moment_table, model, cells)[r]
    fine = _cached(_moment_table, model, 2 * cells)[r]
    if abs(fine - coarse) > 1e-8:
        raise ArithmeticError(
            "moment quadrature refinement estimate exceeds 1e-8; raise cells"
        )
    return float(fine)


@dataclass(frozen=True, eq=False)
class BinnedDensity:
    """Histogram density estimate on uniform bins over ``(-1, 1)``."""

    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def total_mass(self) -> float:
        return float(np.sum(self.density) * self.bin_width)


def pushforward_density(
    model: LimitModel, bins: int, *, cells: int = DEFAULT_CELLS
) -> BinnedDensity:
    """Histogram of branch velocities weighted by spin overlaps.

    This is an independent numerical oracle for the closed-form density:
    it never touches the real-space formulas, only group velocities and
    eigenvector overlap weights on a fine open momentum grid.  Each grid
    cell's mass is spread over the velocity interval its edges span, so
    bin boundaries do not quantise the estimate.
    """
    if bins < 100:
        raise ValueError("need at least 100 bins for a meaningful estimate")
    grid = _cached(_CdfGrid, model, cells)
    edges = grid.edges
    lo = np.minimum(edges.h_left, edges.h_right)
    hi = np.maximum(edges.h_left, edges.h_right)
    mass = grid.cell_mass
    width = 2.0 / bins
    f_lo = (lo + 1.0) / width
    f_hi = (hi + 1.0) / width
    span = f_hi - f_lo
    out = np.zeros(bins, dtype=np.float64)
    point = span <= 0.0
    if np.any(point):
        idx = np.clip(f_lo[point].astype(np.int64), 0, bins - 1)
        np.add.at(out, idx, mass[point])
    keep = ~point
    f_lo, f_hi, mass, span = f_lo[keep], f_hi[keep], mass[keep], span[keep]
    start = np.floor(f_lo).astype(np.int64)
    reach = int(np.max(np.ceil(f_hi).astype(np.int64) - start))
    for offset in range(reach + 1):
        b = start + offset
        overlap = np.minimum(f_hi, b + 1.0) - np.maximum(f_lo, b)
        sel = overlap > 0.0
        np.add.at(
            out,
            np.clip(b[sel], 0, bins - 1),
            mass[sel] * overlap[sel] / span[sel],
        )
    return BinnedDensity(
        bin_edges=np.linspace(-1.0, 1.0, bins + 1), density=out / width
    )


_Edges = namedtuple("_Edges", "k_left k_right h_left h_right cmin cmax span")


class _CdfGrid:
    """Per-model midpoint grid of the limit law in momentum space.

    Per-cell arrays are flat and branch-major: index ``branch * cells + i``
    names one (branch, cell) pair.  Building the grid computes only what a
    base read needs: midpoint velocities, cell masses, their sort and the
    cumulative mass.  The edge data that crossing refinement and
    :func:`pushforward_density` read is built on first use, as :attr:`edges`.
    """

    def __init__(self, model: LimitModel, cells: int) -> None:
        c, s, alpha, beta = _reduced(model)
        self.c, self.s, self.alpha, self.beta = c, s, alpha, beta
        self.cells = cells
        h_mid, weights = _branches(c, s, _midpoints(cells), alpha, beta)
        weights /= cells
        self.h_mid, self.cell_mass = h_mid.ravel(), weights.ravel()
        self.order = np.argsort(self.h_mid, kind="stable")
        self.sorted_h = self.h_mid[self.order]
        self.cum_mass = np.zeros(self.cell_mass.size + 1)
        np.cumsum(self.cell_mass[self.order], out=self.cum_mass[1:])
        # Divided by its total so that the mass above the support is exactly 1.
        self.cum_mass /= self.cum_mass[-1]

    @cached_property
    def edges(self) -> _Edges:
        """Edge data from one velocity pass over the ``cells + 1`` edges.

        ``h_left``/``h_right`` are the velocities at each cell's edges
        ``k_left``/``k_right``, ``[cmin, cmax]`` each cell's velocity range
        over its edges and midpoint, and ``span`` the widest such range.
        Samples are nudged inward where the branch functions are undefined:
        ``k = -pi, 0, pi`` always land on cell edges, so 0 is sampled on
        both its sides.  Without the side below 0 the samples are the
        cells' left edges, without the side above it their right edges.
        """
        cells, half = self.cells, self.cells // 2
        k = -math.pi + (2.0 * math.pi / cells) * np.arange(cells + 1)
        k = np.insert(k, half, k[half])
        k[[0, half + 1]] += _EDGE_NUDGE
        k[[half, -1]] -= _EDGE_NUDGE
        h = _velocities(self.c, self.s, k)
        h_left = np.delete(h, half, axis=1)[:, :-1].ravel()
        h_right = np.delete(h, half + 1, axis=1)[:, 1:].ravel()
        cmin = np.minimum(np.minimum(h_left, self.h_mid), h_right)
        cmax = np.maximum(np.maximum(h_left, self.h_mid), h_right)
        k_left, k_right = np.delete(k, half)[:-1], np.delete(k, half + 1)[1:]
        span = float(np.max(cmax - cmin))
        return _Edges(k_left, k_right, h_left, h_right, cmin, cmax, span)

    def base(self, x: np.ndarray) -> np.ndarray:
        """Midpoint-classified CDF: mass of cells whose midpoint velocity < x."""
        idx = np.searchsorted(self.sorted_h, x, side="left")
        return self.cum_mass[idx]

    def refined(self, x: np.ndarray) -> np.ndarray:
        """Base CDF corrected on every cell whose velocity range reaches x.

        Each block of queries is one array pass over its (query, cell)
        pairs.  A range that passes ``x`` by at most ``_H_ROUNDING`` puts
        its cell wholly on the bulk side instead of bisecting rounding noise.
        """
        out = self.base(x)
        edges = self.edges
        # Only cells with a midpoint within one cell span of x can change.
        reach = edges.span + _H_ROUNDING
        for start in range(0, x.size, _QUERY_BLOCK):
            block = slice(start, start + _QUERY_BLOCK)
            lo = np.searchsorted(self.sorted_h, x[block] - reach)
            counts = np.searchsorted(self.sorted_h, x[block] + reach) - lo
            query, j = np.nonzero(np.arange(counts.max()) < counts[:, None])
            flat, xq = self.order[lo[query] + j], x[block][query]
            mass = self.cell_mass[flat]
            below = edges.cmax[flat] <= xq + _H_ROUNDING
            split = ~below & (edges.cmin[flat] < xq - _H_ROUNDING)
            fix = np.where(below, mass, 0.0)
            fix -= np.where(self.h_mid[flat] < xq, mass, 0.0)
            fix[split] += self._mass_below(flat[split], xq[split])
            out[block] += np.bincount(query, fix, minlength=counts.size)
        return out

    def _mass_below(self, flat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Weighted momentum measure of ``{k in cell : h(k) < x}``.

        Bisection finds the level crossing in each half cell; a half without
        one converges to its right end.  The four segments this leaves are
        integrated with the midpoint rule.
        """
        edges = self.edges
        branch, i = np.divmod(flat, self.cells)
        kl, kr = edges.k_left[i], edges.k_right[i]
        km = 0.5 * (kl + kr)
        below = np.array([h[flat] < x for h in (edges.h_left, self.h_mid, edges.h_right)])
        lo, hi = np.array([kl, km]), np.array([km, kr])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            h = _velocities(self.c, self.s, mid)
            up = (np.where(branch, h[1], h[0]) < x) == below[:2]
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        k1, k2 = 0.5 * (lo + hi)
        ends = np.array([kl, k1, km, k2, kr])
        mids = 0.5 * (ends[:-1] + ends[1:])
        _, w = _branches(self.c, self.s, mids, self.alpha, self.beta)
        seg = np.where(branch, w[1], w[0]) * np.diff(ends, axis=0) / (2.0 * math.pi)
        return np.sum(seg, axis=0, where=below[[0, 1, 1, 2]])


# Per-model derived data keyed by (builder, checked cells); entries go with the model.
_CACHE: "WeakKeyDictionary[LimitModel, dict]" = WeakKeyDictionary()


def _cached(build, model: LimitModel, cells: int):
    cells = operator.index(cells)
    if cells < 16 or cells % 2:
        raise ValueError("cells must be an even number, at least 16")
    per_model = _CACHE.setdefault(model, {})
    key = (build, cells)
    if key not in per_model:
        per_model[key] = build(model, cells)
    return per_model[key]


def limit_cdf(
    model: LimitModel,
    x,
    *,
    cells: int = DEFAULT_CELLS,
    refine: bool = True,
) -> float | np.ndarray:
    """Cumulative limit law ``P(limit <= x)``, evaluated in momentum space.

    The mass below ``x`` is the overlap-weighted measure of quasi-momenta
    whose branch velocity does not exceed ``x``.  The momentum-space
    integrand is bounded and smooth, so this stays accurate where the
    real-space density diverges.  NaN points give NaN.  Accuracy at the
    default grid, measured against a quadrature of the closed-form density:

    - ``refine=True`` resolves the velocity level crossing inside each
      straddling grid cell: within 1.2e-9, and within 1e-10 at the four
      support endpoints;
    - ``refine=False`` classifies cells by their midpoint only: about 1e-5
      (4.3e-5 at worst), and much cheaper for large batches.  This is the
      CDF that :func:`triwalk.analysis.ks_distance` evaluates, so a KS
      distance is good to about 1e-5 whatever digits it is written with.
    """
    grid = _cached(_CdfGrid, model, cells)
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    out = np.clip(grid.refined(flat) if refine else grid.base(flat), 0.0, 1.0)
    out[np.isnan(flat)] = np.nan
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
