"""Momentum-space analysis of the three-step cycle.

One period of the canonical cycle acts in Fourier space as the 2x2 unitary
``S(k) (S(k) C)^2`` with ``S(k) = diag(e^{ik}, e^{-ik})``; its two
eigenvalue branches carry group velocities whose distribution under the
eigenvector overlap weights *is* the limit law.  This module exposes:

- :func:`eigen_system`: the branches of any protocol's period block, read
  from the FFT read's SU(2) form of it (:func:`triwalk.walk._su2`);
- :func:`kspace_moment`: moments of the limit law, from the same weight
  integral on the same panels as the CDF, exact to rounding;
- :func:`limit_cdf`: the cumulative law, exact to rounding: closed-form
  level crossings of the branch velocities bound the momenta below each
  point, and one tabulated weight integral per model measures them;
- :func:`pushforward_density`: exact bin averages of the closed-form
  density, from differences of that CDF.

General-unitary coins are handled through their first-quadrant reduction:
the moduli of the coin entries give the rotation angle, and the phase
mismatch is absorbed into ``LimitModel.effective_spin``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DegenerateQuasimomentum
from .limit import LimitModel, _pointwise, support_intervals
from .walk import StepProtocol, _block, _check_order, _det_phase, _steps, _su2

__all__ = [
    "EigenSystem",
    "BinnedDensity",
    "eigen_system",
    "kspace_moment",
    "pushforward_density",
    "limit_cdf",
    "DEFAULT_CELLS",
]

DEFAULT_CELLS = 1 << 16


class _tables:
    """Trigonometric tables of the period block at an array of quasi-momenta.

    The one place the branch trigonometry is written.  ``a +- i root`` are
    the branch eigenvalues, ``b`` and ``cross`` the real components of
    their eigenvectors ``(-cross e^{2ik}, b +- root)``, ``disc = 1 - a^2``
    computed in the cancellation-free form ``b^2 + cross^2``, ``num`` the
    group-velocity numerator and ``h`` the velocities, shape
    ``(2, *k.shape)``, branch-major.  Velocities need only ``sin k``, so
    ``a`` is computed on first use.  Unpacks as ``(a, b, disc, num)``.

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
    def a(self) -> np.ndarray:
        cos_k = np.cos(self.k)
        cos_3k = cos_k * (4.0 * cos_k * cos_k - 3.0)
        return self.c * self.c * cos_3k + self.s * self.s * cos_k

    def __iter__(self):
        return iter((self.a, self.b, self.disc, self.num))


def _velocities(c: float, s: float, k: np.ndarray) -> np.ndarray:
    """Group velocities, shape ``(2, *k.shape)``, branch-major."""
    return _tables(c, s, k).h


def _folded(
    c: float, s: float, k: np.ndarray, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity ``g`` of branch 1 and folded weight ``u`` at ``k``, one
    :func:`_tables` pass.

    Branch index 0 or 1 weighs ``N / 2 -+ t``, ``N = |alpha|^2 +
    |beta|^2``, with ``t = (b D - cross Re(g e^{-2ik})) / root`` half the
    spin's Bloch vector along the branch's, ``D = (|beta|^2 - |alpha|^2) /
    2``, ``g = alpha conj(beta)``.  ``b`` and ``cross`` are odd in ``k`` and
    even about ``pi/2``, so in ``u = w_1(k) + w_0(-k) + w_1(pi - k) + w_0(k
    - pi)`` the ``b`` terms add and the phases pair into ``2 Re g cos 2k``:
    ``u = 2N + 4 (b D - cross Re(g) cos 2k) / root``.
    """
    t = _tables(c, s, k)
    up, down = abs(alpha) ** 2, abs(beta) ** 2
    cos_2k = 1.0 - 2.0 * t.sin_k * t.sin_k
    re_g = (alpha * beta.conjugate()).real
    along = t.b * (0.5 * (down - up)) - t.cross * (re_g * cos_2k)
    return t.h[1], 2.0 * (up + down) + 4.0 * along / t.root


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigen data of the period block at one quasi-momentum.

    Branch index 0 carries the eigenvalue ``exp(i phi / 2) exp(i th)``.
    ``eigenvectors[j]`` is the unit eigenvector of ``eigenvalues[j]``;
    its overall phase is a free choice, so compare only phase-invariant
    quantities.  ``velocities`` are per step.
    """

    k: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    velocities: np.ndarray


def eigen_system(protocol: StepProtocol, k: float) -> EigenSystem:
    """Eigen decomposition of ``protocol``'s period block ``B`` at ``k``.

    ``B`` is the product of one ``S(k) @ coin`` per step, later steps on
    the left, with ``S(k) = diag(exp(ik), exp(-ik))``: ``exp(ipk)``, for
    ``p`` steps, times :func:`triwalk.walk._block`.  It reads the FFT
    read's SU(2) form of the block, ``exp(i phi / 2) V``
    (:func:`triwalk.walk._su2`).  The eigenvalues are ``exp(i phi / 2)
    (cos th +- i sin th)``.  For ``s = +-sin th`` the eigenvector is
    ``(-i (Im x + s), conj y)`` if ``s Im x >= 0``, else ``(y, i (s - Im
    x))``; both have squared norm ``2 sin th (sin th + |Im x|)``, so nothing
    cancels.  ``det B`` does not depend on ``k``, and ``d tr B / dk = i
    sum_j tr(sigma_z B_j)`` over the ``p`` cyclic rotations ``B_j`` of the
    protocol's block, so ``th' = sum_j Im x_j / sin th`` and the velocities
    are ``-+th' / p`` (Grimmett, Janson & Scudo, Phys. Rev. E 69, 026119,
    2004).  Raises :class:`~triwalk.errors.DegenerateQuasimomentum` where
    ``sin th <= 1e-9``, as the branches meet, and ``ValueError`` for ``k``
    outside ``[-pi, pi]``.
    """
    if not -math.pi <= k <= math.pi:
        raise ValueError("quasi-momentum must lie in [-pi, pi]")
    steps, phi, p = _steps(protocol), _det_phase(protocol), protocol.period
    w, r_p = np.array([cmath.exp(-2j * k)]), cmath.exp(1j * p * k)
    reads = [_su2(_block(steps[j:] + steps[:j], w), phi, np.array([r_p])) for j in range(p)]
    z, im_x, y = (x.item() for x in reads[0])
    sin = z.imag
    if sin <= 1e-9:
        raise DegenerateQuasimomentum(f"the branches meet at k = {k!r}; stay away from it")
    vectors = [
        (-1j * (im_x + s), y.conjugate()) if s * im_x >= 0.0 else (y, 1j * (s - im_x))
        for s in (sin, -sin)
    ]
    speed = sum(read[1].item() for read in reads) / (sin * p)
    return EigenSystem(
        k=float(k),
        eigenvalues=cmath.rect(1.0, 0.5 * phi) * np.array([z, z.conjugate()]),
        eigenvectors=np.array(vectors) / math.sqrt(2.0 * sin * (sin + abs(im_x))),
        velocities=np.array([-speed, speed]),
    )


def kspace_moment(model: LimitModel, r: int) -> float:
    """``r``-th moment of the limit law, by quadrature over quasi-momentum.

    Reads the nine moments (orders 0..8, like the empirical moments) that
    the model's CDF table computes on its own Gauss-Legendre panels (see
    :class:`_LimitCdf`), so every order of a model costs one table build.
    The panels are graded around the one sharp turn of the weights, so the
    rule is exact to rounding at every angle ``LimitModel`` accepts.
    """
    return float(_table(model).moments[_check_order(r)])


@dataclass(frozen=True, eq=False)
class BinnedDensity:
    """Bin-averaged density on uniform bins over ``(-1, 1)``."""

    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        # from the span, not edges[1] - edges[0], which carries linspace's rounding
        edges = self.bin_edges
        return float((edges[-1] - edges[0]) / (edges.size - 1))

    def total_mass(self) -> float:
        return float(np.sum(self.density) * self.bin_width)


def pushforward_density(
    model: LimitModel, bins: int, *, cells: int = DEFAULT_CELLS
) -> BinnedDensity:
    """Exact bin averages of the limit density, from the momentum-space CDF.

    An independent oracle for the closed-form density: it never touches the
    real-space formulas, only group velocities and overlap weights.  Each
    bin's density is :func:`limit_cdf`'s difference across it over its
    width.  ``cells`` (an even integer, at least 16) changes nothing.
    """
    _check_cells(cells)
    if bins < 100:
        raise ValueError("need at least 100 bins for a meaningful estimate")
    edges = np.linspace(-1.0, 1.0, bins + 1)
    cdf = _table(model)(edges)
    return BinnedDensity(bin_edges=edges, density=np.diff(cdf) / (2.0 / bins))


# 8-point Gauss-Legendre nodes and weights on ``[-1, 1]`` (Golub & Welsch,
# Math. Comp. 23, 1969): the exact float64 values of
# ``np.polynomial.legendre.leggauss(8)``, frozen so a table build touches no
# LAPACK.  The map from values at the nodes to the integral of their
# interpolant is derived from the nodes alone (:func:`_integral_map`).
_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362,
])
_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706,
])


def _integral_map(nodes: list[float]) -> np.ndarray:
    """The ``(n + 1, n)`` map from values at ``n`` nodes to the monomial
    coefficients in ``t``, highest first, of the integral from -1 to ``t``
    of their interpolant: column ``j`` integrates node ``j``'s Lagrange
    basis polynomial.  Built in Python floats, within 5e-15 of the correctly
    rounded map of ``_NODES``; a build through numpy's ``poly`` costs
    ~0.5 MB more resident memory at import."""
    n = len(nodes)
    columns = []
    for j, node in enumerate(nodes):
        poly, scale = [1.0], 1.0
        for other in nodes[:j] + nodes[j + 1 :]:
            poly = [a - other * b for a, b in zip(poly + [0.0], [0.0] + poly)]
            scale *= node - other
        integral = [c / scale / (n - i) for i, c in enumerate(poly)]
        # the constant term: p(-1), p the polynomial of ``integral``, is
        # minus the antiderivative t p(t) at -1; Horner at -1
        const = 0.0
        for c in integral:
            const = c - const
        columns.append(integral + [const])
    return np.array(list(zip(*columns)))


_INTEGRAL = _integral_map(_NODES.tolist())


# Table panels per unit of the graded coordinate asinh((k - k0) / width): 8
# already agree with 4x as many to 5e-14, 16 to rounding.
_PANELS_PER_UNIT = 16


class _LimitCdf:
    """Exact limit CDF of one model, from closed-form level crossings.

    By :class:`_tables`, on ``0 < k < pi`` branch 1 moves at ``g(y)`` and
    branch 0 at ``-g(y)``, with ``y = sin^2 k``; on ``-pi < k < 0`` the
    signs swap.  ``g`` falls strictly in ``y``, from ``hull`` to ``low``, so
    the momenta moving at most ``x`` are ``y >= y*(x)`` on the ``+g`` pieces
    and ``y <= y*(-x)`` on the ``-g`` ones, ``y*`` a root of a quadratic.
    The ``+g`` pieces fold onto ``[0, pi/2]`` as ``u(k) = w_1(k) + w_0(-k)
    + w_1(pi - k) + w_0(k - pi)``, one closed form in ``k`` (:func:`_folded`),
    the ``-g`` ones as ``4N - u`` with ``N = |alpha|^2 + |beta|^2``.  With
    ``Phi(kappa) = (1/2pi) int_0^kappa u`` and ``kappa(x) = arcsin
    sqrt(y*(x))``:

        F(x) = Phi(pi/2) - Phi(kappa(x)) + 2N kappa(-x) / pi - Phi(kappa(-x)).

    ``u`` is analytic but for a turn of width about ``c s`` at ``k0 = arcsin
    sqrt((1 + 2c^2) / (4c^2))`` when ``2c^2 > 1``.  ``Phi`` is tabulated on
    panels of equal width in ``asinh((k - k0) / width)``, ``width = c s``
    (``k0 = pi/2``, ``width = 1`` without a turn), as the exact integral of
    the interpolant of its rate at 8 Gauss-Legendre nodes per panel.  The
    same nodes give the moments ``m_r = (1/2pi) int_0^{pi/2} [g^r u +
    (-g)^r (4N - u)] dk``, orders 0..8, as ``moments``: ``4N g^r`` at even
    ``r``, ``(2u - 4N) g^r`` at odd, from one table of running products
    ``g^r`` weighted by parity.
    Each panel's nodes are summed first, then the panels, pairwise: a flat
    sum over all nodes, or a running one over the panels, moves the moments
    by up to 1.5e-15 at small angles.
    """

    def __init__(self, model: LimitModel) -> None:
        c, s, (alpha, beta) = model.a_abs, model.b_abs, model.effective_spin
        c2 = c * c
        self.c2, self.s = c2, s
        self.low, self.hull = support_intervals(model).positive
        self.norm = abs(alpha) ** 2 + abs(beta) ** 2
        if 2.0 * c2 > 1.0:
            self.k0 = math.asin(math.sqrt((1.0 + 2.0 * c2) / (4.0 * c2)))
            self.width = c * s
        else:
            self.k0, self.width = 0.5 * math.pi, 1.0
        self.xi0 = math.asinh(-self.k0 / self.width)
        span = math.asinh((0.5 * math.pi - self.k0) / self.width) - self.xi0
        self.panels = math.ceil(_PANELS_PER_UNIT * span)
        self.step = span / self.panels
        xi = self.xi0 + self.step * (
            np.arange(self.panels)[:, None] + 0.5 * (_NODES + 1.0)
        )
        g, u = _folded(c, s, self.k0 + self.width * np.sinh(xi), alpha, beta)
        # dk/dt / 2pi on each panel, t in [-1, 1] its local coordinate
        jac = self.width * np.cosh(xi) * (self.step / (4.0 * math.pi))
        rate = u * jac  # dPhi/dt
        # g^r, a running product as in np.vander, but order-major
        powers = np.empty((9, *g.shape))
        powers[0], powers[1:] = 1.0, g
        np.multiply.accumulate(powers, out=powers)
        powers[::2] *= 4.0 * self.norm * jac
        powers[1::2] *= (2.0 * u - 4.0 * self.norm) * jac
        # each panel's nodes, then the panels, pairwise
        self.moments = np.sum(powers @ _WEIGHTS, axis=1)
        self.coef = rate @ _INTEGRAL.T
        start = np.cumsum(rate @ _WEIGHTS)
        self.coef[1:, -1] += start[:-1]
        self.total = float(start[-1])

    def phi(self, kappa: np.ndarray) -> np.ndarray:
        """``Phi`` at angles in ``[0, pi/2]``."""
        xi = (np.arcsinh((kappa - self.k0) / self.width) - self.xi0) / self.step
        i = np.minimum(xi.astype(np.intp), self.panels - 1)
        t = 2.0 * (xi - i) - 1.0
        coef = np.take(self.coef, i, axis=0)
        out = coef[:, 0].copy()
        for j in range(1, coef.shape[1]):
            out *= t
            out += coef[:, j]
        return out

    def crossings(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``kappa(a)`` and ``kappa(-a)`` for ``0 <= a < hull``.

        ``y*`` and ``1 - y*`` are each formed without cancellation, their
        zeros carried by ``hull - a`` and ``low - a``, so support endpoints
        map to ``kappa = 0`` or ``pi/2`` exactly; ``kappa = atan2(sqrt(y*),
        sqrt(1 - y*))`` stays accurate near ``pi/2``, where arcsin would not.
        """
        c2, s, low = self.c2, self.s, self.low
        sq = a * a
        one = 1.0 - sq
        # a R, with R = 2s sqrt(s^2 + 9c^2 (1 - a^2)) from the quadratic
        ar = a * (2.0 * s * np.sqrt(s * s + 9.0 * c2 * one))
        # 12c^2 (1 - a^2) y*(-a) = B + a R, and y*(a) has the factor hull^2 - a^2
        m = 1.0 + 8.0 * c2
        b = m - 3.0 * (1.0 + 2.0 * c2) * sq + ar
        y_up = 3.0 * m * (self.hull - a) * (self.hull + a) / (4.0 * c2 * b)
        den = 12.0 * c2 * one
        y_down = b / den
        # 12c^2 (1 - a^2) (1 - y*(+-a)) = A +- a R, whose product is
        # 9 (1 - a^2) (low^2 - a^2): the factor without a zero on (0, hull)
        # is formed directly, the other from the product.  At low = 0 both
        # vanish at a = 0, where 1 - y* is 0 on both sides.
        sign = 1.0 if low <= 0.0 else -1.0
        direct = 3.0 * (1.0 - 2.0 * c2) * sq - 3.0 * low + sign * ar
        other = np.divide(
            3.0 * (low - a) * (low + a),
            4.0 * c2 * direct,
            out=np.zeros_like(a),
            where=direct != 0.0,
        )
        direct /= den
        q_up, q_down = (direct, other) if sign > 0.0 else (other, direct)
        y = np.concatenate((y_up, y_down))
        q = np.concatenate((q_up, q_down))
        kappa = np.arctan2(np.sqrt(y), np.sqrt(np.fmax(q, 0.0)))
        return kappa[: a.size], kappa[a.size :]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """CDF at a flat float array; exactly 0 and 1 at and beyond the hull, NaN at NaN.

        The crossings and ``Phi`` depend on ``|x|`` alone.  So an input that
        is its own mirror image, ``x == -x[::-1]`` like the rescaled
        positions of a walk, is read on its second half only, and each
        ``|x|`` gives both signs, bit for bit as a read of every point.
        """
        out = np.where(x < 0.0, 0.0, 1.0)
        half = x.size // 2
        mirrored = half > 0 and np.array_equal(x, -x[::-1])
        right = x[half:] if mirrored else x
        inside = np.flatnonzero(np.abs(right) < self.hull)
        if inside.size:
            xs = right[inside]
            up, down = self.crossings(np.abs(xs))
            phi = self.phi(np.concatenate((up, down)))
            below = self.total - phi[: xs.size] - phi[xs.size :]
            scale = 2.0 * self.norm / math.pi
            if mirrored:
                # the mirror point -xs is negative where xs is positive
                cdf = below + scale * np.where(xs > 0.0, up, down)
                out[x.size - 1 - half - inside] = np.clip(cdf, 0.0, 1.0)
                inside += half
            cdf = below + scale * np.where(xs < 0.0, up, down)
            out[inside] = np.clip(cdf, 0.0, 1.0)
        out[np.isnan(x)] = np.nan
        return out


# One table per model; it goes with the model.
_CACHE: "WeakKeyDictionary[LimitModel, _LimitCdf]" = WeakKeyDictionary()


def _table(model: LimitModel) -> _LimitCdf:
    table = _CACHE.get(model)
    if table is None:
        table = _CACHE[model] = _LimitCdf(model)
    return table


def _check_cells(cells: int) -> None:
    cells = operator.index(cells)
    if cells < 16 or cells % 2:
        raise ValueError("cells must be an even number, at least 16")


@_pointwise
def limit_cdf(model: LimitModel, x, *, refine: bool = True) -> float | np.ndarray:
    """Cumulative limit law ``P(limit <= x)``, evaluated in momentum space.

    The mass below ``x`` is the overlap-weighted measure of quasi-momenta
    whose branch velocity does not exceed ``x``.  The velocity is monotone
    in ``sin^2 k`` on each half of the momentum circle, so that set ends at
    closed-form level crossings, and the weight integral up to them is read
    from one table per model (:class:`_LimitCdf`).  The result is exact to
    rounding: within 1e-10 of a quadrature of the closed-form density, at
    the support endpoints too, and it stays accurate where the real-space
    density diverges.  At and beyond the hull of :func:`support_intervals`
    it is exactly 0 or 1; NaN points give NaN.  Points that mirror
    themselves, ``x == -x[::-1]`` like a walk's rescaled positions, are read
    once per ``|x|``, with the same bits as a read of each point.
    ``refine`` is accepted and ignored: there is one CDF.
    """
    return _table(model)(x)
