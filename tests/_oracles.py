"""Independent oracles used by the tests.

The dense evolution here deliberately shares no code with the package: it
builds the full one-step operator on a truncated lattice as an explicit
matrix and multiplies it out, so agreement with the package's sliced
evolution is a real cross-check.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from fractions import Fraction

import numpy as np


def dense_index(x: int, spin: int, t_max: int) -> int:
    return 2 * (x + t_max) + spin


def dense_step_operator(coin_matrix: np.ndarray, t_max: int) -> np.ndarray:
    """Full (coin then shift) one-step operator on positions -t_max..t_max."""
    size = 2 * t_max + 1
    dim = 2 * size
    coin_block = np.kron(np.eye(size), np.asarray(coin_matrix, dtype=complex))
    shift = np.zeros((dim, dim), dtype=complex)
    for x in range(-t_max, t_max + 1):
        if x - 1 >= -t_max:
            shift[dense_index(x - 1, 0, t_max), dense_index(x, 0, t_max)] = 1.0
        if x + 1 <= t_max:
            shift[dense_index(x + 1, 1, t_max), dense_index(x, 1, t_max)] = 1.0
    return shift @ coin_block


def dense_evolve(
    alpha: complex,
    beta: complex,
    coin_matrices: list[np.ndarray],
    steps: int,
    t_max: int,
) -> np.ndarray:
    """Evolve a point mass at the origin; returns the dense state vector.

    ``t_max`` must be at least ``steps`` so the truncation is never felt.
    """
    assert t_max >= steps
    operators = [dense_step_operator(m, t_max) for m in coin_matrices]
    vec = np.zeros(2 * (2 * t_max + 1), dtype=complex)
    vec[dense_index(0, 0, t_max)] = alpha
    vec[dense_index(0, 1, t_max)] = beta
    for t in range(steps):
        vec = operators[t % len(operators)] @ vec
    return vec


def dense_amplitude(vec: np.ndarray, x: int, spin: int, t_max: int) -> complex:
    return complex(vec[dense_index(x, spin, t_max)])


def random_spin(rng: np.random.Generator) -> tuple[complex, complex]:
    raw = rng.normal(size=4)
    alpha = complex(raw[0], raw[1])
    beta = complex(raw[2], raw[3])
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def random_safe_angle(rng: np.random.Generator, low=0.05, margin=0.05) -> float:
    """Angle in [low, 2*pi - low] at least ``margin`` away from multiples of pi/2."""
    while True:
        theta = rng.uniform(low, 2 * np.pi - low)
        if min(abs(theta - a) for a in (0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2 * np.pi)) > margin:
            return theta


def random_protocol(rng: np.random.Generator, i: int):
    """Random protocol number ``i``, of the kind ``i % 5``: a rotation coin's
    cycle, a general coin's cycle, three coins, then periods of one and two.

    Each coin is a rotation coin or, as often, a general coin with uniform
    phases; its angle is a quarter turn plus 0.05 .. pi/2 - 0.05, clear of
    the angles where the branches meet everywhere.
    """
    from triwalk import (
        StepProtocol,
        canonical_protocol,
        general_coin,
        rotation_coin,
        three_coin_protocol,
        three_period_protocol,
    )

    def angle():
        return rng.uniform(0.05, math.pi / 2 - 0.05) + math.pi / 2 * rng.integers(4)

    def coin():
        if rng.random() < 0.5:
            return rotation_coin(angle())
        return general_coin(*rng.uniform(-math.pi, math.pi, 3), angle())

    kind = i % 5
    if kind == 0:
        return three_period_protocol(angle())
    if kind == 1:
        return canonical_protocol(general_coin(*rng.uniform(-math.pi, math.pi, 3), angle()))
    if kind == 2:
        return three_coin_protocol(coin(), coin(), coin())
    return StepProtocol(tuple(coin() for _ in range(kind - 2)))


def general_coin_matrix(gamma, delta, xi, theta) -> np.ndarray:
    """``diag(e^{i gamma}, e^{i delta}) @ R(theta) @ diag(e^{i xi}, e^{-i xi})``
    by two matmuls, the definition that ``general_coin`` builds entrywise."""
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, s], [s, -c]], dtype=complex)
    left = np.diag([cmath.exp(1j * gamma), cmath.exp(1j * delta)])
    right = np.diag([cmath.exp(1j * xi), cmath.exp(-1j * xi)])
    return left @ rotation @ right


def cdf_by_quadrature(model, points) -> np.ndarray:
    """The limit CDF at ``points``, by adaptive quadrature of the closed-form density.

    The support endpoints and the points inside the hull split the hull into
    pieces.  Each piece is mapped by ``x = mid - half * cos(phi)``, which
    cancels an inverse-square-root singularity at either end, so the mapped
    integrand is analytic in ``phi``.  The density refuses, or loses digits
    to cancellation, near a support endpoint, so the last ``phi0`` at each
    end of a piece is integrated from the cubic through the integrand at
    ``phi0, 2 phi0, 3 phi0, 4 phi0``.  ``phi0`` is at most 1e-2 and at most
    5e-3 of the mapped distance to the nearest other breakpoint or to
    ``+-1``, where the density's other singularities lie.  A point within
    1e-11 of an endpoint ``e`` adds to the value at ``e`` the mass of the
    expansion ``C / sqrt(t) + D`` of the density at distance ``t``, fitted
    at ``t = 1e-7`` and ``4e-7``.  Measured against the exact total mass 1,
    this is good to ~5e-11.
    """
    import math

    from scipy.integrate import quad

    from triwalk import limit_density, support_intervals

    points = np.asarray(points, dtype=np.float64)
    ends = support_intervals(model).endpoint_values()
    nearest = ends[np.argmin(np.abs(points[:, None] - ends), axis=1)]
    offset = points - nearest
    near = (np.abs(offset) < 1e-11) & (offset != 0.0)
    inside = points[(points > ends[0]) & (points < ends[-1]) & ~near]
    breaks = np.union1d(ends, inside)
    singular = np.union1d(breaks, [-1.0, 1.0])
    masses = [0.0]
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def mapped(phi):
            x = mid - half * math.cos(phi)
            return limit_density(model, x) * half * math.sin(phi)

        others = singular[(singular != a) & (singular != b)]
        phi0 = [
            min(1e-2, 5e-3 * math.sqrt(2.0 * np.min(np.abs(others - e)) / half))
            for e in (a, b)
        ]
        body, _ = quad(
            mapped, phi0[0], math.pi - phi0[1], epsabs=1e-13, epsrel=1e-13, limit=400
        )
        for end, sign, step in ((0.0, 1.0, phi0[0]), (math.pi, -1.0, phi0[1])):
            f = [mapped(end + sign * j * step) for j in (1, 2, 3, 4)]
            body += step * (55.0 * f[0] - 59.0 * f[1] + 37.0 * f[2] - 9.0 * f[3]) / 24.0
        masses.append(body)
    cumulative = np.cumsum(masses)
    at = np.searchsorted(breaks, np.where(near, nearest, points))
    out = cumulative[np.clip(at, 0, breaks.size - 1)]
    for i in np.flatnonzero(near):
        sign, t = math.copysign(1.0, offset[i]), np.array([1e-7, 4e-7])
        g = limit_density(model, nearest[i] + sign * t) * np.sqrt(t)
        d = (g[1] - g[0]) / (math.sqrt(t[1]) - math.sqrt(t[0]))
        c = g[0] - d * math.sqrt(t[0])
        dist = abs(offset[i])
        out[i] += sign * (2.0 * c * math.sqrt(dist) + d * dist)
    out[points >= ends[-1]] = cumulative[-1]
    out[points <= ends[0]] = 0.0
    return out


def branches(c, s, k, alpha, beta):
    """Velocities and overlap weights ``|<branch vector | spin>|^2``.

    Both have shape ``(2, *k.shape)``, branch-major, from one
    ``kspace._tables`` pass in real arithmetic.  The branch of sign ``-1``
    (index 0) or ``+1`` (index 1) projects as ``(1 +- n.sigma) / 2``, where
    ``n = (-cross cos 2k, cross sin 2k, -b) / root`` is a unit vector, so
    its weight is ``(|alpha|^2 + |beta|^2) / 2 +- t``, with ``t`` half the
    spin's Bloch vector along ``n``.  The four-fold oracle for
    ``kspace._folded``: the folded weight is the sum of these weights over
    the four folds ``k, -k, pi - k, k - pi``.
    """
    from triwalk import kspace

    t = kspace._tables(c, s, k)
    up, down = abs(alpha) ** 2, abs(beta) ** 2
    g = alpha * beta.conjugate()
    # Re(g e^{-2ik}) = Re g + 2 sin k (Im g cos k - Re g sin k)
    phase = g.real + 2.0 * t.sin_k * (g.imag * np.cos(k) - g.real * t.sin_k)
    along = (t.b * (0.5 * (down - up)) - t.cross * phase) / t.root
    weights = np.empty((2, *k.shape))
    np.subtract(0.5 * (up + down), along, out=weights[0])
    np.add(0.5 * (up + down), along, out=weights[1])
    return t.h, weights


def four_fold(c, s, k, alpha, beta):
    """Velocity on the ``+g`` fold and ``u = w_1(k) + w_0(-k) + w_1(pi - k)
    + w_0(k - pi)``, the folded weight as a sum of four branch passes."""
    import math

    h, w = branches(c, s, np.stack((k, -k, math.pi - k, k - math.pi)), alpha, beta)
    return h[1, 0], w[1, 0] + w[0, 1] + w[1, 2] + w[0, 3]


def moment_table(model, cells: int) -> np.ndarray:
    """Moments of orders 0..8 by the midpoint rule on ``cells`` momentum cells.

    The slow oracle for the panel moments: an open uniform grid over
    ``(-pi, pi)``, which never samples the degenerate points ``k = 0,
    +-pi``, and one branch pass.  The integrand is smooth and periodic, so
    the error falls exponentially with ``cells``, but a small angle needs a
    grid of about ``1 / theta`` cells and more.  A running product ``h^r w``
    stands in for ``h**r * w``.
    """
    import math

    alpha, beta = model.effective_spin
    k = -math.pi + (np.arange(cells) + 0.5) * (2.0 * math.pi / cells)
    h, hw = branches(model.a_abs, model.b_abs, k, alpha, beta)
    table = np.empty(9)
    for r in range(9):
        if r:
            hw *= h
        table[r] = np.sum(hw) / cells
    return table


def fourier_product(protocol, k: float) -> np.ndarray:
    """One period of ``protocol`` at quasi-momentum ``k``, a step at a time.

    The reference product for ``walk._block`` and ``kspace.eigen_system``:
    each step is ``S(k) @ C`` with ``S(k) = diag(e^{ik}, e^{-ik})``, one 2x2
    matmul per factor, later steps on the left.
    """
    shift = np.array([[np.exp(1j * k), 0.0], [0.0, np.exp(-1j * k)]], dtype=complex)
    block = np.eye(2, dtype=complex)
    for coin in protocol.coins:
        block = shift @ coin.matrix @ block
    return block


def integral_map(nodes) -> np.ndarray:
    """The correctly rounded ``(n + 1, n)`` map from values at the float
    ``nodes`` to the monomial coefficients, highest first, of the integral
    from -1 to ``t`` of their interpolant (``kspace._INTEGRAL``'s rule).

    Exact in rationals, lowest order first: each Lagrange basis polynomial
    is built one factor ``(t - x_m) / (x_j - x_m)`` at a time, integrated
    term by term, and given the constant that makes it vanish at -1; each
    entry is then rounded once.
    """
    xs = [Fraction(x) for x in nodes]
    columns = []
    for j, xj in enumerate(xs):
        basis = [Fraction(1)]
        for m, xm in enumerate(xs):
            if m != j:
                shifted = [Fraction(0)] + basis
                scaled = [xm * c for c in basis] + [Fraction(0)]
                basis = [(a - b) / (xj - xm) for a, b in zip(shifted, scaled)]
        integral = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(basis)]
        integral[0] = -sum(c * (-1) ** k for k, c in enumerate(integral))
        columns.append([float(c) for c in reversed(integral)])
    return np.array(columns).T


def csv_table(command: str, config: dict, names: list[str], columns) -> str:
    """The CLI's CSV file for numpy ``columns``, written one row at a time.

    The slow oracle for ``_cells.write_table``: whole columns listed, then one
    ``row % tuple`` per row, with ``%d`` for int columns and ``%.17g`` for
    every other column.
    """
    values = [column.tolist() for column in columns]
    row = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in columns) + "\n"
    lines = [f"# triwalk {command}\n"]
    lines += [f"# {key}={json.dumps(value)}\n" for key, value in config.items()]
    lines.append(f"# columns: {','.join(names)}\n")
    lines += map(row.__mod__, zip(*values))
    return "".join(lines)


def json_table(config: dict, names: list[str], columns) -> str:
    """The CLI's JSON table file for numpy ``columns``, through ``json.dump``.

    The slow oracle for ``_cells.write_table``'s JSON branch: whole columns
    listed, zipped into row lists, and the document written by
    ``json.dump(indent=1)``'s pure-Python encoder.
    """
    values = [column.tolist() for column in columns]
    rows = [list(row) for row in zip(*values)]
    out = io.StringIO()
    json.dump({"config": config, "data": {"columns": names, "rows": rows}}, out, indent=1)
    out.write("\n")
    return out.getvalue()


def _gaussian(z: complex) -> tuple[int, int]:
    """``z``, a complex with small integer parts, as a pair of Python ints."""
    re, im = int(z.real), int(z.imag)
    assert complex(re, im) == z, f"{z!r} is not a Gaussian integer"
    return re, im


def exact_walk(coins, spin, times):
    """The walk of coins with entries in Q(i), exactly, in Python ints.

    ``coins`` is one period of steps, each ``None`` for a bare shift or
    ``(m, n)`` for the coin ``m / n``: ``m`` a 2x2 nested sequence of Gaussian
    integers written as complex numbers (``4j``, ``3 - 4j``), ``n`` an int.
    ``spin`` is ``((alpha, beta), n)`` the same way.  At each of the
    increasing ``times`` it yields ``(t, re, im, den)``: the amplitudes at the
    positions ``-t, -t + 2, .., t`` are ``(re + i im) / den``, with ``re`` and
    ``im`` ``(2, t + 1)`` object arrays of ints and ``den`` the spin's ``n``
    times that of every coin step so far.

    A step applies its coin at every site, then moves spin 0 one site left
    and spin 1 one site right.  So on the occupied sites at the next time,
    spin 0 keeps its index and spin 1 moves up by one.
    """
    steps = []
    for coin in coins:
        if coin is not None:
            m, n = coin
            coin = [[_gaussian(e) for e in row] for row in m], n
        steps.append(coin)
    amplitudes, den = spin
    (a_re, a_im), (b_re, b_im) = map(_gaussian, amplitudes)
    re = np.array([[a_re], [b_re]], dtype=object)
    im = np.array([[a_im], [b_im]], dtype=object)
    t = 0
    for target in times:
        while t < target:
            coin = steps[t % len(steps)]
            if coin is not None:
                m, n = coin
                new_re, new_im = np.zeros_like(re), np.zeros_like(im)
                for row in (0, 1):
                    for col in (0, 1):
                        p, q = m[row][col]  # (p + iq)(re + i im)
                        if p:
                            new_re[row] += p * re[col]
                            new_im[row] += p * im[col]
                        if q:
                            new_re[row] -= q * im[col]
                            new_im[row] += q * re[col]
                re, im, den = new_re, new_im, den * n
            shifted = []
            for part in (re, im):
                out = np.zeros((2, t + 2), dtype=object)
                out[0, :-1], out[1, 1:] = part[0], part[1]
                shifted.append(out)
            re, im = shifted
            t += 1
        yield t, re, im, den


def _product(x, y):
    """``x @ y`` for 2x2 matrices held as row-major lists ``[a, b, c, d]`` of
    arrays or scalars."""
    return [
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    ]


def _shifted_product(coins, e):
    """``S C_(q-1) ... S C_0`` for the ``q`` coins' entry lists ``coins`` and
    ``S = diag(e, conj e)``."""
    block = [1, 0, 0, 1]
    for coin in coins:
        block = _product(coin, block)
        block = [block[0] * e, block[1] * e, block[2] * e.conj(), block[3] * e.conj()]
    return block


def _power(block, m: int):
    """``block`` to the power ``m >= 0`` by repeated squaring."""
    result = [1, 0, 0, 1]
    while m:
        if m & 1:
            result = _product(result, block)
        m >>= 1
        if m:
            block = _product(block, block)
    return result


def extended_walk(spin, protocol, T: int, *, project: bool) -> np.ndarray:
    """The walk of ``protocol`` from ``spin`` at time ``T`` in ``np.clongdouble``:
    a ``(2, T + 1)`` array over the occupied sites ``-T, -T + 2, .., T``,
    column ``i`` at position ``2i - T``, as ``walk._walk`` reads them.

    The reference against which each kernel's error law is stated (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
    ch. 24).  It shares only ``walk._smooth_size`` with the package.  Each
    site of ``-T .. T`` has its own index on ``n >= 2T + 1`` momenta ``k_j =
    2 pi j / n``, ``|k_j| <= pi``, ``n`` 5-smooth; pi is carried in long
    double, since a float64 pi would err by ~T eps in the phase of the
    farthest sites.  One period is the product of ``S(k) C`` per step,
    ``S(k) = diag(e^{ik}, e^{-ik})``, later steps on the left, from the
    coins' float entries as given; it is raised to the ``m = T // p`` whole
    periods by squaring, the leftover steps follow, and one inverse FFT
    reads every site.

    ``project=False`` walks the coins as given: the reference for stepping.
    ``project=True`` walks the period block's SU(2) projection, as the FFT
    read does: with ``exp(i phi)`` the product of the coin determinants and
    ``V = exp(-i phi / 2) B``, the block is ``exp(i phi / 2)`` times the unit
    quaternion ``[[x, y], [-conj y, conj x]] / |(x, y)|``, ``x = (V_00 +
    conj V_11) / 2``, ``y = (V_01 - conj V_10) / 2``.  The leftover steps
    take the coins as given.

    The momenta go in slices of 2^16, so the walk holds the ``(2, n)``
    spinor, 128 MB at T = 10^6, and one slice's rows.  With an 80-bit long
    double (x86-64, eps = 1.08e-19) the squaring and the momenta's rounding
    err by ~T eps each and the FFT by ~log(T) eps: ~1e-13 at T = 10^6, 1/200
    of the FFT read's error there.
    """
    from triwalk.walk import _smooth_size

    ld = np.clongdouble
    n = _smooth_size(2 * T + 1)
    m, left = divmod(T, protocol.period)
    coins = [[ld(x) for x in coin.entries] for coin in protocol.coins]
    half = np.angle(np.prod([a * d - b * c for a, b, c, d in coins])) / 2  # phi / 2
    alpha, beta = ld(spin.alpha), ld(spin.beta)
    pi = 4 * np.arctan(np.longdouble(1))
    vec = np.empty((2, n), dtype=ld)
    for lo in range(0, n, 1 << 16):
        j = np.arange(lo, min(n, lo + (1 << 16)))
        k = np.where(2 * j > n, j - n, j) * (2 * pi) / n
        e = np.empty(k.size, dtype=ld)
        e.real, e.imag = np.cos(k), np.sin(k)
        block = _shifted_product(coins, e)
        if project:
            a, b, c, d = (entry * (np.cos(half) - 1j * np.sin(half)) for entry in block)
            x, y = (a + d.conj()) / 2, (b - c.conj()) / 2
            norm = np.sqrt(x.real**2 + x.imag**2 + y.real**2 + y.imag**2)
            x, y = x / norm, y / norm
            power = _power([x, y, -y.conj(), x.conj()], m)
            power = [entry * (np.cos(m * half) + 1j * np.sin(m * half)) for entry in power]
        else:
            power = _power(block, m)
        u, v = power[0] * alpha + power[1] * beta, power[2] * alpha + power[3] * beta
        rest = _shifted_product(coins[:left], e)
        vec[0, lo : lo + k.size] = rest[0] * u + rest[1] * v
        vec[1, lo : lo + k.size] = rest[2] * u + rest[3] * v
    np.fft.ifft(vec, axis=-1, out=vec)
    return vec[:, np.arange(-T, T + 1, 2) % n]


def ks_with_points(dist, scale, cdf, points):
    """KS distance between the step CDF of ``dist.positions / scale`` and a
    continuous CDF, read at every atom from both sides and at the extra
    ``points`` (kinks of the continuous CDF, typically support endpoints):
    the endpoint-inclusive form that ``analysis.ks_distance``'s atoms-only
    read must equal.  The step CDF is built here: a cumulative sum after a
    leading 0, read at ``points`` by binary search."""
    values = dist.positions / scale
    step = np.concatenate(([0.0], np.cumsum(dist.probabilities)))
    reference = np.asarray(cdf(values), dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    at_points = step[np.searchsorted(values, pts, side="right")]
    return float(
        max(
            np.max(np.abs(step[1:] - reference)),
            np.max(np.abs(step[:-1] - reference)),
            np.max(np.abs(at_points - np.asarray(cdf(pts), dtype=np.float64))),
        )
    )
