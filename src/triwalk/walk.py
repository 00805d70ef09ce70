"""State-vector evolution of a two-state quantum walk on the integer line.

The wavefunction at time ``t`` is a pair of complex amplitude arrays over
the positions ``-t .. t`` (a spinor per site; column ``i`` of
``WalkState.amplitudes`` is the spinor at position ``i - t``).  One step
applies a coin to every spinor and then shifts: the spin-0 amplitude moves
one site left, the spin-1 amplitude one site right.  Coins are drawn
cyclically from a :class:`StepProtocol`; the canonical instance is the
three-step cycle ``[coin, coin, identity]``.

:func:`evolve` and every multi-time read go through :func:`_walk`.  Reads
fewer than 50 steps apart on average are stepped, as :func:`step` does, in
O(T^2); sparser ones each take one inverse FFT, in O(T log T), on the
smallest 5-smooth grid of at least ``T + 1`` momenta (Ambainis, Bach, Nayak,
Vishwanath & Watrous, "One-dimensional quantum walks", STOC 2001), which
raises the period block to its power in closed form.  Up to T = 9,999 the
two agree to within 1e-13 in every amplitude, the FFT read is unitary to
rounding at every T, and both leave the odd columns exactly zero.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .coins import CoinOperator, closing_coin, rotation_coin

__all__ = [
    "InitialSpin",
    "StepProtocol",
    "WalkState",
    "PositionDistribution",
    "symmetric_spin",
    "three_period_protocol",
    "canonical_protocol",
    "three_coin_protocol",
    "apply_coin",
    "step",
    "evolve",
    "distribution",
    "empirical_moment",
]

SPIN_NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class InitialSpin:
    """Spin state ``alpha |0> + beta |1>`` placed at the origin at time 0."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not math.isfinite(norm):
            raise ValueError("spin amplitudes must be finite")
        if abs(norm - 1.0) > SPIN_NORM_TOLERANCE:
            raise ValueError(f"spin must be normalised, |alpha|^2+|beta|^2 = {norm!r}")


def symmetric_spin() -> InitialSpin:
    """The spin ``(1/sqrt(2), i/sqrt(2))`` whose walk has a symmetric limit law."""
    r = 1.0 / math.sqrt(2.0)
    return InitialSpin(complex(r, 0.0), complex(0.0, r))


@dataclass(frozen=True, eq=False)
class StepProtocol:
    """Periodic coin sequence; the coin at time ``t`` is ``coins[t % period]``."""

    coins: tuple[CoinOperator, ...]

    def __post_init__(self) -> None:
        coins = tuple(self.coins)
        if len(coins) < 1:
            raise ValueError("protocol needs at least one coin")
        if not all(isinstance(c, CoinOperator) for c in coins):
            raise TypeError("protocol entries must be CoinOperator instances")
        object.__setattr__(self, "coins", coins)

    @property
    def period(self) -> int:
        return len(self.coins)


def three_period_protocol(theta: float) -> StepProtocol:
    """:func:`canonical_protocol` of the rotation coin at ``theta``: the cycle
    ``[C, C, identity]``, as its closing coin is exactly the identity."""
    return canonical_protocol(rotation_coin(theta))


def canonical_protocol(coin: CoinOperator) -> StepProtocol:
    """``[coin, coin, closing_coin(coin)]`` - the cycle whose long-time law
    this package evaluates in closed form.

    For a rotation coin at any angle the closing coin is exactly the
    identity, so the third step is a bare shift.
    """
    return StepProtocol((coin, coin, closing_coin(coin)))


def three_coin_protocol(
    first: CoinOperator, second: CoinOperator, third: CoinOperator
) -> StepProtocol:
    """Three independent coins, applied at times ``t = 0, 1, 2 (mod 3)``."""
    return StepProtocol((first, second, third))


@dataclass(frozen=True, eq=False)
class WalkState:
    """Wavefunction at time ``t`` over the positions ``-t .. t``.

    ``amplitudes`` has shape ``(2, 2t+1)``; row 0 is the spin-0 amplitude,
    row 1 the spin-1 amplitude, and column ``i`` sits at position
    ``i - origin`` with ``origin == t``.
    """

    t: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("time must be nonnegative")
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (2, 2 * self.t + 1):
            raise ValueError(
                f"amplitudes must have shape (2, {2 * self.t + 1}), got {amp.shape}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def origin(self) -> int:
        """Column index that holds position 0."""
        return self.t

    def positions(self) -> np.ndarray:
        return np.arange(-self.t, self.t + 1)

    def spinor(self, x: int) -> np.ndarray:
        """Amplitude pair at position ``x`` (zeros outside ``-t .. t``)."""
        if abs(x) > self.t:
            return np.zeros(2, dtype=np.complex128)
        return self.amplitudes[:, x + self.origin].copy()

    def norm(self) -> float:
        amp = self.amplitudes
        return float(np.sum(amp.real**2 + amp.imag**2))

    def validate(self, norm_tol: float = 1e-10) -> None:
        """Check finiteness, normalisation, and the exact support/parity zeros."""
        amp = self.amplitudes
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm = self.norm()
        if abs(norm - 1.0) > norm_tol:
            raise ValueError(f"norm drifted to {norm!r}")
        # Positions x with x + t odd are column indices of odd parity.
        if np.any(amp[:, 1::2] != 0):
            raise ValueError("parity violated: amplitude on an odd sublattice site")


def _coin(m: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> None:
    """Apply the coin matrix ``m`` in place to the spinor rows ``(x0, x1)``."""
    x0[...], x1[...] = m[0, 0] * x0 + m[0, 1] * x1, m[1, 0] * x0 + m[1, 1] * x1


def apply_coin(state: WalkState, coin: CoinOperator) -> WalkState:
    """Apply ``coin`` to every spinor without shifting (time unchanged)."""
    if coin.is_identity():
        return state
    out = state.amplitudes.copy()
    _coin(coin.matrix, out[0], out[1])
    return WalkState(state.t, out)


def step(state: WalkState, coin: CoinOperator) -> WalkState:
    """One time step: coin on every site, then the spin-conditioned shift.

    With the identity coin the step is a pure permutation of amplitudes.
    """
    width = state.amplitudes.shape[1]
    out = np.zeros((2, width + 2), dtype=np.complex128)
    out[0, :width] = state.amplitudes[0]  # spin-0 moves x -> x - 1
    out[1, 2:] = state.amplitudes[1]  # spin-1 moves x -> x + 1
    if not coin.is_identity():
        _coin(coin.matrix, out[0, :width], out[1, 2:])
    return WalkState(state.t + 1, out)


def _stepping(
    spin: InitialSpin, protocol: StepProtocol, steps: int
) -> Iterator[np.ndarray]:
    """Yield the occupied amplitudes after each of ``0 .. steps`` steps.

    One ``(2, steps + 1)`` array is updated in place; a consumer copies
    what it keeps.  Spin-0's amplitudes never move, and spin-1's window
    moves one column left per step from the last, so after ``t`` steps the
    state is spin-0 columns ``0 .. t`` and spin-1 columns ``steps - t ..
    steps`` (column ``i`` at position ``2i - t``); step ``t`` applies its
    coin there in place, as :func:`step` does, and skips identity coins.
    """
    amp = np.zeros((2, steps + 1), dtype=np.complex128)
    amp[0, 0] = spin.alpha
    amp[1, steps] = spin.beta
    coins = [None if c.is_identity() else c.matrix for c in protocol.coins]
    yield amp
    for t in range(steps):
        m = coins[t % len(coins)]
        if m is not None:
            _coin(m, amp[0, : t + 1], amp[1, steps - t :])
        yield amp


# Reads fewer than this many steps apart on average are stepped.  For one read
# stepping and the FFT cost the same near T = 9 (~60 us, numpy 2.4, 2-vCPU
# VM), and stepping costs at most ~0.25 ms more up to here.
_FOURIER_MIN_STEPS = 50


def _roots(n: int) -> np.ndarray:
    """``r_j = exp(-i pi j / n)`` for ``j = 0 .. 2n-1``.

    Angles up to ``pi / 2`` are split into their nearest quarter turn and a
    rest of at most ``pi / 4`` (a rounded ``pi / n`` times ``j`` would err
    by a phase linear in ``j``, a shift of the walk), and only the rest goes
    through ``np.exp``; ``r_(n-j) = -conj(r_j)``, ``r_(n+j) = -r_j``.
    """
    half = n // 2 + 1
    quarter = (n - n // 2 + 1) // 2  # the first j nearer to -i than to 1
    rest = 2 * np.arange(half)
    rest[quarter:] -= n
    roots = np.empty(2 * n, dtype=np.complex128)
    roots[:half] = np.exp((-0.5j * np.pi / n) * rest)
    roots[quarter:half] *= -1j
    roots[half:n] = -roots[n - half : 0 : -1].conj()
    np.negative(roots[:n], out=roots[n:])
    return roots


def _smooth_size(n: int) -> int:
    """The smallest 5-smooth integer ``2^a 3^b 5^c`` that is at least ``n >= 1``.

    For each odd factor ``3^b 5^c`` below the best size so far, the power
    of two that lifts it to ``n`` comes from ``bit_length``.
    """
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _block(coins: list, w: np.ndarray) -> tuple:
    """``F_{n-1} ... F_0`` for steps with ``coins`` in order, as its four
    entries ``(a, b, c, d)``, each a scalar or a ``(w.size,)`` array.

    ``coins`` holds each step's coin matrix, or ``None`` for an identity
    coin, as in :func:`_stepping`.  ``w`` holds ``exp(-2ik)``; at momentum
    ``k`` a step with coin ``C`` is ``diag(1, w) @ C``,
    :func:`~triwalk.kspace.fourier_block`'s ``S(k) @ C`` times ``exp(-ik)``,
    so an identity step only multiplies ``c`` and ``d`` by ``w``.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for m in coins:
        if m is not None:
            (m00, m01), (m10, m11) = m
            a, b, c, d = (
                m00 * a + m01 * c,
                m00 * b + m01 * d,
                m10 * a + m11 * c,
                m10 * b + m11 * d,
            )
        c, d = w * c, w * d
    return a, b, c, d


def _fourier_reads(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_walk`'s reads by one inverse FFT each, in O(t log t).

    The ``t + 1`` occupied columns at time ``t`` are fixed by their
    transform at ``k_j = pi j / n`` for any ``n >= t + 1``; each read takes
    the smallest 5-smooth such ``n``, where the FFT is fast, and
    ``r = exp(-ik)`` is taken out of every step.

    The period block ``B`` of ``p`` coins (:func:`_block`) is raised to the
    ``m`` whole periods in closed form (Higham, *Functions of Matrices*,
    SIAM 2008).  With ``exp(i phi)`` the product of the coin determinants,
    ``det B = exp(i phi) r^(2p)``, so ``B = delta V`` with
    ``delta = exp(i phi / 2) r^p`` and ``V = [[x, y], [-conj(y), conj(x)]]``
    in SU(2) to rounding, ``x = cos th + i Im x``.  So ``B^m = delta^m U``,
    ``U = [[E, Y], [-conj(Y), conj(E)]]``, ``E = cos m th + i q Im x``,
    ``Y = q y``, ``q = sin m th / sin th``.  ``sin th = |(Im x, y)|`` comes
    from the traceless part, so nothing cancels, and ``exp(i m th)`` is
    ``(cos th + i sin th)^m`` by squaring, over its modulus: ``U`` is
    unitary to rounding at every ``m``, and the norm does not drift with
    ``t``.  ``delta^m`` is ``exp(i m phi / 2)``, taken into the spin, times
    ``r^(pm)``, a shift by ``pm / 2`` columns: the inverse FFT's output is
    rolled, after one factor ``r`` if ``pm`` is odd.  Leftover steps follow.
    """
    coins = [None if c.is_identity() else c.matrix for c in protocol.coins]
    period = len(coins)
    phi = cmath.phase(math.prod(c.a * c.d - c.b * c.c for c in protocol.coins))
    for t in times:
        n = _smooth_size(t + 1)
        roots = _roots(n)
        w = roots[::2]  # exp(-2ik)
        m, left = divmod(t, period)
        a, b, c, d = _block(coins, w)
        # 1 / (2 delta), from r^-p: V's entries are halved sums, exactly
        half = roots[np.arange(0, -period * n, -period) % (2 * n)]
        half *= cmath.rect(0.5, -0.5 * phi)
        im_x = ((a - d) * half).imag
        y = b * half - np.conj(c * half)
        z = (a + d) * half  # cos th in its real part
        del a, b, c, d, half  # a read at T = 10^6 holds 16 MB per (n,) array
        sin = np.sqrt(im_x**2 + np.abs(y) ** 2)
        z.imag = sin
        power = z.copy() if m else np.ones(n, dtype=np.complex128)
        for bit in bin(m)[3:]:
            power *= power
            if bit == "1":
                power *= z
        modulus = np.abs(power)
        # Where sin th = 0, so are Im x, y and sin m th: the floor reads q = 0.
        q = power.imag / (modulus * np.maximum(sin, 1e-300))
        power.real /= modulus
        np.multiply(q, im_x, out=power.imag)
        y *= q
        a, b = (cmath.rect(1.0, 0.5 * m * phi) * s for s in (spin.alpha, spin.beta))
        vec = np.multiply.outer((a, b.conjugate()), power)
        vec += np.multiply.outer((b, -a.conjugate()), y)
        np.conj(vec[1], out=vec[1])  # U (a, b), its second entry b conj(E) - a conj(Y)
        del z, sin, power, modulus, q, im_x, y
        shift, odd = divmod(period * m, 2)  # p m <= t < n
        if odd:
            vec *= roots[:n]
        if left:
            a, b, c, d = _block(coins[:left], w)
            vec[0], vec[1] = a * vec[0] + b * vec[1], c * vec[0] + d * vec[1]
        x = np.fft.ifft(vec, axis=-1)
        x = np.concatenate((x[:, n - shift :], x[:, : n - shift]), axis=-1)
        yield t, x[:, : t + 1]


def _walk(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, occupied)`` at each of the strictly increasing ``times``,
    a new ``(2, t + 1)`` array: the even columns of :class:`WalkState`.

    Reads fewer than 50 steps apart on average come from one
    :func:`_stepping` pass, bit for bit folded :func:`step` calls; sparser
    ones take one inverse FFT each (:func:`_fourier_reads`).
    """
    last = times[-1]
    if len(times) * _FOURIER_MIN_STEPS <= last:
        yield from _fourier_reads(spin, protocol, times)
        return
    wanted = set(times)
    for t, amp in enumerate(_stepping(spin, protocol, last)):
        if t in wanted:
            yield t, np.stack((amp[0, : t + 1], amp[1, last - t :]))


def _check_steps(steps: int) -> int:
    """``steps`` as an int; anything but a nonnegative integer is refused."""
    steps = operator.index(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return steps


def evolve(spin: InitialSpin, protocol: StepProtocol, steps: int) -> WalkState:
    """Run ``steps`` steps from a point mass at the origin with spin ``spin``.

    ``steps == 0`` returns the point-mass state.  The state is :func:`_walk`'s
    one read at ``steps``: stepped below 50 steps, else one inverse FFT.
    """
    steps = _check_steps(steps)
    ((_, occupied),) = _walk(spin, protocol, [steps])
    amp = np.zeros((2, 2 * steps + 1), dtype=np.complex128)
    amp[:, ::2] = occupied
    return WalkState(steps, amp)


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Measurement distribution ``p(x) = |a0(x)|^2 + |a1(x)|^2`` at time ``t``."""

    positions: np.ndarray
    probabilities: np.ndarray
    t: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        prob = np.asarray(self.probabilities, dtype=np.float64)
        if pos.shape != prob.shape or pos.ndim != 1:
            raise ValueError("positions and probabilities must be matching 1-d arrays")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(prob < 0.0):
            raise ValueError("probabilities must be nonnegative")
        _settle(self, pos, prob)


def _settle(dist: PositionDistribution, pos: np.ndarray, prob: np.ndarray) -> None:
    """Check that ``prob`` sums to 1; set both arrays, read-only, on ``dist``."""
    total = float(prob.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    pos.setflags(write=False)
    prob.setflags(write=False)
    object.__setattr__(dist, "positions", pos)
    object.__setattr__(dist, "probabilities", prob)


def _measured(t: int, occupied: np.ndarray) -> PositionDistribution:
    """The distribution of the amplitudes at ``-t, -t + 2, .., t``.  Its
    positions (an ``arange``) and probabilities (sums of squares) pass the
    constructor's other checks by construction; a drifted norm does not."""
    dist = object.__new__(PositionDistribution)
    object.__setattr__(dist, "t", t)
    prob = np.sum(occupied.real**2 + occupied.imag**2, axis=0)
    _settle(dist, np.arange(-t, t + 1, 2, dtype=np.int64), prob)
    return dist


def distribution(state: WalkState) -> PositionDistribution:
    """Measured position distribution over the even sublattice of ``state``:
    only columns of even index (positions with x + t even) are occupied."""
    return _measured(state.t, state.amplitudes[:, ::2])


def _distributions(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> list[PositionDistribution]:
    """:func:`distribution` at each of the strictly increasing ``times``."""
    return [_measured(t, occupied) for t, occupied in _walk(spin, protocol, times)]


def _check_scale(scale: float) -> float:
    """``scale`` as a float; anything not positive and finite is refused."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    return float(scale)


def _check_order(r: int) -> None:
    """Refuse a moment order outside ``0 .. 8``."""
    if not 0 <= r <= 8:
        raise ValueError("moment order must be between 0 and 8")


def _moment_terms(dist: PositionDistribution, r_max: int, scale: float) -> Iterator:
    """The terms ``p, p y, ..., p y^r_max`` of the moments of ``y = x / scale``,
    each the one before times ``y``: numpy's ``y**r`` takes a general power on
    negative ``y``, some twenty times slower at ``r >= 3``.  Orders 0 and 1
    sum to the bits of ``sum(y**r * p)``, 2..8 to within ``1e-15 sum(|y|^r p)``.
    """
    y = dist.positions / _check_scale(scale)
    term = dist.probabilities
    yield term
    for _ in range(r_max):
        term = term * y
        yield term


def empirical_moment(dist: PositionDistribution, r: int, scale: float) -> float:
    """Moment ``sum_x (x / scale)^r p(x)`` of the rescaled position.

    ``r`` is capped at 8: higher moments amplify roundoff beyond the
    tolerances this package promises.
    """
    _check_order(r)
    for term in _moment_terms(dist, r, scale):
        pass
    return float(np.sum(term))
