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
Vishwanath & Watrous, "One-dimensional quantum walks", STOC 2001).  Up to
T = 9,999 the two agree to within 2e-13 in every amplitude, the FFT's norm
drifts by at most about 5e-17 per step for rotation coins (5.1e-12 at
T = 99,999) and about 1.4e-16 for a general coin, whose matrix is unitary
only to rounding, and both leave the odd columns exactly zero.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .coins import CoinOperator, closing_coin, identity_coin, rotation_coin

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
    """The canonical cycle ``[C, C, identity]`` for a rotation coin at ``theta``."""
    coin = rotation_coin(theta)
    return StepProtocol((coin, coin, identity_coin()))


def canonical_protocol(coin: CoinOperator) -> StepProtocol:
    """``[coin, coin, closing_coin(coin)]`` - the cycle whose long-time law
    this package evaluates in closed form.

    For rotation coins the closing coin is exactly the identity, so this
    coincides with :func:`three_period_protocol`.
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
    """Yield the amplitude array after each of ``0 .. steps`` steps.

    One ``(2, 2 steps + 1)`` array is updated in place; a consumer copies
    what it keeps.  Every amplitude sits from the start in its column at
    time ``steps``: spin-0's column never moves, and spin-1's window starts
    at the last column and moves one even column left per step.  So after
    ``t`` steps the state is spin-0 columns ``0 .. 2t`` and spin-1 columns
    ``2(steps - t) .. 2 steps``, and step ``t`` applies the coin in place to
    the ``t + 1`` even-offset pairs of those windows, with the arithmetic of
    :func:`step`.  Identity steps and odd columns are never touched.
    """
    amp = np.zeros((2, 2 * steps + 1), dtype=np.complex128)
    amp[0, 0] = spin.alpha
    amp[1, 2 * steps] = spin.beta
    coins = [None if c.is_identity() else c.matrix for c in protocol.coins]
    yield amp
    for t in range(steps):
        m = coins[t % len(coins)]
        if m is not None:
            _coin(m, amp[0, : 2 * t + 1 : 2], amp[1, 2 * (steps - t) :: 2])
        yield amp


# Quarter turns (-i)^u for u = 0..3; multiplying by one is exact.
_QUARTER_TURNS = np.array([1, -1j, -1, 1j])
# Reads fewer than this many steps apart on average are stepped.  For one read
# stepping and the FFT cost the same near T = 9 (~60 us, numpy 2.4, 2-vCPU
# VM), and stepping costs at most ~0.25 ms more up to here.
_FOURIER_MIN_STEPS = 50


def _roots_of_unity(n: int) -> np.ndarray:
    """``exp(-2 pi i j / n)`` for ``j = 0 .. n-1``.

    Each angle is split in integer arithmetic into its nearest quarter turn
    and a rest of at most ``pi / 4``, and only the rest goes through
    ``np.exp``.  Multiplying ``j`` by a rounded ``2 pi / n`` instead would
    err by a phase linear in ``j``, which a T-th power turns into a shift of
    the walk by about ``T * 1e-16`` sites: 1.2e-12 in amplitude at
    T = 9,999 for a pure shift, against 6e-14 this way.
    """
    quarters = 4 * np.arange(n)
    turn = (quarters + n // 2) // n
    rest = quarters - turn * n
    return np.exp((-0.5j * np.pi / n) * rest) * _QUARTER_TURNS[turn % 4]


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


def _times(x, y, out: np.ndarray):
    """``x * y``, written to ``out`` when either factor is an array.

    A product of two scalars stays a scalar: numpy's scalar arithmetic may
    round it otherwise than its array loop, which can fuse a multiply and
    an add.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.multiply(x, y, out=out)
    return x * y


def _plus(x, y, out: np.ndarray):
    """``x + y``, written to ``out`` when either term is an array."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.add(x, y, out=out)
    return x + y


def _turn(block: tuple, v0, v1, rows: tuple) -> tuple:
    """``block @ (v0, v1)`` as ``a v0 + b v1, c v0 + d v1``, written to
    ``rows[0]`` and ``rows[1]`` where arrays; ``rows[2:]`` are scratch."""
    a, b, c, d = block
    row0, row1, tmp0, tmp1 = rows
    av, cv = _times(a, v0, tmp0), np.multiply(c, v0, out=tmp1)
    v0 = _plus(av, _times(b, v1, row0), row0)
    return v0, np.add(cv, np.multiply(d, v1, out=row1), out=row1)


def _fourier_reads(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_walk`'s reads by one inverse FFT each, in O(t log t).

    From a point mass the state at time ``t`` fills the first ``t + 1``
    even columns, so it is fixed by its transform at ``k_j = pi j / n`` for
    any ``n >= t + 1``; each read is computed on its own, on the smallest
    5-smooth such ``n``, where the FFT is fast, and the zero padding is
    exact.  The spin advances by the period block raised to the whole
    periods by repeated squaring, entry by entry (the square of ``[[a, b],
    [c, d]]`` is ``[[a^2 + bc, b tr], [c tr, d^2 + bc]]``), and then by the
    leftover steps.  With ``exp(-ikt)`` taken out of every step, its
    inverse FFT is column ``2j``.

    One ``(8, n)`` array per read holds the spinor (the inverse FFT's
    input), the block's four entries and two scratch rows, and every
    squaring and spinor update writes into it, each product with its
    operands in the order of the plain expression.  ``c`` and ``d`` are
    arrays from the first step on (every step multiplies them by ``w``);
    ``a``, ``b`` and the spin stay scalars until an array enters them, as
    in the plain expression, so every value keeps its bits.
    """
    coins = [None if c.is_identity() else c.matrix for c in protocol.coins]
    for t in times:
        n = _smooth_size(t + 1)
        w = _roots_of_unity(n)
        work = np.empty((8, n), dtype=np.complex128)
        row0, row1, row_a, row_b, row_c, row_d, tmp0, tmp1 = work
        turn_rows = (row0, row1, tmp0, tmp1)
        a, b, c, d = _block(coins, w)
        v0, v1 = spin.alpha, spin.beta
        power, leftover = divmod(t, len(coins))
        while power:
            if power & 1:
                v0, v1 = _turn((a, b, c, d), v0, v1, turn_rows)
            power >>= 1
            if power:
                bc = np.multiply(b, c, out=tmp0)
                trace = np.add(a, d, out=tmp1)
                a = np.add(_times(a, a, row_a), bc, out=row_a)
                b = np.multiply(b, trace, out=row_b)
                c = np.multiply(c, trace, out=row_c)
                d = np.add(np.multiply(d, d, out=row_d), bc, out=row_d)
        if leftover:
            v0, v1 = _turn(_block(coins[:leftover], w), v0, v1, turn_rows)
        work[0], work[1] = v0, v1  # a no-op where they are those rows
        amp = np.zeros((2, 2 * t + 1), dtype=np.complex128)
        amp[:, ::2] = np.fft.ifft(work[:2], axis=-1)[:, : t + 1]
        yield t, amp


def _walk(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, amplitudes)``, a new array in the layout of
    :class:`WalkState`, at each of the strictly increasing ``times``.

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
            yield t, np.stack((amp[0, : 2 * t + 1], amp[1, 2 * (last - t) :]))


def _check_steps(steps: int) -> int:
    """``steps`` as an int; anything but a nonnegative integer is refused."""
    steps = operator.index(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return steps


def evolve(spin: InitialSpin, protocol: StepProtocol, steps: int) -> WalkState:
    """Run ``steps`` steps from a point mass at the origin with spin ``spin``.

    ``steps == 0`` returns the point-mass state.  The state is :func:`_walk`'s
    one read at ``steps``: stepped below 50 steps, from 50 on one inverse
    FFT in O(T log T) instead of O(T^2).
    """
    steps = _check_steps(steps)
    ((_, amp),) = _walk(spin, protocol, [steps])
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
        total = float(prob.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        pos.setflags(write=False)
        prob.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "probabilities", prob)


def distribution(state: WalkState) -> PositionDistribution:
    """Measured position distribution over the even sublattice of ``state``."""
    # Only columns of even index (positions with x + t even) can be occupied.
    amp = state.amplitudes[:, ::2]
    return PositionDistribution(
        positions=np.arange(-state.t, state.t + 1, 2),
        probabilities=np.sum(amp.real**2 + amp.imag**2, axis=0),
        t=state.t,
    )


def _distributions(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> list[PositionDistribution]:
    """:func:`distribution` at each of the strictly increasing ``times``."""
    return [distribution(WalkState(t, amp)) for t, amp in _walk(spin, protocol, times)]


def _check_scale(scale: float) -> float:
    """``scale`` as a float; anything not positive and finite is refused."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    return float(scale)


def empirical_moment(dist: PositionDistribution, r: int, scale: float) -> float:
    """Moment ``sum_x (x / scale)^r p(x)`` of the rescaled position.

    Each term is a running product, ``p`` times ``y = x / scale`` ``r``
    times: numpy's ``y**r`` takes a general power on negative ``y``, some
    twenty times slower at ``r >= 3``.  Orders 0 and 1 have the bits of
    ``sum(y**r * p)``, orders 2..8 stay within ``1e-15 sum(|y|^r p)`` of
    it.  ``r`` is capped at 8: higher moments amplify roundoff beyond the
    tolerances this package promises.
    """
    if not 0 <= r <= 8:
        raise ValueError("moment order must be between 0 and 8")
    y = dist.positions / _check_scale(scale)
    term = dist.probabilities
    for _ in range(r):
        term = term * y
    return float(np.sum(term))
