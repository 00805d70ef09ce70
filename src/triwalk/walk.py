"""State-vector evolution of a two-state quantum walk on the integer line.

The wavefunction at time ``t`` is a pair of complex amplitude arrays over
the positions ``-t .. t`` (a spinor per site; column ``i`` of
``WalkState.amplitudes`` is the spinor at position ``i - t``).  One step
applies a coin to every spinor and then shifts: the spin-0 amplitude moves
one site left, the spin-1 amplitude one site right.  Coins are drawn
cyclically from a :class:`StepProtocol`; the canonical instance is the
three-step cycle ``[coin, coin, identity]``.

:func:`evolve` reaches time ``T`` by one of two methods.  Below 50 steps it
steps, as :func:`step` does, in O(T^2).  From 50 steps on it solves the walk
in momentum space (Ambainis, Bach, Nayak, Vishwanath & Watrous, "One-
dimensional quantum walks", STOC 2001): the period block is raised to the
number of whole periods at ``T + 1`` momenta, and one inverse FFT gives
every amplitude, in O(T log T).  Up to T = 9,999 the two agree to within
1e-13 in every amplitude; the FFT's norm drifts by about 4.5e-17 per step
(4.5e-13 at T = 9,999, 4.5e-12 at 99,999), and its odd columns are exactly
zero, as the stepped ones are.  Checkpoints read during one walk
(:func:`_distributions`) always come from stepping.
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

    One ``(2, 2 steps + 1)`` array is allocated before the first yield and
    updated in place; a consumer copies what it keeps.  Every amplitude
    sits from the start in its column at time ``steps``: a shift never
    moves spin-0's column, and spin-1's window starts at the last column
    and moves one even column left per step.  So after ``t`` steps the
    state is spin-0 columns ``0 .. 2t`` and spin-1 columns
    ``2(steps - t) .. 2 steps``, and step ``t`` applies the coin in place
    to the ``t + 1`` even-offset pairs of those windows; the arithmetic per
    step is identical to :func:`step`.  An identity step does nothing, and
    the odd (parity-zero) columns are never written.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
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
# Walks of fewer steps are stepped, longer ones go through the FFT.  The two
# cost the same near T = 9 (~60 us, numpy 2.4, 2-vCPU VM) and stepping costs
# at most ~0.25 ms more up to here, so short walks keep the exact arithmetic
# of folded `step` calls.
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


def _per_k_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product ``x @ y`` at each of ``n`` momenta, entry by entry.

    ``x`` has shape ``(2, 2, n)``; ``y`` is ``(2, 2, n)`` or a column
    ``(2, 1, n)``.
    """
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _period_blocks(
    protocol: StepProtocol, w: np.ndarray, leftover: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-momentum products of the first ``leftover`` steps and of one period.

    ``w`` holds ``exp(-2ik)``.  A step with coin ``C`` acts at momentum
    ``k`` as ``diag(1, exp(-2ik)) @ C``, which is :func:`~triwalk.kspace.
    fourier_block`'s ``S(k) @ C`` times ``exp(-ik)``; later steps go on the
    left.  Both products have shape ``(2, 2, w.size)``; the first is
    ``None`` when ``leftover`` is 0.
    """
    left = prod = None
    for j, coin in enumerate(protocol.coins):
        if j == leftover:
            left = prod
        m = coin.matrix
        factor = np.empty((2, 2, w.size), dtype=np.complex128)
        factor[0] = m[0, :, None]
        factor[1] = m[1, :, None] * w
        prod = factor if prod is None else _per_k_product(factor, prod)
    return left, prod


def _fourier_amplitudes(
    spin: InitialSpin, protocol: StepProtocol, steps: int
) -> np.ndarray:
    """The amplitude array after ``steps`` steps, by one inverse FFT.

    From a point mass the state at time ``T`` occupies the ``n = T + 1``
    even columns, so it is fixed by its transform at the momenta
    ``k_j = pi j / n``: ``U_T(k) (alpha, beta)``, where ``U_T`` is the
    period block raised to ``T // period`` by repeated squaring, times the
    first ``T % period`` steps of the next period on the left.  With the
    phase ``exp(-ikT)`` already taken out of every step, the inverse FFT
    over ``j`` is the amplitude at column ``2j``.  The odd columns are
    never written.  Costs O(T log T) and O(T) memory.
    """
    amp = np.zeros((2, 2 * steps + 1), dtype=np.complex128)
    power, leftover = divmod(steps, protocol.period)
    left, block = _period_blocks(protocol, _roots_of_unity(steps + 1), leftover)
    vec = np.empty((2, 1, steps + 1), dtype=np.complex128)
    vec[0], vec[1] = spin.alpha, spin.beta
    while power:
        if power & 1:
            vec = _per_k_product(block, vec)
        power >>= 1
        if power:
            block = _per_k_product(block, block)
    if left is not None:
        vec = _per_k_product(left, vec)
    amp[:, ::2] = np.fft.ifft(vec[:, 0], axis=-1)
    return amp


def evolve(spin: InitialSpin, protocol: StepProtocol, steps: int) -> WalkState:
    """Run ``steps`` steps from a point mass at the origin with spin ``spin``.

    ``steps == 0`` returns the point-mass state.  Walks of fewer than 50
    steps are stepped (:func:`_stepping`, the arithmetic of :func:`step`);
    longer ones are solved in momentum space by one inverse FFT
    (:func:`_fourier_amplitudes`), in O(T log T) instead of O(T^2).  Both
    give the same layout with exactly zero odd columns, and they agree to
    within 1e-13 in every amplitude up to T = 9,999.
    """
    steps = operator.index(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps < _FOURIER_MIN_STEPS:
        for amp in _stepping(spin, protocol, steps):
            pass
    else:
        amp = _fourier_amplitudes(spin, protocol, steps)
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
    amp = state.amplitudes
    p = np.sum(amp.real**2 + amp.imag**2, axis=0)
    # Only columns of even index (positions with x + t even) can be occupied.
    return PositionDistribution(
        positions=np.arange(-state.t, state.t + 1, 2),
        probabilities=p[::2],
        t=state.t,
    )


def _distributions(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> list[PositionDistribution]:
    """:func:`distribution` at each of the strictly increasing ``times``,
    read from one evolution to ``times[-1]``.

    Each equals, bit for bit, the distribution after folded :func:`step` calls.
    """
    last = times[-1]
    dists = []
    for t, amp in enumerate(_stepping(spin, protocol, last)):
        if t == times[len(dists)]:
            occupied = np.stack((amp[0, : 2 * t + 1], amp[1, 2 * (last - t) :]))
            dists.append(distribution(WalkState(t, occupied)))
    return dists


def empirical_moment(dist: PositionDistribution, r: int, scale: float) -> float:
    """Moment ``sum_x (x / scale)^r p(x)`` of the rescaled position.

    ``r`` is capped at 8: higher moments amplify roundoff beyond the
    tolerances this package promises.
    """
    if not 0 <= r <= 8:
        raise ValueError("moment order must be between 0 and 8")
    if scale <= 0:
        raise ValueError("scale must be positive")
    y = dist.positions / float(scale)
    return float(np.sum(y**r * dist.probabilities))
