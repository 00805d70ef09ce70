"""State-vector evolution of a two-state quantum walk on the integer line.

The wavefunction at time ``t`` is a spinor per site of ``-t .. t``, and a
walk from a point mass occupies only the ``t + 1`` sites whose parity is
that of ``t``: column ``i`` of ``WalkState.occupied`` is the spinor at
position ``2i - t``.  One step applies a coin to every spinor and then
shifts: the spin-0 amplitude moves one site left, the spin-1 amplitude one
site right.  Coins are drawn cyclically from a :class:`StepProtocol`; the
canonical instance is the three-step cycle ``[coin, coin, identity]``.

:func:`evolve` and every multi-time read go through :func:`_walk`, which
picks one of two kernels; both take the reported times and yield one
``(t, occupied)`` read per time.  Reads fewer than 50 steps apart on average
are stepped, as :func:`step` does, in O(T^2); sparser ones each take one
inverse FFT, in O(T log T), on the smallest 5-smooth grid of at least
``T + 1`` momenta (Ambainis, Bach, Nayak, Vishwanath & Watrous,
"One-dimensional quantum walks", STOC 2001), which raises the period block
to its power in closed form.  Up to T = 9,999 the two agree to within 1e-13
in every amplitude, and the FFT read is unitary to rounding at every T.
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
    """Wavefunction at time ``t`` of a walk from a point mass: its ``t + 1``
    occupied sites ``-t, -t + 2, .., t``.

    ``occupied`` has shape ``(2, t + 1)``; row 0 is the spin-0 amplitude,
    row 1 the spin-1 amplitude, and column ``i`` sits at position
    ``2i - t``.  The sites of the other parity hold no amplitude.  The
    state holds a read-only copy of the array it is given.
    """

    t: int
    occupied: np.ndarray

    def __post_init__(self) -> None:
        t = operator.index(self.t)
        if t < 0:
            raise ValueError("time must be nonnegative")
        occ = np.array(self.occupied, dtype=np.complex128)
        if occ.shape != (2, t + 1):
            raise ValueError(f"occupied must have shape (2, {t + 1}), got {occ.shape}")
        occ.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "occupied", occ)

    @property
    def amplitudes(self) -> np.ndarray:
        """A new read-only ``(2, 2t + 1)`` array over the positions ``-t .. t``,
        column ``i`` at position ``i - origin``: ``occupied`` in the even
        columns and exact zeros in the odd ones."""
        amp = np.zeros((2, 2 * self.t + 1), dtype=np.complex128)
        amp[:, ::2] = self.occupied
        amp.setflags(write=False)
        return amp

    @property
    def origin(self) -> int:
        """Column index of :attr:`amplitudes` that holds position 0."""
        return self.t

    def positions(self) -> np.ndarray:
        """The positions ``-t .. t`` of the columns of :attr:`amplitudes`."""
        return np.arange(-self.t, self.t + 1)

    def spinor(self, x: int) -> np.ndarray:
        """Amplitude pair at position ``x``: zeros outside ``-t .. t`` and
        where ``x + t`` is odd."""
        if abs(x) > self.t or (x + self.t) % 2:
            return np.zeros(2, dtype=np.complex128)
        return self.occupied[:, (x + self.t) // 2].copy()

    def norm(self) -> float:
        occ = self.occupied
        return float(np.sum(occ.real**2 + occ.imag**2))

    def validate(self, norm_tol: float = 1e-10) -> None:
        """Check that the amplitudes are finite and normalised; the support
        and the parity hold by construction."""
        if not np.all(np.isfinite(self.occupied.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm = self.norm()
        if abs(norm - 1.0) > norm_tol:
            raise ValueError(f"norm drifted to {norm!r}")


def _state(t: int, occupied: np.ndarray) -> WalkState:
    """``WalkState(t, occupied)`` holding, not copying, an array just made here."""
    state = object.__new__(WalkState)
    occupied.setflags(write=False)
    vars(state).update(t=t, occupied=occupied)
    return state


def _mix(e: tuple, x0, x1) -> tuple:
    """``(a x0 + b x1, c x0 + d x1)`` for the entries ``e = (a, b, c, d)`` of
    a 2x2 matrix: the one place a coin, or a block of coins, acts.  The
    second row overwrites an array ``x1``."""
    a, b, c, d = e
    if not isinstance(x1, np.ndarray):
        return a * x0 + b * x1, c * x0 + d * x1
    out = a * x0
    out += b * x1
    return out, np.add(c * x0, np.multiply(d, x1, out=x1), out=x1)


def _coin(e: tuple, x0: np.ndarray, x1: np.ndarray) -> None:
    """Apply the coin entries ``e`` in place to the spinor rows ``(x0, x1)``."""
    x0[...] = _mix(e, x0, x1)[0]


def apply_coin(state: WalkState, coin: CoinOperator) -> WalkState:
    """Apply ``coin`` to every spinor without shifting (time unchanged)."""
    if coin.is_identity():
        return state
    out = state.occupied.copy()
    _coin(coin.entries, out[0], out[1])
    return _state(state.t, out)


def step(state: WalkState, coin: CoinOperator) -> WalkState:
    """One time step: coin on every site, then the spin-conditioned shift.

    With the identity coin the step is a pure permutation of amplitudes.
    In the occupied columns spin-0 keeps its column (``x -> x - 1``) and
    spin-1 moves one column right (``x -> x + 1``), as in :func:`_stepping`.
    """
    width = state.t + 1
    out = np.zeros((2, width + 1), dtype=np.complex128)
    out[0, :width] = state.occupied[0]
    out[1, 1:] = state.occupied[1]
    if not coin.is_identity():
        _coin(coin.entries, out[0, :width], out[1, 1:])
    return _state(state.t + 1, out)


def _steps(protocol: StepProtocol) -> list:
    """Each step's coin entries in order, or ``None`` for an identity coin,
    which a step skips."""
    return [None if c.is_identity() else c.entries for c in protocol.coins]


def _stepping(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_walk`'s reads from one stepped pass, bit for bit folded
    :func:`step` calls, in O(T^2) to the last of ``times``, ``T``.

    One ``(2, T + 1)`` array is updated in place.  Spin-0's amplitudes
    never move, and spin-1's window moves one column left per step from
    the last, so after ``t`` steps the state is spin-0 columns ``0 .. t``
    and spin-1 columns ``T - t .. T`` (column ``i`` at position ``2i - t``);
    step ``t`` applies its coin there in place, as :func:`step` does, and
    skips identity coins.  Each read stacks those columns into a new array.
    """
    last = times[-1]
    amp = np.zeros((2, last + 1), dtype=np.complex128)
    amp[0, 0] = spin.alpha
    amp[1, last] = spin.beta
    coins = _steps(protocol)
    done = 0
    for t in times:
        for s in range(done, t):
            e = coins[s % len(coins)]
            if e is not None:
                _coin(e, amp[0, : s + 1], amp[1, last - s :])
        done = t
        yield t, np.stack((amp[0, : t + 1], amp[1, last - t :]))


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

    ``coins`` is :func:`_steps` of a protocol, or a prefix of it.  ``w``
    holds ``exp(-2ik)``; at momentum ``k`` a step with coin ``C`` is
    ``diag(1, w) @ C``, ``exp(-ik) S(k) @ C`` for ``S(k) = diag(exp(ik),
    exp(-ik))``: an identity step only multiplies ``c`` and ``d`` by ``w``,
    and ``exp(ipk)`` times the block of ``p`` steps is one full period.

    Array ``c`` and ``d`` are updated in place (:func:`_mix`): the block
    holds at most six ``(w.size,)`` rows, with the plain product's bits.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for e in coins:
        if e is not None:
            a, c = _mix(e, a, c)
            b, d = _mix(e, b, d)
        c, d = (np.multiply(w, x, out=x) if isinstance(x, np.ndarray) else w * x for x in (c, d))
    return a, b, c, d


def _det_phase(protocol: StepProtocol) -> float:
    """``phi``, with ``exp(i phi)`` the product of ``protocol``'s coin determinants."""
    return cmath.phase(math.prod(c.a * c.d - c.b * c.c for c in protocol.coins))


def _su2(block: tuple, phi: float, r_p: np.ndarray) -> tuple:
    """A period block at each momentum in SU(2) form: the arrays ``(cos th +
    i sin th, Im x, y)``.

    ``block`` is :func:`_block` of ``p`` steps, ``exp(i phi)`` the product of
    their determinants, ``r_p = r^-p`` and ``r = exp(-ik)``; the results take
    their rows, with the bits of the plain expressions.  ``B`` has ``det B =
    exp(i phi) r^(2p)``, so ``B = delta V``, ``delta = exp(i phi / 2) r^p``,
    with ``V = [[x, y], [-conj(y), conj(x)]]`` in SU(2) to rounding (Ambainis,
    Bach, Nayak, Vishwanath & Watrous, STOC 2001) and eigenvalues ``exp(+-i
    th)``, ``x = cos th + i Im x``.  ``sin th = |(Im x, y)|`` comes from the
    traceless part, so nothing cancels near ``th = 0`` or ``pi``.
    """
    a, b, c, d = block
    del block
    half = r_p
    half *= cmath.rect(0.5, -0.5 * phi)  # 1 / (2 delta): V's entries are halved sums, exactly
    np.conjugate(np.multiply(c, half, out=c), out=c)
    y = np.multiply(b, half, out=b if isinstance(b, np.ndarray) else None)
    y -= c
    im_x = np.multiply(np.subtract(a, d, out=c), half, out=c).imag
    z = np.multiply(np.add(a, d, out=d), half, out=half)  # cos th in its real part
    del a, b, c, d  # a read at T = 10^6 holds 16 MB per (n,) array
    z.imag = np.sqrt(im_x**2 + np.abs(y) ** 2)
    return z, im_x, y


def _fourier_reads(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_walk`'s reads by one inverse FFT each, in O(t log t).

    The ``t + 1`` occupied columns at time ``t`` are fixed by their
    transform at ``k_j = pi j / n`` for any ``n >= t + 1``; each read takes
    the smallest 5-smooth such ``n``, where the FFT is fast, and
    ``r = exp(-ik)`` is taken out of every step.

    The period block ``B = delta V`` of ``p`` coins (:func:`_su2`) is raised
    to the ``m`` whole periods in closed form (Higham, *Functions of
    Matrices*, SIAM 2008): ``B^m = delta^m U``, ``U = [[E, Y], [-conj(Y),
    conj(E)]]``, ``E = cos m th + i q Im x``, ``Y = q y``, ``q = sin m th /
    sin th``, and ``exp(i m th)`` is ``(cos th + i sin th)^m`` by squaring,
    over its modulus: ``U`` is unitary to rounding at every ``m``, and the
    norm does not drift with ``t``.  ``delta^m`` is ``exp(i m phi / 2)``,
    taken into the spin, times ``r^(pm)``, a shift by ``pm / 2`` columns:
    ``vec`` takes one factor ``r`` if ``pm`` is odd, then the leftover
    steps; the inverse FFT writes over it, and the read copies out only
    the first ``t + 1`` columns of ``vec`` rolled.

    A read holds at most nine ``(n,)`` complex rows (eight up to a period of
    three): the ``2n`` root table goes once :func:`_su2` has reduced the
    block in place, and no row is rebuilt out of place.
    """
    coins = _steps(protocol)
    period = len(coins)
    phi = _det_phase(protocol)
    for t in times:
        n = _smooth_size(t + 1)
        m, left = divmod(t, period)
        shift, odd = divmod(period * m, 2)  # p m <= t < n
        roots = _roots(n)
        w = roots[::2]  # exp(-2ik)
        z, im_x, y = _su2(_block(coins, w), phi, roots[np.arange(0, -period * n, -period) % (2 * n)])
        r = roots[:n].copy() if odd else None
        w = w.copy() if left else None
        del roots
        power = z.copy() if m else np.ones(n, dtype=np.complex128)
        for bit in bin(m)[3:]:
            power *= power
            if bit == "1":
                power *= z
        modulus = np.abs(power)
        # Where sin th = 0, so are Im x, y and sin m th: the floor reads q = 0.
        q = power.imag / (modulus * np.maximum(z.imag, 1e-300))
        power.real /= modulus
        np.multiply(q, im_x, out=power.imag)
        y *= q
        del z, modulus, q, im_x
        a, b = (cmath.rect(1.0, 0.5 * m * phi) * s for s in (spin.alpha, spin.beta))
        vec = np.multiply.outer((a, b.conjugate()), power)  # + outer((b, -conj a), y)
        for row, s in zip(vec, (b, -a.conjugate())):
            row += np.multiply(s, y, out=power)
        np.conj(vec[1], out=vec[1])  # U (a, b), its second entry b conj(E) - a conj(Y)
        if odd:
            vec *= r
        del power, y, r
        if left:
            block, w = _block(coins[:left], w), None
            _coin(block, vec[0], vec[1])
            del block
        np.fft.ifft(vec, axis=-1, out=vec)
        yield t, np.concatenate((vec[:, n - shift :], vec[:, : t + 1 - shift]), axis=-1)
        del vec, row  # row: a view of vec


def _walk(
    spin: InitialSpin, protocol: StepProtocol, times: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, occupied)`` at each of the strictly increasing ``times``,
    a new ``(2, t + 1)`` array: :attr:`WalkState.occupied`.

    Both kernels read this way; the rule picks one.  Reads fewer than 50
    steps apart on average come from one :func:`_stepping` pass; sparser
    ones take one inverse FFT each (:func:`_fourier_reads`).  Stepping walks
    the float coins as given, and the FFT read its period block's SU(2)
    projection; against that walk in long double, the l2 error over all
    amplitudes is at most 0.68 sqrt(t) eps stepped (up to t = 2,997) and
    ~0.1 t eps by the FFT (0.077-0.13 at t = 10^5 and 10^6: its eigenphases'
    rounding taken ``t // p`` times), eps = 2.2e-16, as measured.
    """
    dense = len(times) * _FOURIER_MIN_STEPS > times[-1]
    return (_stepping if dense else _fourier_reads)(spin, protocol, times)


def _check_steps(steps: int, least: int = 0, what: str = "steps") -> int:
    """``steps`` as an int; a non-integer, or one below ``least``, is refused as ``what``."""
    steps = operator.index(steps)
    if steps < least:
        raise ValueError(f"{what} must be at least {least}")
    return steps


def evolve(spin: InitialSpin, protocol: StepProtocol, steps: int) -> WalkState:
    """Run ``steps`` steps from a point mass at the origin with spin ``spin``.

    ``steps == 0`` returns the point-mass state.  The state holds
    :func:`_walk`'s one read at ``steps``: stepped below 50 steps, else one
    inverse FFT.
    """
    steps = _check_steps(steps)
    ((_, occupied),) = _walk(spin, protocol, [steps])
    return _state(steps, occupied)


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Measurement distribution ``p(x) = |a0(x)|^2 + |a1(x)|^2`` at time ``t``;
    it holds read-only copies of the arrays it is given."""

    positions: np.ndarray
    probabilities: np.ndarray
    t: int

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=np.int64)
        prob = np.array(self.probabilities, dtype=np.float64)
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
    prob = np.add(*(row.real**2 + row.imag**2 for row in occupied))  # np.sum(axis=0)'s bits
    _settle(dist, np.arange(-t, t + 1, 2, dtype=np.int64), prob)
    return dist


def distribution(state: WalkState) -> PositionDistribution:
    """Measured position distribution over the occupied sites of ``state``,
    the positions with x + t even."""
    return _measured(state.t, state.occupied)


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


def _check_order(r: int) -> int:
    """``r`` as an int; a non-integer, or an order outside ``0 .. 8``, is refused."""
    r = operator.index(r)
    if not 0 <= r <= 8:
        raise ValueError("moment order must be between 0 and 8")
    return r


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
    for term in _moment_terms(dist, _check_order(r), scale):
        pass
    return float(np.sum(term))
