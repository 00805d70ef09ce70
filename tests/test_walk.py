import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    CoinOperator,
    InitialSpin,
    PositionDistribution,
    StepProtocol,
    WalkState,
    apply_coin,
    canonical_protocol,
    distribution,
    empirical_moment,
    evolve,
    general_coin,
    identity_coin,
    rotation_coin,
    step,
    symmetric_spin,
    three_coin_protocol,
    three_period_protocol,
)
from triwalk.walk import (
    _FOURIER_MIN_STEPS,
    _block,
    _distributions,
    _fourier_reads,
    _measured,
    _smooth_size,
    _stepping,
    _steps,
    _walk,
)

from _oracles import (
    dense_amplitude,
    dense_evolve,
    dense_index,
    dense_step_operator,
    exact_walk,
    extended_walk,
    fourier_product,
    random_protocol,
    random_safe_angle,
    random_spin,
)

SQ2 = math.sqrt(2.0) / 2.0


def point_mass(alpha, beta):
    return WalkState(0, np.array([[alpha], [beta]], dtype=complex))


def test_initial_spin_normalisation_enforced():
    InitialSpin(1.0, 0.0)
    with pytest.raises(ValueError):
        InitialSpin(1.0, 0.5)


def test_symmetric_spin_value():
    spin = symmetric_spin()
    assert spin.alpha == pytest.approx(complex(SQ2, 0.0), abs=1e-15)
    assert spin.beta == pytest.approx(complex(0.0, SQ2), abs=1e-15)
    assert abs(spin.alpha) == abs(spin.beta)
    assert (spin.alpha * spin.beta.conjugate()).real == 0.0


def test_protocol_needs_a_coin():
    with pytest.raises(ValueError):
        StepProtocol(())


def test_identity_step_moves_point_mass():
    state = step(point_mass(0.6, 0.8), identity_coin())
    assert state.t == 1
    assert np.allclose(state.spinor(-1), [0.6, 0.0], atol=0)
    assert np.allclose(state.spinor(1), [0.0, 0.8], atol=0)
    assert np.all(state.spinor(0) == 0)


def test_single_rotation_step_from_spin_up():
    state = step(point_mass(1.0, 0.0), rotation_coin(math.pi / 4))
    assert state.spinor(-1)[0] == pytest.approx(SQ2, abs=1e-15)
    assert state.spinor(1)[1] == pytest.approx(SQ2, abs=1e-15)


def test_three_steps_hand_derived_amplitudes():
    # theta = pi/4, spin (1, 0): two coined steps then the bare shift.
    state = evolve(InitialSpin(1.0, 0.0), three_period_protocol(math.pi / 4), 3)
    assert state.t == 3
    assert state.spinor(-3)[0] == pytest.approx(0.5, abs=1e-15)
    assert state.spinor(-1)[0] == pytest.approx(0.5, abs=1e-15)
    assert state.spinor(1)[1] == pytest.approx(0.5, abs=1e-15)
    assert state.spinor(3)[1] == pytest.approx(-0.5, abs=1e-15)
    # spin components not listed above are exactly zero
    assert state.spinor(-3)[1] == 0 and state.spinor(3)[0] == 0


def test_three_step_distribution_is_four_flat_points():
    state = evolve(InitialSpin(1.0, 0.0), three_period_protocol(math.pi / 4), 3)
    dist = distribution(state)
    assert dist.positions.tolist() == [-3, -1, 1, 3]
    assert np.allclose(dist.probabilities, 0.25, atol=1e-15)


def test_evolve_zero_steps_is_point_mass():
    dist = distribution(evolve(symmetric_spin(), three_period_protocol(1.0), 0))
    assert dist.positions.tolist() == [0]
    assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_norm_and_support_at_999():
    state = evolve(symmetric_spin(), three_period_protocol(math.pi / 4), 999)
    assert abs(state.norm() - 1.0) <= 1e-12
    state.validate()


def test_empirical_moments_of_three_step_distribution():
    dist = distribution(
        evolve(InitialSpin(1.0, 0.0), three_period_protocol(math.pi / 4), 3)
    )
    assert empirical_moment(dist, 0, 3.0) == pytest.approx(1.0, abs=1e-14)
    assert empirical_moment(dist, 1, 3.0) == pytest.approx(0.0, abs=1e-15)
    assert empirical_moment(dist, 2, 3.0) == pytest.approx(5.0 / 9.0, abs=1e-14)


def test_running_product_moments_match_powers():
    spin = InitialSpin(0.6, 0.8j)
    rng = np.random.default_rng(31)
    pos = np.unique(rng.integers(-500, 500, size=300))
    prob = rng.random(pos.size)
    general = canonical_protocol(general_coin(0.4, 1.2, 2.2, 2.0))
    cases = [
        (distribution(evolve(spin, three_period_protocol(1.1), 999)), 999.0),
        (distribution(evolve(spin, general, 998)), 700.5),
        (distribution(evolve(spin, three_period_protocol(0.3), 4482)), 4482.0),
        # random weights on random positions of both signs
        (PositionDistribution(pos, prob / prob.sum(), t=500), 377.0),
    ]
    for dist, scale in cases:
        y, p = dist.positions / scale, dist.probabilities
        for r in (0, 1):
            assert empirical_moment(dist, r, scale) == float(np.sum(y**r * p))
        for r in range(2, 9):
            bound = 1e-15 * float(np.sum(np.abs(y) ** r * p))
            assert abs(empirical_moment(dist, r, scale) - np.sum(y**r * p)) <= bound


def test_moment_order_capped():
    dist = distribution(evolve(symmetric_spin(), three_period_protocol(1.0), 3))
    with pytest.raises(ValueError):
        empirical_moment(dist, 9, 3.0)


def test_matches_dense_oracle_small_times():
    rng = np.random.default_rng(7)
    for _ in range(6):
        theta = random_safe_angle(rng)
        alpha, beta = random_spin(rng)
        protocol = three_period_protocol(theta)
        coins = [c.matrix for c in protocol.coins]
        for steps in (1, 2, 3, 5, 8):
            state = evolve(InitialSpin(alpha, beta), protocol, steps)
            vec = dense_evolve(alpha, beta, coins, steps, steps)
            for x in range(-steps, steps + 1):
                spinor = state.spinor(x)
                for s in (0, 1):
                    assert abs(spinor[s] - dense_amplitude(vec, x, s, steps)) <= 1e-13


def test_three_distinct_coins_match_dense_oracle():
    rng = np.random.default_rng(11)
    phase_sets = [
        [rng.uniform(0, 2 * math.pi, 3) for _ in range(3)],
        [(0, 0, 0), (0, 0, 0), (0, 0, 0)],
        [(math.pi / 4, 0, 0), (0, 0, 0), (0, 0, 0)],
        [(0, 0, 0), (0, 0, 0), (math.pi / 4, 0, 0)],
        [
            (math.pi / 2, math.pi / 2, math.pi / 2),
            (math.pi / 3, math.pi / 3, math.pi / 3),
            (math.pi / 4, math.pi / 4, math.pi / 4),
        ],
    ]
    thetas = (2 * math.pi / 5, math.pi / 3, math.pi / 4)
    for phases in phase_sets:
        coins = [general_coin(*p, t) for p, t in zip(phases, thetas)]
        protocol = StepProtocol(tuple(coins))
        alpha, beta = random_spin(rng)
        state = evolve(InitialSpin(alpha, beta), protocol, 7)
        vec = dense_evolve(alpha, beta, [c.matrix for c in coins], 7, 7)
        for x in range(-7, 8):
            spinor = state.spinor(x)
            for s in (0, 1):
                assert abs(spinor[s] - dense_amplitude(vec, x, s, 7)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(min_value=0.1, max_value=1.4),
    steps=st.integers(min_value=0, max_value=25),
)
def test_norm_support_parity_properties(theta, steps):
    state = evolve(symmetric_spin(), three_period_protocol(theta), steps)
    assert abs(state.norm() - 1.0) <= 1e-12
    # parity: odd columns are exactly zero
    assert np.all(state.amplitudes[:, 1::2] == 0)
    dist = distribution(state)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10


def test_step_factorises_into_coin_then_bare_shift():
    rng = np.random.default_rng(3)
    coin = general_coin(0.4, 1.2, 2.2, 1.1)
    alpha, beta = random_spin(rng)
    state = evolve(InitialSpin(alpha, beta), canonical_protocol(coin), 5)
    direct = step(state, coin)
    factored = step(apply_coin(state, coin), identity_coin())
    assert np.array_equal(direct.amplitudes, factored.amplitudes)


def test_identity_step_is_exact_permutation():
    rng = np.random.default_rng(5)
    alpha, beta = random_spin(rng)
    state = evolve(InitialSpin(alpha, beta), three_period_protocol(1.1), 6)
    shifted = step(state, identity_coin())
    assert np.array_equal(shifted.occupied[0, :-1], state.occupied[0])
    assert np.array_equal(shifted.occupied[1, 1:], state.occupied[1])
    assert shifted.occupied[0, -1] == shifted.occupied[1, 0] == 0


COIN = general_coin(0.4, 1.2, 2.2, 2.0)
PROTOCOLS = [
    three_period_protocol(1.1),
    canonical_protocol(COIN),
    StepProtocol((rotation_coin(0.5), rotation_coin(2.6))),
    three_coin_protocol(
        general_coin(1.1, -0.3, 0.7, 0.9), COIN, general_coin(-2.0, 0.5, 1.9, 2.8)
    ),
    StepProtocol((identity_coin(), COIN, COIN)),
    StepProtocol((COIN,)),
    StepProtocol((identity_coin(),)),
]


def test_evolve_equals_folded_steps_bitwise():
    rng = np.random.default_rng(13)
    for protocol in PROTOCOLS:
        alpha, beta = random_spin(rng)
        spin = InitialSpin(alpha, beta)
        # One reader pass gives every time; a sparse pass skips the others.
        read = _distributions(spin, protocol, list(range(41)))
        sparse = _distributions(spin, protocol, [3, 17, 40])
        assert [d.t for d in read] == list(range(41))
        for steps in range(41):
            ((_, direct),) = _stepping(spin, protocol, [steps])
            folded = point_mass(alpha, beta)
            for t in range(steps):
                folded = step(folded, protocol.coins[t % protocol.period])
            assert np.array_equal(direct, folded.occupied)
            state = evolve(spin, protocol, steps)
            assert np.array_equal(state.occupied, folded.occupied)
            assert np.array_equal(state.amplitudes, folded.amplitudes)
            assert np.all(state.amplitudes[:, 1::2] == 0)
            expected = distribution(folded)
            assert np.array_equal(read[steps].positions, expected.positions)
            assert np.array_equal(read[steps].probabilities, expected.probabilities)
        for dist in sparse:
            assert np.array_equal(dist.positions, read[dist.t].positions)
            assert np.array_equal(dist.probabilities, read[dist.t].probabilities)
        assert [d.t for d in sparse] == [3, 17, 40]


def test_fourier_amplitudes_match_stepping():
    rng = np.random.default_rng(19)
    reads_rng = np.random.default_rng(23)
    for protocol in PROTOCOLS:
        spin = InitialSpin(*random_spin(rng))
        for steps in [*range(61), 999, 9999]:
            ((t, fast),) = _fourier_reads(spin, protocol, [steps])
            ((_, slow),) = _stepping(spin, protocol, [steps])
            assert t == steps and fast.shape == (2, steps + 1)
            assert np.max(np.abs(fast - slow)) <= 1e-12
        state = evolve(spin, protocol, 9999)
        assert np.array_equal(state.amplitudes[:, ::2], fast)
        assert np.all(state.amplitudes[:, 1::2] == 0)
        state.validate(norm_tol=1e-10)
        # Sparse reads, each on its own grid: random ones, the first four and
        # three close together. Both kernels read the one times list; each
        # stepped read is a new (2, t + 1) array.
        picks = reads_rng.choice(2999, size=20, replace=False).tolist()
        times = sorted({*picks, 0, 1, 2, 3, 1000, 1001, 1003, 2999})
        stepped = list(_stepping(spin, protocol, times))
        reads = list(_fourier_reads(spin, protocol, times))
        assert [t for t, _ in stepped] == [t for t, _ in reads] == times
        for (t, slow), (_, fast) in zip(stepped, reads):
            assert slow.shape == fast.shape == (2, t + 1)
            assert np.max(np.abs(fast - slow)) <= 1e-12
        for (_, earlier), (_, later) in zip(stepped, stepped[1:]):
            assert not np.shares_memory(earlier, later)


def test_sparse_pass_reads_each_time_as_a_single_read():
    rng = np.random.default_rng(29)
    times = [0, 1, 2, 50, 999, 1000, 4482, 5976]
    for protocol in PROTOCOLS:
        spin = InitialSpin(*random_spin(rng))
        reads = list(_fourier_reads(spin, protocol, times))
        assert [t for t, _ in reads] == times
        for t, amp in reads:
            ((_, single),) = _fourier_reads(spin, protocol, [t])
            assert np.array_equal(amp, single)


# Coins and spins with entries in Q(i), as exact_walk takes them: (m, n) is
# m / n.  P5 and Q13 are real; the others are one of them times a diagonal
# phase in {+-1, +-i}, or a complex Pythagorean coin.  Each protocol is read
# at EXACT_TIMES up to its last time: the exact walk costs ~0.7-1.5 s to
# T = 999 on a 2-vCPU VM, most for the protocols with a coin at every step,
# and grows about as T^2.5 (~8 s at T = 2,997 for "canonical", CI's step).
P5 = (((3, 4), (4, -3)), 5)
Q13 = (((5, 12), (12, -5)), 13)
IP5 = (((3j, 4j), (4, -3)), 5)  # diag(i, 1) P5; its closing coin is diag(1, -i)
EXACT_PROTOCOLS = {
    "period-1": ([Q13], ((3, 4j), 5), 300),
    "period-2": ([P5, (((5, 12), (12j, -5j)), 13)], ((12j, 5), 13), 300),
    "canonical": ([P5, P5, None], ((3, 4j), 5), 999),
    "phased-canonical": ([IP5, IP5, (((1, 0), (0, -1j)), 1)], ((4, -3j), 5), 999),
    "three-coin": (
        [P5, (((5, 12j), (12j, 5)), 13), (((-3, -4), (4j, -3j)), 5)],
        ((3, 4j), 5),
        999,
    ),
}
EXACT_TIMES = [0, 1, 2, 3, 4, 5, 17, 50, 99, 300, 998, 999]


def _float_walk(name):
    """The package's spin and protocol for ``EXACT_PROTOCOLS[name]``: each
    entry rounded to a float, so they carry the coin's own rounding; the
    canonical cycles come from ``canonical_protocol`` with its closing coin."""
    coins, ((alpha, beta), n), _ = EXACT_PROTOCOLS[name]
    steps = [
        None if c is None else CoinOperator(np.array(c[0], dtype=complex) / c[1]) for c in coins
    ]
    if name.endswith("canonical"):
        protocol = canonical_protocol(steps[0])
        assert protocol.coins[2].is_identity() == (coins[2] is None)
    else:
        protocol = StepProtocol(tuple(steps))
    return InitialSpin(alpha / n, beta / n), protocol


@functools.cache
def _exact_reads(name, times):
    """``(t, amplitudes, probabilities, P, den)`` of ``exact_walk`` at each
    of the tuple ``times``: the amplitudes and probabilities correctly
    rounded from the exact ones, and ``P / den**2`` the exact probabilities,
    ``P`` a list of ints."""
    coins, spin, _ = EXACT_PROTOCOLS[name]
    reads = []
    for t, re, im, den in exact_walk(coins, spin, times):
        amp = np.array(
            [[complex(a / den, b / den) for a, b in zip(*parts)] for parts in zip(re, im)]
        )
        weight = (re * re + im * im).sum(axis=0).tolist()
        prob = np.array([w / den**2 for w in weight])
        reads.append((t, amp, prob, weight, den))
    return reads


def _exact_times(name):
    return tuple(t for t in EXACT_TIMES if t <= EXACT_PROTOCOLS[name][2])


# The bounds cover the rounding of the float coins and spins as well as the
# kernels' own.  At the tier-1 times the largest errors measured are 1.34e-14
# in amplitude and 4.6e-15 in probability (stepping, "three-coin", T = 999);
# the FFT read's are 4.4e-15 and 5.1e-16.  At T = 2,997, "canonical" reads
# 1.45e-14 stepped and 5.3e-15 by the FFT (README has the growth with T).
EXACT_AMPLITUDE = 3e-14
EXACT_PROBABILITY = 1e-14


def check_kernels_against_the_exact_walk(name, times):
    """Both kernels' reads of ``EXACT_PROTOCOLS[name]`` at the tuple
    ``times`` against the exact walk, within ``EXACT_AMPLITUDE`` and
    ``EXACT_PROBABILITY``.  CI runs it at T = 2,997."""
    spin, protocol = _float_walk(name)
    exact = _exact_reads(name, times)
    for kernel in (_stepping, _fourier_reads):
        reads = list(kernel(spin, protocol, list(times)))
        assert [t for t, _ in reads] == list(times)
        for (t, amp), (_, ref, prob, _, _) in zip(reads, exact):
            assert np.max(np.abs(amp - ref)) <= EXACT_AMPLITUDE, (kernel.__name__, t)
            p = np.sum(amp.real**2 + amp.imag**2, axis=0)
            assert np.max(np.abs(p - prob)) <= EXACT_PROBABILITY, (kernel.__name__, t)


@pytest.mark.parametrize("name", EXACT_PROTOCOLS)
def test_both_kernels_read_the_exact_walk(name):
    check_kernels_against_the_exact_walk(name, _exact_times(name))


@pytest.mark.parametrize("name", ["canonical", "three-coin"])
def test_empirical_moments_match_the_exact_moments(name):
    # Orders 0..8 of x / t at t = 99 and 999 as Fractions of the exact walk,
    # against empirical_moment of the package's own read: measured to within
    # 2.2e-16, bound 5e-15.
    spin, protocol = _float_walk(name)
    exact = [read for read in _exact_reads(name, _exact_times(name)) if read[0] in (99, 999)]
    dists = _distributions(spin, protocol, [t for t, *_ in exact])
    for dist, (t, _, _, weight, den) in zip(dists, exact):
        x = range(-t, t + 1, 2)
        for r in range(9):
            moment = Fraction(sum(w * xi**r for w, xi in zip(weight, x)), t**r * den**2)
            assert abs(empirical_moment(dist, r, t) - moment) <= 5e-15, (t, r)


def test_smooth_size_matches_a_brute_force_search():
    top = 20_000
    smooth = []
    for m in range(1, 2 * top):
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            smooth.append(m)
    i = 0
    for n in range(1, top + 1):
        while smooth[i] < n:
            i += 1
        assert _smooth_size(n) == smooth[i], n


# Each FFT read is unitary to rounding at every T, so its norm stays within a
# few ulps; an error of 5e-17 per step, growing with T, would fail this by
# T = 99,999.
DRIFT = 1e-14

# A general coin's cycle, a period of one coin, a period whose only coin
# comes first, three general coins, and the rotation cycles at pi/4, at a
# small angle and near a quarter turn.
DRIFT_PROTOCOLS = {
    "canonical": canonical_protocol(COIN),
    "C": StepProtocol((COIN,)),
    "C-I-I": StepProtocol((COIN, identity_coin(), identity_coin())),
    "three-coin": three_coin_protocol(
        general_coin(1.1, -0.3, 0.7, 0.9), COIN, general_coin(-2.0, 0.5, 1.9, 2.8)
    ),
    "pi/4": three_period_protocol(math.pi / 4),
    "theta=0.05": three_period_protocol(0.05),
    "theta=1.5706": three_period_protocol(1.5706),
}


def check_norm_drift(names, times):
    """The FFT read of each of ``DRIFT_PROTOCOLS[names]`` from the spin
    (0.6, 0.8i) at each of ``times`` holds its ``t + 1`` occupied sites and
    passes ``validate(norm_tol=DRIFT)``: it is finite and its norm is 1 within
    DRIFT.  Its padded ``amplitudes`` are exactly zero on the odd sublattice.
    CI runs "canonical" and "three-coin" at T = 999,999."""
    for name in names:
        for t in times:
            state = evolve(InitialSpin(0.6, 0.8j), DRIFT_PROTOCOLS[name], t)
            assert state.occupied.shape == (2, t + 1)
            state.validate(norm_tol=DRIFT)
            assert np.all(state.amplitudes[:, 1::2] == 0)


def test_fft_norm_drift_at_large_time_for_a_general_coin():
    # This coin's columns have norms squared 1 - 1.1e-16 and 1 - 2.2e-16, a
    # rotation coin's exactly 1.
    check_norm_drift(["canonical"], [99_999])


@pytest.mark.parametrize(
    "name", ["C", "C-I-I", "three-coin", "pi/4", "theta=0.05", "theta=1.5706"]
)
def test_fft_norm_drift_at_large_time_for_any_period(name):
    # T = 99,998 leaves two leftover steps of a period of three.
    check_norm_drift([name], [99_998, 99_999])


# Each kernel's error law: the l2 distance over all amplitudes from the walk
# that tests/_oracles.py::extended_walk computes in long double, in units of
# eps = 2.2e-16.  Stepping walks the float coins as given, and its roundings
# add up as a random walk: sqrt(T) eps.  The FFT read walks the period block's
# SU(2) projection; its error is each momentum's eigenphase rounding times the
# m whole periods: T eps.  The gates run where long double is x87's 80-bit
# format (x86-64 Linux): where it is a double (MSVC) it cannot tell either
# law from its own rounding, and where it is a 128-bit software type
# (aarch64 Linux) the oracle is slow and its time unmeasured.
EPS = np.finfo(np.float64).eps
LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps != 2.0**-63,
    reason="the oracle needs x87's 80-bit long double: a double one cannot "
    "resolve the error laws, and a 128-bit one is slow software",
)


def _l2(amp, ref):
    return float(np.sqrt(np.sum(np.abs(amp - ref) ** 2)))


def _off(floats, exact, den):
    """The l2 distance of the complex ``floats`` from the exact ``exact / den``,
    each of ``exact`` a complex with integer parts."""
    return math.sqrt(
        sum(
            (Fraction(f.real) - Fraction(e.real) / den) ** 2
            + (Fraction(f.imag) - Fraction(e.imag) / den) ** 2
            for f, e in zip(floats, exact)
        )
    )


@LONG_DOUBLE
@pytest.mark.parametrize("name", EXACT_PROTOCOLS)
def test_extended_walk_reads_the_exact_walk(name):
    # The float coins and spin differ from the exact ones by their rounding:
    # d_C (Frobenius) per coin, d_0 for the spin.  Unprojected, the walks then
    # differ by at most d_0 plus d_C summed over the steps taken, as every
    # exact step is unitary and every float one is to 1e-15.  Projected, each
    # whole period's block moves by at most ~4.7x its own error (the phase,
    # the projection and the norm), so 5x bounds it.  eps covers the
    # reference's rounding and the oracle's own.  Measured up to T = 999: at
    # most 0.70 of the unprojected bound (the rounding of a coin adds up
    # coherently, step after step) and 0.12 of the projected one.
    coins, ((alpha, beta), n), _ = EXACT_PROTOCOLS[name]
    spin, protocol = _float_walk(name)
    d_0 = _off((spin.alpha, spin.beta), (alpha, beta), n)
    d_c = []
    for mine, coin in zip(protocol.coins, coins):
        (row_0, row_1), den = coin or (((1, 0), (0, 1)), 1)
        d_c.append(_off(mine.entries, (*row_0, *row_1), den))
    for t, ref, *_ in _exact_reads(name, _exact_times(name)):
        steps = d_0 + sum(d_c[s % len(d_c)] for s in range(t))
        for project, bound in ((False, steps + EPS), (True, 5 * steps + EPS)):
            err = _l2(extended_walk(spin, protocol, t, project=project), ref)
            assert err <= bound, (t, project, err, bound)


# Measured: stepping at most 0.68 sqrt(T) eps on 800 random protocols from
# T = 1 to 2,997 (0.40 from T = 999 on; 0.65 on tier-1's ten), a margin of
# 1.6x; the FFT read 0.096-0.13 T eps at T = 99,999 and 0.077-0.11 at
# 999,999 on CI's three, a margin of 1.9x.
STEPPING_LAW = 1.1
FFT_LAW = 0.25


def check_fft_law(names, times):
    """The FFT read of each of ``DRIFT_PROTOCOLS[names]`` from the spin (0.6,
    0.8i) at each of ``times`` within ``FFT_LAW`` t eps of the walk of its
    period block's SU(2) projection, ``extended_walk(project=True)``.  CI
    runs "pi/4", "canonical" and "three-coin" at T = 999,999."""
    spin = InitialSpin(0.6, 0.8j)
    for name in names:
        for t in times:
            ((_, amp),) = _fourier_reads(spin, DRIFT_PROTOCOLS[name], [t])
            ref = extended_walk(spin, DRIFT_PROTOCOLS[name], t, project=True)
            assert _l2(amp, ref) <= FFT_LAW * t * EPS, (name, t)


@LONG_DOUBLE
def test_stepping_keeps_its_error_law():
    # One stepped pass over each of two random protocols of each kind of
    # random_protocol (periods 1 to 3; rotation, general and three-coin
    # cycles), every read against the float coins' own walk.
    rng = np.random.default_rng(37)
    for i in range(10):
        protocol, spin = random_protocol(rng, i), InitialSpin(*random_spin(rng))
        for t, amp in _stepping(spin, protocol, [1, 2, 3, 17, 99, 999, 2997]):
            ref = extended_walk(spin, protocol, t, project=False)
            assert _l2(amp, ref) <= STEPPING_LAW * math.sqrt(t) * EPS, (i, t)


@LONG_DOUBLE
def test_fft_read_keeps_its_error_law():
    check_fft_law(["pi/4", "canonical", "three-coin"], [99_999])


def test_distribution_is_the_full_width_formula_bit_for_bit():
    rng = np.random.default_rng(47)
    for protocol in PROTOCOLS:
        spin = InitialSpin(*random_spin(rng))
        for t in (0, 1, 2, 3, 49, 50, 297, 298):
            state = evolve(spin, protocol, t)
            amp = state.amplitudes
            full = np.sum(amp.real**2 + amp.imag**2, axis=0)[::2]
            got = distribution(state).probabilities
            assert np.array_equal(got.view(np.uint64), full.view(np.uint64))


def test_period_block_matches_fourier_product():
    # the walk's period block against the per-step matmul product, on every
    # protocol, the identity-coin cycles included
    rng = np.random.default_rng(23)
    k = np.concatenate(([-np.pi, -2.9, -0.4, 0.0, 0.3, 1.7, 3.1, np.pi], rng.uniform(-4, 4, 200)))
    for protocol in PROTOCOLS:
        entries = _block(_steps(protocol), np.exp(-2j * k))
        a, b, c, d = (np.broadcast_to(e, k.shape) for e in entries)
        # Each step's S(k) C carries the phase exp(ik) that the walk factors out.
        phase = np.exp(1j * k * protocol.period)
        for j in range(k.size):
            expected = fourier_product(protocol, k[j])
            block = np.array([[a[j], b[j]], [c[j], d[j]]]) * phase[j]
            assert np.allclose(block, expected, rtol=0, atol=1e-14)


def test_evolve_takes_each_path_on_its_side_of_the_crossover():
    spin = symmetric_spin()
    protocol = canonical_protocol(COIN)
    below = _FOURIER_MIN_STEPS - 1
    dense = [[below], list(range(41)), [3, 17, 40], list(range(0, 601, 10))]
    sparse = [[_FOURIER_MIN_STEPS], [0, 100]]
    for times in dense + sparse:
        reads = list(_walk(spin, protocol, times))
        assert [t for t, _ in reads] == times
        stepped_side = dict(_stepping(spin, protocol, times))
        fourier_side = dict(_fourier_reads(spin, protocol, times))
        if times in dense:
            kernel, other = stepped_side, fourier_side
        else:
            kernel, other = fourier_side, stepped_side
        for t, amp in reads:
            assert amp.shape == (2, t + 1)
            assert np.array_equal(amp, kernel[t])
        # The kernels differ in their last bits, so the choice is visible.
        assert not np.array_equal(amp, other[t])
    state = evolve(spin, protocol, below)
    ((_, slow),) = _stepping(spin, protocol, [below])
    assert np.array_equal(state.amplitudes[:, ::2], slow)
    assert np.all(state.amplitudes[:, 1::2] == 0)
    for steps in (_FOURIER_MIN_STEPS, 999):
        state = evolve(spin, protocol, np.int64(steps))
        assert type(state.t) is int and state.t == steps
        ((_, fast),) = _fourier_reads(spin, protocol, [steps])
        assert np.array_equal(state.amplitudes[:, ::2], fast)
        assert np.all(state.amplitudes[:, 1::2] == 0)


@pytest.mark.parametrize(
    "small, large",
    [
        (-1, -1000),
        (3.0, 1000.0),
        (2.5, 999.5),
        (np.float64(3), np.float64(1000)),
        ("3", "1000"),
    ],
)
def test_bad_steps_fail_alike_on_both_paths(small, large):
    failures = []
    for steps in (small, large):
        with pytest.raises((TypeError, ValueError)) as info:
            evolve(symmetric_spin(), three_period_protocol(1.0), steps)
        failures.append((info.type, str(info.value)))
    assert failures[0] == failures[1]


def _dense_vector(state, t_max):
    vec = np.zeros(2 * (2 * t_max + 1), dtype=complex)
    for i in range(state.t + 1):
        for s in (0, 1):
            vec[dense_index(2 * i - state.t, s, t_max)] = state.occupied[s, i]
    return vec


@pytest.mark.parametrize("coin", [general_coin(0.4, 1.2, 2.2, 1.1), identity_coin()])
def test_step_and_apply_coin_act_on_every_occupied_site(coin):
    # A hand-built state with random amplitudes on every occupied site.
    rng = np.random.default_rng(17)
    t = 4
    occ = rng.normal(size=(2, t + 1)) + 1j * rng.normal(size=(2, t + 1))
    state = WalkState(t, occ)
    expected = dense_step_operator(coin.matrix, t + 1) @ _dense_vector(state, t + 1)
    stepped = step(state, coin)
    assert stepped.occupied.shape == (2, t + 2)
    assert np.allclose(_dense_vector(stepped, t + 1), expected, rtol=0, atol=1e-14)
    # Coin alone, then the oracle's bare shift, is the same full step.
    shift = dense_step_operator(np.eye(2), t + 1)
    coined = shift @ _dense_vector(apply_coin(state, coin), t + 1)
    assert np.allclose(coined, expected, rtol=0, atol=1e-14)
    # The odd-parity sites hold nothing, and a padded array is refused.
    assert np.all(state.spinor(-3) == 0) and np.all(state.spinor(1) == 0)
    assert np.array_equal(state.spinor(2), occ[:, 3])
    for t_bad in (1, t):
        with pytest.raises(ValueError, match=rf"\(2, {t_bad + 1}\)"):
            WalkState(t_bad, np.zeros((2, 2 * t_bad + 1), dtype=complex))


def test_walk_state_refuses_a_non_integer_time():
    occ = np.zeros((2, 5), dtype=complex)
    with pytest.raises(TypeError):
        WalkState(4.0, occ)
    state = WalkState(np.int64(4), occ)
    assert type(state.t) is int and state.amplitudes.shape == (2, 9)
    with pytest.raises(ValueError, match="^time must be nonnegative$"):
        WalkState(-1, np.zeros((2, 0), dtype=complex))


def check_evolve_memory(names, times):
    """One ``evolve`` of each of ``DRIFT_PROTOCOLS[names]`` from the spin
    (0.6, 0.8i) at each of ``times``, by tracemalloc, after one untraced
    call that leaves numpy's FFT plan for the grid cached (~124 kB at
    T = 99,999).  Once it returns the state holds at most 1.1 x 32 (t + 1)
    bytes, its occupied sites (a state padded to (2, 2t + 1) holds twice
    that).  On the way the read peaks at most eight (n,) complex rows,
    8 x 16 n bytes, above its start, n the read's 5-smooth grid, plus
    64 KiB for its small arrays (1.8-2.2 KiB at T = 99,998 to 999,999).
    CI runs "canonical", "C" and "three-coin" at T = 999,998 and 999,999."""
    for name in names:
        for t in times:
            evolve(InitialSpin(0.6, 0.8j), DRIFT_PROTOCOLS[name], t)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                state = evolve(InitialSpin(0.6, 0.8j), DRIFT_PROTOCOLS[name], t)
                held, peak = (m - before for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert state.occupied.shape == (2, t + 1)
            assert held <= 1.1 * 32 * (t + 1), (name, t, held)
            assert peak <= 8 * 16 * _smooth_size(t + 1) + 65_536, (name, t, peak)


def test_evolve_holds_only_the_occupied_sites():
    # A general coin's cycle, a period of one and three general coins; at
    # T = 99,998 two steps of a period of three are left over.
    check_evolve_memory(["canonical", "C", "three-coin"], [99_999, 99_998])


def test_constructors_copy_the_callers_arrays():
    occ = np.array([[0.6], [0.8j]])
    pos, prob = np.array([-1, 1]), np.array([0.25, 0.75])
    state = WalkState(0, occ)
    dist = PositionDistribution(pos, prob, 1)
    for given, held in ((occ, state.occupied), (pos, dist.positions), (prob, dist.probabilities)):
        assert given.flags.writeable and not held.flags.writeable
        given[...] = 0
        assert np.any(held != 0)
    assert state.occupied.tolist() == [[0.6], [0.8j]]
    assert dist.positions.tolist() == [-1, 1]
    assert dist.probabilities.tolist() == [0.25, 0.75]


def test_canonical_protocol_of_rotation_matches_three_period():
    theta = 1.3
    canonical = canonical_protocol(rotation_coin(theta))
    explicit = three_period_protocol(theta)
    for a, b in zip(canonical.coins, explicit.coins):
        assert np.array_equal(a.matrix, b.matrix)


def test_distribution_positions_follow_parity():
    state = evolve(symmetric_spin(), three_period_protocol(0.9), 8)
    assert state.positions().tolist() == list(range(-8, 9))
    dist = distribution(state)
    assert dist.positions.tolist() == list(range(-8, 9, 2))


def test_walkstate_spinor_outside_support_is_zero():
    state = evolve(symmetric_spin(), three_period_protocol(0.9), 4)
    assert np.all(state.spinor(6) == 0)


def test_apply_coin_identity_is_noop():
    state = evolve(symmetric_spin(), three_period_protocol(0.9), 4)
    assert apply_coin(state, identity_coin()) is state


def test_position_distribution_validation():
    with pytest.raises(ValueError):
        PositionDistribution(
            positions=np.array([1, -1]), probabilities=np.array([0.5, 0.5]), t=1
        )
    with pytest.raises(ValueError):
        PositionDistribution(
            positions=np.array([-1, 1]), probabilities=np.array([0.7, 0.5]), t=1
        )
    with pytest.raises(ValueError):
        PositionDistribution(
            positions=np.array([-1, 1]), probabilities=np.array([-0.1, 1.1]), t=1
        )


def test_measured_distribution_is_the_public_constructor_bit_for_bit():
    # _measured skips the checks that hold by construction, not the sum to 1.
    protocol = canonical_protocol(general_coin(0.4, 1.2, 2.2, 2.0))
    for t in (0, 1, 2, 3, 49, 50, 297, 298):
        occupied = evolve(InitialSpin(0.6, 0.8j), protocol, t).occupied
        trusted = _measured(t, occupied)
        public = PositionDistribution(
            positions=np.arange(-t, t + 1, 2),
            probabilities=np.sum(occupied.real**2 + occupied.imag**2, axis=0),
            t=t,
        )
        assert type(trusted) is PositionDistribution and trusted.t == public.t == t
        for name in ("positions", "probabilities"):
            ours, theirs = getattr(trusted, name), getattr(public, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
            assert not ours.flags.writeable
    drifted = occupied * 1.001
    messages = []
    for build in (
        lambda: _measured(t, drifted),
        lambda: PositionDistribution(
            positions=np.arange(-t, t + 1, 2),
            probabilities=np.sum(drifted.real**2 + drifted.imag**2, axis=0),
            t=t,
        ),
    ):
        with pytest.raises(ValueError, match="probabilities sum to") as info:
            build()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
