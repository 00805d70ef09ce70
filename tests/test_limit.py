import math

import numpy as np
import pytest

from triwalk import (
    DegenerateCoin,
    EndpointSingularity,
    InitialSpin,
    LimitModel,
    OutsideSupportHull,
    envelope_density,
    general_coin,
    identity_coin,
    limit,
    limit_cdf,
    limit_density,
    radicand,
    rotation_coin,
    spin_weight,
    support_intervals,
    symmetric_spin,
)

from _oracles import random_safe_angle, random_spin


def test_model_rejects_coins_with_zero_entries():
    with pytest.raises(DegenerateCoin):
        LimitModel(identity_coin(), symmetric_spin())


def test_effective_spin_is_plain_spin_for_first_quadrant_rotation(pi4_model):
    assert pi4_model.effective_spin == (pi4_model.spin.alpha, pi4_model.spin.beta)
    assert pi4_model.a_abs == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert pi4_model.b_abs == pytest.approx(math.sin(math.pi / 4), abs=1e-15)


def test_support_intervals_pi4(pi4_model):
    intervals = support_intervals(pi4_model)
    lo, hi = intervals.positive
    assert lo == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-12)
    assert intervals.negative == (-hi, -lo)
    assert intervals.gap is None
    assert intervals.hull == (-hi, hi)


def test_support_intervals_two_pi_fifths(gap_model):
    lo, hi = support_intervals(gap_model).positive
    assert lo == pytest.approx(0.2060113295832983, abs=1e-12)
    assert hi == pytest.approx(0.4427103420346850, abs=1e-12)
    gap = support_intervals(gap_model).gap
    assert gap == pytest.approx((-lo, lo))


def test_support_touches_origin_at_gap_threshold():
    # q = 1/4 exactly: the branches meet at the origin, no gap either side
    model = LimitModel(rotation_coin(math.pi / 3), symmetric_spin())
    intervals = support_intervals(model)
    assert intervals.positive[0] == pytest.approx(0.0, abs=1e-15)
    assert intervals.gap is None
    assert limit_density(model, 0.01) > 0.0


def test_support_intervals_nonempty_for_random_models():
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = LimitModel(rotation_coin(random_safe_angle(rng)), symmetric_spin())
        lo, hi = support_intervals(model).positive
        assert lo < hi
        # equivalent to |1 - 4 a^2| < sqrt(1 + 8 a^2)
        assert abs(lo) < hi


def test_radicand_values(pi4_model):
    assert radicand(pi4_model, 0.0) == pytest.approx(5.0, abs=1e-12)
    assert radicand(pi4_model, 0.9) == pytest.approx(1.355, abs=1e-12)


def test_radicand_at_positive_endpoint_equals_identity(pi4_model, gap_model):
    for model in (pi4_model, gap_model):
        q = model.a_abs**2
        hi = support_intervals(model).positive[1]
        expected = (1.0 + 8.0 * q) * (1.0 - q)
        assert radicand(model, hi) == pytest.approx(expected, rel=1e-12)


def test_radicand_outside_reach_raises(pi4_model):
    # the radicand root sits at sqrt(1+8q)/(3 sqrt(q)) > 1 for q = 1/2
    with pytest.raises(OutsideSupportHull):
        radicand(pi4_model, 1.2)


def test_spin_weight_vanishes_for_symmetric_spin():
    for theta in (0.4, math.pi / 4, 2 * math.pi / 5, 2.0, 5.1):
        model = LimitModel(rotation_coin(theta), symmetric_spin())
        xs = np.linspace(-0.4, 0.4, 17)
        assert np.max(np.abs(spin_weight(model, xs))) <= 1e-15


def test_spin_weight_value_for_spin_up(leftward_model):
    assert spin_weight(leftward_model, 0.0) == pytest.approx(
        math.sqrt(10.0) / 10.0, abs=1e-13
    )


def test_spin_weight_matches_rotation_for_phase_free_general_coin():
    theta = 1.1
    spin = InitialSpin(0.6, 0.8j)
    rot = LimitModel(rotation_coin(theta), spin)
    gen = LimitModel(general_coin(0, 0, 0, theta), spin)
    xs = np.linspace(-0.5, 0.5, 11)
    assert np.array_equal(spin_weight(rot, xs), spin_weight(gen, xs))


def test_envelope_density_guards(pi4_model):
    lo, hi = support_intervals(pi4_model).positive
    with pytest.raises(EndpointSingularity):
        envelope_density(pi4_model, hi - 1e-13)
    with pytest.raises(OutsideSupportHull):
        envelope_density(pi4_model, hi + 0.05)


def test_envelope_density_known_value(pi4_model):
    # at x = 0 the envelope is sqrt(2)/(2 pi)
    assert envelope_density(pi4_model, 0.0) == pytest.approx(
        math.sqrt(2.0) / (2.0 * math.pi), rel=1e-13
    )


def test_limit_density_zero_off_support(gap_model):
    assert limit_density(gap_model, 0.9) == 0.0
    assert limit_density(gap_model, -0.9) == 0.0
    assert limit_density(gap_model, 0.1) == 0.0  # inside the gap
    assert limit_density(gap_model, 0.0) == 0.0


def test_limit_density_endpoint_guard(gap_model):
    hi = support_intervals(gap_model).positive[1]
    with pytest.raises(EndpointSingularity):
        limit_density(gap_model, hi)
    with pytest.raises(EndpointSingularity):
        limit_density(gap_model, -hi + 1e-14)


def test_limit_density_symmetric_for_symmetric_spin(pi4_model, gap_model):
    for model in (pi4_model, gap_model):
        xs = np.linspace(0.05, 0.72, 40)
        xs = xs[
            np.min(
                np.abs(xs[:, None] - support_intervals(model).endpoint_values()),
                axis=1,
            )
            > 1e-6
        ]
        left = limit_density(model, -xs)
        right = limit_density(model, xs)
        assert np.max(np.abs(left - right)) <= 1e-15


def test_limit_density_overlapping_branches_at_origin(pi4_model):
    # both indicator intervals cover 0, so the density doubles the envelope
    assert limit_density(pi4_model, 0.0) == pytest.approx(
        math.sqrt(2.0) / math.pi, rel=1e-13
    )


@pytest.mark.parametrize("coin", [rotation_coin(math.pi / 4), general_coin(0.3, -1.1, 0.7, 1.3)])
def test_limit_density_forms_one_radicand_per_branch(monkeypatch, coin):
    model = LimitModel(coin, InitialSpin(0.6, 0.8j))
    x = -1.0 + (np.arange(2001) + 0.5) / 1000.5
    lo, hi = support_intervals(model).positive
    expected = np.zeros_like(x)
    for sign in (1.0, -1.0):  # the two branches, read through the public forms
        on = (sign * x > lo) & (sign * x < hi)
        xs = sign * x[on]
        expected[on] += (1.0 - sign * spin_weight(model, xs)) * envelope_density(model, xs)
    calls = []

    def counted(model, x):
        calls.append(x.size)
        return radicand(model, x)

    monkeypatch.setattr(limit, "radicand", counted)
    assert np.array_equal(limit_density(model, x), expected)
    assert len(calls) == 2


def test_limit_density_nonnegative_random_models():
    rng = np.random.default_rng(9)
    for _ in range(50):
        theta = random_safe_angle(rng)
        alpha, beta = random_spin(rng)
        model = LimitModel(rotation_coin(theta), InitialSpin(alpha, beta))
        endpoints = support_intervals(model).endpoint_values()
        xs = np.linspace(-0.999, 0.999, 10_000)
        xs = xs[np.min(np.abs(xs[:, None] - endpoints[None, :]), axis=1) > 1e-9]
        assert float(np.min(limit_density(model, xs))) >= -1e-12


def test_general_coin_zero_phases_reduces_pointwise():
    rng = np.random.default_rng(21)
    for _ in range(5):
        theta = random_safe_angle(rng)
        alpha, beta = random_spin(rng)
        spin = InitialSpin(alpha, beta)
        rot = LimitModel(rotation_coin(theta), spin)
        gen = LimitModel(general_coin(0, 0, 0, theta), spin)
        endpoints = support_intervals(rot).endpoint_values()
        xs = np.linspace(-0.98, 0.98, 197)
        xs = xs[np.min(np.abs(xs[:, None] - endpoints[None, :]), axis=1) > 1e-9]
        assert np.max(
            np.abs(limit_density(rot, xs) - limit_density(gen, xs))
        ) <= 1e-13


def test_phase_covariance_of_general_coin_density():
    rng = np.random.default_rng(22)
    for _ in range(20):
        gamma, delta, xi = rng.uniform(0.0, 2.0 * math.pi, 3)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha, beta = random_spin(rng)
        gen = LimitModel(general_coin(gamma, delta, xi, theta), InitialSpin(alpha, beta))
        rot = LimitModel(
            rotation_coin(theta),
            InitialSpin(alpha * np.exp(1j * xi), beta * np.exp(-1j * xi)),
        )
        endpoints = support_intervals(gen).endpoint_values()
        xs = np.linspace(-0.95, 0.95, 173)
        xs = xs[np.min(np.abs(xs[:, None] - endpoints[None, :]), axis=1) > 1e-9]
        left = limit_density(gen, xs)
        right = limit_density(rot, xs)
        # roundoff scales with the density, which blows up near endpoints
        assert np.all(np.abs(left - right) <= 1e-12 + 1e-12 * np.abs(right))


def test_density_integrates_to_one(pi4_model, gap_model, leftward_model):
    from scipy.integrate import quad

    for model in (pi4_model, gap_model, leftward_model):
        lo, hi = support_intervals(model).positive
        interior = [p for p in (lo, -lo) if -hi < p < hi]
        total, _ = quad(
            lambda x: limit_density(model, x),
            -hi + 1e-9,
            hi - 1e-9,
            points=sorted(interior),
            limit=400,
            epsabs=1e-10,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_density_against_cdf_derivative_oracle(pi4_model, gap_model):
    # Richardson-extrapolated central difference of the momentum-space CDF.
    def oracle(model, x, d=4e-3):
        wide = (limit_cdf(model, x + d) - limit_cdf(model, x - d)) / (2 * d)
        tight = (limit_cdf(model, x + d / 2) - limit_cdf(model, x - d / 2)) / d
        return (4.0 * tight - wide) / 3.0

    assert limit_density(pi4_model, 0.5) == pytest.approx(
        oracle(pi4_model, 0.5), abs=1e-6
    )
    midpoint = sum(support_intervals(gap_model).positive) / 2.0
    assert midpoint == pytest.approx(0.3243608, abs=1e-6)
    assert limit_density(gap_model, midpoint) == pytest.approx(
        oracle(gap_model, midpoint), abs=1e-6
    )
    # frozen regression values, originally computed from the oracle above
    assert limit_density(pi4_model, 0.5) == pytest.approx(0.36607202, abs=1e-6)
    assert limit_density(gap_model, midpoint) == pytest.approx(1.32452682, abs=1e-6)
