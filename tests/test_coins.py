import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    CoinOperator,
    DegenerateCoin,
    ForbiddenAngle,
    closing_coin,
    general_coin,
    identity_coin,
    rotation_coin,
)

SQ2 = math.sqrt(2.0) / 2.0

# Angles clear of the forbidden multiples of pi/2.
safe_angles = st.floats(min_value=0.02, max_value=2 * math.pi - 0.02).filter(
    lambda t: min(abs(t - a) for a in (0, math.pi / 2, math.pi, 1.5 * math.pi)) > 1e-6
)
phases = st.floats(min_value=0.0, max_value=2 * math.pi)


def test_rotation_pi_over_4():
    coin = rotation_coin(math.pi / 4)
    expected = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    assert np.max(np.abs(coin.matrix - expected)) < 1e-15
    assert coin.kind == "rotation"
    assert coin.params == (math.pi / 4,)


def test_rotation_two_pi_fifths_entries():
    coin = rotation_coin(2 * math.pi / 5)
    assert coin.a == pytest.approx(0.30901699437494745, abs=1e-15)
    assert coin.b == pytest.approx(0.9510565162951535, abs=1e-15)
    assert coin.c == pytest.approx(0.9510565162951535, abs=1e-15)
    assert coin.d == pytest.approx(-0.30901699437494745, abs=1e-15)


@pytest.mark.parametrize(
    "theta",
    [
        *(0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi),
        *(1e-10, math.pi / 2 + 5e-10, -math.pi),
        # the tolerance holds on both sides of each multiple
        *(-1e-9, 1e-9, -math.pi / 2 - 5e-10, -1.5 * math.pi),
    ],
)
def test_forbidden_angles_rejected(theta):
    with pytest.raises(ForbiddenAngle):
        rotation_coin(theta)
    with pytest.raises(ForbiddenAngle):
        general_coin(0.3, 0.1, 0.2, theta)
    with pytest.raises(ForbiddenAngle):
        general_coin(0, 0, 0, theta)


def test_nearly_trivial_angle_allowed():
    rotation_coin(math.pi / 2 + 1e-6)


def test_general_with_zero_phases_is_bitwise_rotation():
    theta = 2 * math.pi / 5
    assert np.array_equal(general_coin(0, 0, 0, theta).matrix, rotation_coin(theta).matrix)


def test_general_phase_multiplies_rows():
    theta = 2 * math.pi / 5
    rot = rotation_coin(theta).matrix
    coin = general_coin(math.pi / 4, 0.0, 0.0, theta)
    phase = np.exp(1j * math.pi / 4)
    assert np.max(np.abs(coin.matrix[0] - phase * rot[0])) < 1e-15
    assert np.max(np.abs(coin.matrix[1] - rot[1])) < 1e-15


def test_general_matches_stated_entry_formulas():
    gamma, delta, xi, theta = 0.7, 1.9, 2.3, 1.1
    coin = general_coin(gamma, delta, xi, theta)
    c, s = math.cos(theta), math.sin(theta)
    assert coin.a == pytest.approx(np.exp(1j * (gamma + xi)) * c, abs=1e-14)
    assert coin.b == pytest.approx(np.exp(1j * (gamma - xi)) * s, abs=1e-14)
    assert coin.c == pytest.approx(np.exp(1j * (delta + xi)) * s, abs=1e-14)
    assert coin.d == pytest.approx(-np.exp(1j * (delta - xi)) * c, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(gamma=phases, delta=phases, xi=phases, theta=safe_angles)
def test_general_coin_unitary(gamma, delta, xi, theta):
    coin = general_coin(gamma, delta, xi, theta)
    deviation = np.abs(coin.matrix.conj().T @ coin.matrix - np.eye(2)).max()
    assert deviation <= 1e-12


def test_closing_of_rotation_is_exact_identity():
    # |a|^2 from the numerator's own products: ~1 in 1,000 sampled angles
    # missed the identity by an ulp when it was formed as abs(a) ** 2
    sampled = np.random.default_rng(22).uniform(0.01, 3.1, 20_000).tolist()
    for theta in (0.3, math.pi / 4, 2 * math.pi / 5, 2.8, 4.0, *sampled):
        closed = closing_coin(rotation_coin(theta))
        assert np.array_equal(closed.matrix, np.eye(2, dtype=complex))
        assert closed.is_identity()


def test_closing_diagonal_value():
    # a = e^{i pi/4}/sqrt(2), d = -e^{-i pi/4}/sqrt(2) gives diag(1, -i).
    coin = general_coin(math.pi / 4, -math.pi / 4, 0.0, math.pi / 4)
    closed = closing_coin(coin)
    assert closed.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert closed.matrix[1, 1] == pytest.approx(-1j, abs=1e-14)
    assert abs(closed.matrix[0, 1]) == 0.0
    assert abs(closed.matrix[1, 0]) == 0.0


def test_closing_degenerate_when_top_left_vanishes():
    swap = CoinOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(DegenerateCoin):
        closing_coin(swap)


@settings(max_examples=100, deadline=None)
@given(gamma=phases, delta=phases, xi=phases, theta=safe_angles)
def test_closing_coin_is_unimodular_diagonal(gamma, delta, xi, theta):
    closed = closing_coin(general_coin(gamma, delta, xi, theta))
    assert abs(closed.matrix[0, 1]) == 0.0
    assert abs(closed.matrix[1, 0]) == 0.0
    assert abs(abs(closed.matrix[1, 1]) - 1.0) <= 1e-12


def test_identity_coin():
    coin = identity_coin()
    assert coin.is_identity()
    assert np.array_equal(coin.matrix, np.eye(2, dtype=complex))


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValueError):
        CoinOperator(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_matrix_is_read_only():
    coin = rotation_coin(1.0)
    with pytest.raises(ValueError):
        coin.matrix[0, 0] = 0.0
