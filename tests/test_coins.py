import math

import numpy as np
import pytest
from _oracles import general_coin_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    UNITARITY_TOLERANCE,
    CoinOperator,
    DegenerateCoin,
    ForbiddenAngle,
    closing_coin,
    general_coin,
    identity_coin,
    rotation_coin,
)
from triwalk.coins import _deviation

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

    # bit for bit the matmul definition, at phases up to 1e3 and at 2^53,
    # where summed phases (gamma + xi) broke unitarity
    rng = np.random.default_rng(28)
    params = [(*rng.uniform(-1e3, 1e3, 3), rng.uniform(0.01, 3.1)) for _ in range(1500)]
    params += [(*rng.uniform(-math.pi, math.pi, 3), rng.uniform(0.01, 3.1)) for _ in range(500)]
    params += [(1.0, 2.0**53, 1.0, 1.0), (2.0**53, -(2.0**53), 2.0**53, 2.0), (0.0, 0.0, 1e3, 0.3)]
    for p in params:
        m = general_coin(*p).matrix
        assert m.tobytes() == general_coin_matrix(*p).tobytes(), p
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12, p

    # a..d are the matrix's entries, bit for bit, whatever built the coin
    swap = CoinOperator(np.array([[0.0, 1.0j], [-1.0j, 0.0]]))
    built = [rotation_coin(theta), coin, identity_coin(), closing_coin(coin), swap]
    for each in built:
        read = np.array([each.a, each.b, each.c, each.d])
        assert read.tobytes() == np.array([complex(e) for e in each.matrix.ravel()]).tobytes()
        assert all(type(e) is complex for e in (each.a, each.b, each.c, each.d))


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


def _near_threshold(n, seed):
    """Unitary coins moved off unitarity by about the tolerance, some just
    inside it and some just outside."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        gamma, delta, xi, theta = rng.uniform(-3.0, 3.0, 4)
        eps = 10.0 ** rng.uniform(-13.5, -11.5)
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        yield general_coin_matrix(gamma, delta, xi, theta) + eps * noise


def test_unitarity_deviation_is_the_matmul_deviation():
    # The oracle is the matmul m^H m - I.  Its BLAS may fuse multiply-adds,
    # and near the tolerance a column's squared norm is a sum near 1, whose
    # ulp is 2.2e-16, so the two may round an ulp or two of 1 apart.  Accept
    # and reject must agree wherever the oracle is further than that from
    # the tolerance (with a fused BLAS, every verdict here agrees, and one
    # in 20,000 such matrices differed, 8.9e-17 past the tolerance).
    band = 2 * np.finfo(float).eps
    verdicts = []
    for m in _near_threshold(4000, seed=30):
        oracle = np.abs(m.conj().T @ m - np.eye(2)).max()
        deviation = _deviation(*m.ravel().tolist())
        assert abs(deviation - oracle) <= band
        try:
            CoinOperator(m)
            accepted = True
        except ValueError as err:
            assert str(err) == f"coin matrix is not unitary (deviation {deviation:.3e})"
            accepted = False
        if abs(oracle - UNITARITY_TOLERANCE) > band:
            assert accepted == (oracle <= UNITARITY_TOLERANCE)
        verdicts.append(accepted)
    assert 1000 < sum(verdicts) < 3000


@pytest.mark.parametrize(
    "entries",
    [
        # the matmul's NaN let these through before
        [[1e200 + 1e200j, 1e200 - 1e200j], [0.0, 1.0]],
        [[1e155 + 1e155j, 1e155 - 1e155j], [1.0, 1.0]],
        # an inner product whose complex abs overflows
        [[9e153 + 9e153j, 9e153 + 9e153j], [9e153 + 9e153j, 9e153 - 9e153j]],
    ],
)
def test_overflowing_entries_are_not_unitary(entries):
    with pytest.raises(ValueError, match=r"not unitary \(deviation inf\)"):
        CoinOperator(np.array(entries, dtype=complex))


def test_is_identity_reads_the_entries():
    signed_zero = CoinOperator(np.array([[1.0, -0.0], [-0.0, 1.0]], dtype=complex))
    assert signed_zero.kind == "custom" and signed_zero.is_identity()
    assert not CoinOperator(np.diag([1.0, -1.0])).is_identity()
    assert not CoinOperator(np.diag([1.0, 1j])).is_identity()
    assert not rotation_coin(0.7).is_identity()


def test_matrix_is_read_only():
    coin = rotation_coin(1.0)
    with pytest.raises(ValueError):
        coin.matrix[0, 0] = 0.0
