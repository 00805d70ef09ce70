"""Coin operators for two-state quantum walks on the line.

A coin is a 2x2 unitary acting on the internal (spin) degree of freedom
between position shifts.  Every constructor returns a :class:`CoinOperator`,
which validates unitarity on construction and records how it was built, so
downstream code can specialise (the closed-form limit law, for instance,
wants the phase/rotation split of a general unitary coin).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoin, ForbiddenAngle

__all__ = [
    "CoinOperator",
    "rotation_coin",
    "general_coin",
    "identity_coin",
    "closing_coin",
    "ANGLE_TOLERANCE",
    "UNITARITY_TOLERANCE",
]

ANGLE_TOLERANCE = 1e-9
UNITARITY_TOLERANCE = 1e-12

_IDENTITY = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class CoinOperator:
    """A validated 2x2 unitary with a record of its construction.

    Attributes
    ----------
    matrix:
        Read-only complex array ``[[a, b], [c, d]]``.
    kind:
        One of ``"rotation"``, ``"general"``, ``"identity"``, ``"closing"``
        or ``"custom"``.
    params:
        Construction parameters (angles, phases) when applicable.
    """

    matrix: np.ndarray
    kind: str = "custom"
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"coin matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("coin matrix entries must be finite")
        deviation = np.abs(m.conj().T @ m - _IDENTITY).max()
        if deviation > UNITARITY_TOLERANCE:
            raise ValueError(
                f"coin matrix is not unitary (deviation {deviation:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def a(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def b(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def c(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def d(self) -> complex:
        return complex(self.matrix[1, 1])

    def is_identity(self) -> bool:
        """True when applying this coin moves no amplitude at all."""
        return self.kind == "identity" or bool(
            np.array_equal(self.matrix, _IDENTITY)
        )

    def label(self) -> str:
        """Short deterministic description used in reports and file headers."""
        if self.params:
            inside = ", ".join(format(p, ".17g") for p in self.params)
            return f"{self.kind}({inside})"
        return self.kind


def _reject_trivial_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    # the remainder is exact and odd in theta, so -theta is refused with theta
    if abs(math.remainder(theta, 0.5 * math.pi)) <= ANGLE_TOLERANCE:
        raise ForbiddenAngle(
            f"angle {theta!r} is within {ANGLE_TOLERANCE} of a multiple of "
            "pi/2, where the walk is trivial"
        )


def rotation_coin(theta: float) -> CoinOperator:
    """Real rotation-type coin ``[[cos, sin], [sin, -cos]]``.

    Parameters
    ----------
    theta:
        Rotation angle in radians.  Multiples of pi/2 are rejected
        (within :data:`ANGLE_TOLERANCE`) because the walk they generate
        is trivial.

    Raises
    ------
    ForbiddenAngle
        If ``theta`` is too close to a multiple of pi/2.
    """
    _reject_trivial_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[c, s], [s, -c]], dtype=np.complex128)
    return CoinOperator(m, kind="rotation", params=(float(theta),))


def general_coin(gamma: float, delta: float, xi: float, theta: float) -> CoinOperator:
    """General unitary coin ``diag(e^{i*gamma}, e^{i*delta}) @ R(theta) @ diag(e^{i*xi}, e^{-i*xi})``.

    ``R(theta)`` is the rotation coin.  Entrywise this is
    ``a = e^{i(gamma+xi)} cos(theta)``, ``b = e^{i(gamma-xi)} sin(theta)``,
    ``c = e^{i(delta+xi)} sin(theta)``, ``d = -e^{i(delta-xi)} cos(theta)``.
    With all phases zero the result is bit-identical to
    ``rotation_coin(theta)``.
    """
    _reject_trivial_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [s, -c]], dtype=np.complex128)
    left = np.array(
        [[cmath.exp(1j * gamma), 0.0], [0.0, cmath.exp(1j * delta)]],
        dtype=np.complex128,
    )
    right = np.array(
        [[cmath.exp(1j * xi), 0.0], [0.0, cmath.exp(-1j * xi)]],
        dtype=np.complex128,
    )
    m = left @ rot @ right
    return CoinOperator(
        m, kind="general", params=(float(gamma), float(delta), float(xi), float(theta))
    )


def identity_coin() -> CoinOperator:
    """Coin that leaves the spin untouched; a step with it is a bare shift."""
    return CoinOperator(_IDENTITY.copy(), kind="identity")


def closing_coin(coin: CoinOperator) -> CoinOperator:
    """Diagonal coin ``diag(1, -conj(a) d / |a|^2)`` that closes a three-step cycle.

    Used as the third coin of the cycle ``[coin, coin, closing_coin(coin)]``.
    ``|a|^2`` comes from the numerator's own products, so for a real rotation
    coin at any angle it is exactly the identity: a shift-only third step.

    Raises
    ------
    DegenerateCoin
        If the top-left entry of ``coin`` vanishes, so the construction
        is undefined.
    """
    a = coin.a
    if abs(a) <= 1e-12:
        raise DegenerateCoin(
            "closing coin undefined: top-left coin entry is (numerically) zero"
        )
    lower = -(a.conjugate() * coin.d) / (a.real * a.real + a.imag * a.imag)
    m = np.array([[1.0, 0.0], [0.0, lower]], dtype=np.complex128)
    return CoinOperator(m, kind="closing")
