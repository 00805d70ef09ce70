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
from dataclasses import dataclass, field

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
    entries:
        ``(a, b, c, d)`` as Python complex numbers, read once here; the
        kernels read these, not ``matrix``.
    """

    matrix: np.ndarray
    kind: str = "custom"
    params: tuple[float, ...] = ()
    entries: tuple[complex, complex, complex, complex] = field(init=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"coin matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("coin matrix entries must be finite")
        entries = tuple(m.ravel().tolist())
        deviation = _deviation(*entries)
        if deviation > UNITARITY_TOLERANCE:
            raise ValueError(
                f"coin matrix is not unitary (deviation {deviation:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "entries", entries)

    @property
    def a(self) -> complex:
        return self.entries[0]

    @property
    def b(self) -> complex:
        return self.entries[1]

    @property
    def c(self) -> complex:
        return self.entries[2]

    @property
    def d(self) -> complex:
        return self.entries[3]

    def is_identity(self) -> bool:
        """True when applying this coin moves no amplitude at all."""
        return self.entries == (1, 0, 0, 1)

    def label(self) -> str:
        """Short deterministic description used in reports and file headers."""
        if self.params:
            inside = ", ".join(format(p, ".17g") for p in self.params)
            return f"{self.kind}({inside})"
        return self.kind


def _deviation(a: complex, b: complex, c: complex, d: complex) -> float:
    """Largest modulus in ``m^H m - I``, ``m = [[a, b], [c, d]]``, from the
    entries, with no matrix product.  ``math.hypot`` is numpy's complex abs,
    and gives ``inf`` where ``abs`` would raise on overflow."""
    return max(
        math.hypot(z.real, z.imag)
        for z in (
            a.conjugate() * a + c.conjugate() * c - 1.0,
            a.conjugate() * b + c.conjugate() * d,
            b.conjugate() * b + d.conjugate() * d - 1.0,
        )
    )


def _rotation(theta: float) -> np.ndarray:
    """``[[cos, sin], [sin, -cos]]`` at ``theta``, refused within
    :data:`ANGLE_TOLERANCE` of a multiple of pi/2."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    # the remainder is exact and odd in theta, so -theta is refused with theta
    if abs(math.remainder(theta, 0.5 * math.pi)) <= ANGLE_TOLERANCE:
        raise ForbiddenAngle(
            f"angle {theta!r} is within {ANGLE_TOLERANCE} of a multiple of "
            "pi/2, where the walk is trivial"
        )
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


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
    return CoinOperator(_rotation(theta), kind="rotation", params=(float(theta),))


def general_coin(gamma: float, delta: float, xi: float, theta: float) -> CoinOperator:
    """General unitary coin ``diag(e^{i*gamma}, e^{i*delta}) @ R(theta) @ diag(e^{i*xi}, e^{-i*xi})``.

    ``R(theta)`` is the rotation coin.  Entrywise this is
    ``a = e^{i(gamma+xi)} cos(theta)``, ``b = e^{i(gamma-xi)} sin(theta)``,
    ``c = e^{i(delta+xi)} sin(theta)``, ``d = -e^{i(delta-xi)} cos(theta)``.
    It is built entrywise: each phase scales one row or one column of
    ``R(theta)`` and is never summed with another, so large phases keep it
    unitary.  With all phases zero it is bit-identical to
    ``rotation_coin(theta)``.
    """
    m = _rotation(theta)
    m[0] *= cmath.exp(1j * gamma)
    m[1] *= cmath.exp(1j * delta)
    m[:, 0] *= cmath.exp(1j * xi)
    m[:, 1] *= cmath.exp(-1j * xi)
    return CoinOperator(
        m, kind="general", params=(float(gamma), float(delta), float(xi), float(theta))
    )


def identity_coin() -> CoinOperator:
    """Coin that leaves the spin untouched; a step with it is a bare shift."""
    return CoinOperator(np.eye(2), kind="identity")


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
