"""Exception types shared across the package."""

__all__ = [
    "WalkError",
    "ForbiddenAngle",
    "DegenerateCoin",
    "OutsideSupportHull",
    "EndpointSingularity",
    "DegenerateQuasimomentum",
    "NoGap",
]


class WalkError(Exception):
    """Base class for domain errors raised by this package."""


class ForbiddenAngle(WalkError):
    """Rotation angle at which the walk degenerates (0, pi/2, pi, 3pi/2)."""


class DegenerateCoin(WalkError):
    """Coin matrix unsuitable for the requested construction."""


class OutsideSupportHull(WalkError):
    """Point lies outside the closed support hull of the limit law."""


class EndpointSingularity(WalkError):
    """Density requested too close to a support endpoint, where it diverges."""


class DegenerateQuasimomentum(WalkError):
    """Quasi-momentum at which the two branches of the period block meet
    (``sin th <= 1e-9``); for a rotation coin, ``k = 0`` and ``+-pi``."""


class NoGap(WalkError):
    """The limit law has no forbidden region around the origin for this coin."""
