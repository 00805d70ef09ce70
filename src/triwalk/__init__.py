"""Two-state quantum walk on the integer line with periodic coin sequences.

Exact state-vector simulation, the closed-form long-time law of the
three-step cycle ``[coin, coin, closing]``, and diagnostics quantifying
how fast the finite-time walk converges to it.

Each module's ``__all__`` is its public API; the package re-exports all
of them.
"""

from . import analysis, coins, errors, kspace, limit, walk
from .analysis import *  # noqa: F403
from .coins import *  # noqa: F403
from .errors import *  # noqa: F403
from .kspace import *  # noqa: F403
from .limit import *  # noqa: F403
from .walk import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coins.__all__,
    *walk.__all__,
    *limit.__all__,
    *kspace.__all__,
    *analysis.__all__,
    *errors.__all__,
]
