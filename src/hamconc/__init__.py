"""Concentration bounds for weighted Hamming distances, verified exactly.

The package pairs a family of closed-form concentration bounds (tail
bounds for the weighted Hamming distance to a set, median- and
mean-centered tail bounds for Lipschitz functionals, a mean-median gap
bound, moment-generating-function and self-bounding inequalities) with
exact enumeration on small finite product spaces, so every inequality
can be checked end to end instead of taken on faith.

Typical entry points: build a :class:`FiniteSpace`, a
:class:`Distribution`, and :class:`AlphaWeights`, wrap a target in a
:class:`Scenario`, and call :func:`verify_scenario`; or evaluate a
single bound via :func:`evaluate_bound`.  The ``hamconc`` command line
wraps the same flows.
"""

from . import bounds, estimators, functionals, hamming, scenario_io, space, verify
from .bounds import *  # noqa: F403
from .estimators import *  # noqa: F403
from .functionals import *  # noqa: F403
from .hamming import *  # noqa: F403
from .scenario_io import *  # noqa: F403
from .space import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ names its public API once; the package exports their union.
__all__ = [
    "__version__",
    *bounds.__all__,
    *estimators.__all__,
    *functionals.__all__,
    *hamming.__all__,
    *scenario_io.__all__,
    *space.__all__,
    *verify.__all__,
]
