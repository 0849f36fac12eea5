"""hardylab: a desk-scale numerical laboratory for local Hardy spaces.

Subpackages cover the uniform-grid substrate (grid), moments and polynomial
projections (moments), small/grand maximal functions (maximal), atoms and
molecule checks (atoms), linear operators and cancellation tests (operators),
the one thread pool (pool), and the experiment harness (experiments, cli).
"""

from .errors import ConfigError, NumericalError
from .grid import Ball, GridFunction, GridSpec

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "ConfigError",
    "GridFunction",
    "GridSpec",
    "NumericalError",
    "__version__",
]
