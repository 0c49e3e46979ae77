"""chainopt: incremental subgradient optimization driven by Markov chains.

Minimizes a weighted sum of convex functions over a box by letting one
or more finite Markov chains pick which component's subgradient to apply
at each iteration, averaging the parallel updates, and projecting. Ships
exact chain analysis (recurrent classes, periods, Cesaro and power
limits), the weight computation that ties chain statistics to the
objective, seeded reproducible runs, and a benchmark study harness.
"""

# Each module's __all__ is its public API; the package republishes them whole.
from .markov import *
from .problems import *
from .optimizer import *
from .harness import *

__version__ = "0.1.0"
