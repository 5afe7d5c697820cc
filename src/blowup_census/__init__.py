"""Exact induced 4-cycle censuses of nested blow-up graphs.

Build nested blow-ups of small base graphs (the 4-cycle, the theta graph
with three length-2 spokes, or any simple graph from an edge list), count
induced 4-cycles by two independent exact algorithms, and cross-verify the
counts against closed-form formulas evaluated over arbitrary-precision
integers.
"""

from . import counting, formulas, graphs, report
from ._version import __version__
from .counting import *  # noqa: F401,F403
from .formulas import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *graphs.__all__,
    *counting.__all__,
    *formulas.__all__,
    *report.__all__,
]
