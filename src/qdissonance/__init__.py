"""Quantum dissonance from classical correlations.

Construct separable Werner states, decompose them into product
components, generate them from classically correlated inputs via local
Kraus channels or local unitaries, and certify the nonzero quantum
discord of the result with entropic measures and correlation-matrix
witnesses.
"""

__version__ = "0.1.0"

from . import correlations, protocols, qla, statefile, states, witness
from .qla import *
from .states import *
from .correlations import *
from .witness import *
from .protocols import *
from .statefile import *

# The public API is the union of the modules' own __all__ lists.
__all__ = [
    "__version__",
    *qla.__all__,
    *states.__all__,
    *correlations.__all__,
    *witness.__all__,
    *protocols.__all__,
    *statefile.__all__,
]
