"""Distances between finite metric measure spaces and distance matrices:
matrix metrics with exclusions, optimal couplings, gluing-based space
bounds, sampling, relative entropy, and an experiment harness.
"""

from . import core, coupling, entropy, ghp, matmetric, sampling
from .core import *
from .coupling import *
from .entropy import *
from .ghp import *
from .matmetric import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *coupling.__all__,
    *entropy.__all__,
    *ghp.__all__,
    *matmetric.__all__,
    *sampling.__all__,
]
