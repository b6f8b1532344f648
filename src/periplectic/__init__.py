"""Exact calibrated representations of the two-strand degenerate affine
periplectic Brauer algebra, over the Gaussian rationals.

The package builds the seeded two-parameter family of modules, checks the
defining relations exactly, analyzes coupling-matrix zero patterns, decides
indecomposability and isomorphism in the regular cases, and computes
canonical orbit representatives under monomial basis changes.
"""

from .algebra import *
from .classify import *
from .errors import *
from .linalg import *
from .reps import *
from .rhizome import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        *algebra.__all__,
        *classify.__all__,
        *errors.__all__,
        *linalg.__all__,
        *reps.__all__,
        *rhizome.__all__,
    }
)
