"""polyqubo: polynomial equation systems as binary optimization problems.

Compile systems of polynomial (and linear) equations into pseudo-Boolean
objectives and QUBO matrices through fixed-point bit encoding and pair
substitution, then solve them with exhaustive enumeration, simulated
annealing, or conjugate gradient.  Includes a generalized-least-squares
regression frontend, a conditioned-linear-system lab, and an iterative
window-refinement loop.

The package exports exactly the modules' ``__all__``, in the order below.
"""

__version__ = "0.1.0"

from . import compiler, encoding, linsys, polysys, regression, solvers
from .compiler import *
from .encoding import *
from .linsys import *
from .polysys import *
from .regression import *
from .solvers import *

__all__ = ["__version__"]
__all__ += polysys.__all__
__all__ += encoding.__all__
__all__ += compiler.__all__
__all__ += solvers.__all__
__all__ += regression.__all__
__all__ += linsys.__all__
