"""Zero modes of two-component (Dirac-Weyl type) operators on the line and
in the radially symmetric plane, for compactly supported magnetic fields.

The package builds the scalar potential lambda by Green-kernel convolution,
constructs the candidate zero modes exp(+-lambda_k) and r^j exp(-lambda),
decides normalizability from exact asymptotics, and cross-checks every
count against an independent discretized spectral oracle.  Every
convolution is a closed form over cumulative moments of the field, computed
in one vectorized Gauss-Kronrod pass (``zml._quadrature``).
"""

from . import errors, potential, profiles, reduction, spectral, zeromodes
from .errors import *       # noqa: F401,F403
from .profiles import *     # noqa: F401,F403
from .potential import *    # noqa: F401,F403
from .zeromodes import *    # noqa: F401,F403
from .spectral import *     # noqa: F401,F403
from .reduction import *    # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, profiles, potential, zeromodes, spectral, reduction):
    __all__ += _module.__all__
del _module
