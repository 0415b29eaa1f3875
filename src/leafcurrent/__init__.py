"""Numerical tools for directed harmonic currents near a hyperbolic singularity.

The package studies positive harmonic currents directed by the foliation
``z dw - lambda w dz = 0`` in the unit bidisc, with ``lambda`` non-real.  It
provides certified quadrature (`quadrature`), sector/half-plane leaf geometry
(`geometry`), boundary-profile currents and their Poisson extensions
(`currents`), the singular integral kernel and its decay bounds (`kernels`),
mass profiles and Lelong-number diagnostics (`mass`), hyperbolic-time
recurrence statistics on leaves (`recurrence`), validated run
configuration (`config`), byte-stable reports (`reports`), and a small CLI
(`cli`).

Every public name of those modules but ``cli``, whose entry points run as
``leafcurrent`` or ``python -m leafcurrent``, is re-exported here from the
module's own ``__all__``; ``leafcurrent.<name>`` is the supported import
surface.
"""

from . import config, currents, geometry, kernels, mass, quadrature, recurrence, reports
from .config import *
from .currents import *
from .geometry import *
from .kernels import *
from .mass import *
from .quadrature import *
from .recurrence import *
from .reports import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *config.__all__,
    *currents.__all__,
    *geometry.__all__,
    *kernels.__all__,
    *mass.__all__,
    *quadrature.__all__,
    *recurrence.__all__,
    *reports.__all__,
]
