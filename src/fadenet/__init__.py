"""High-SNR capacity analysis of non-coherent fading networks.

The package answers one question about a network whose fading matrix has a
fixed zero pattern and is known to nobody: how fast can reliable
communication scale when the power budget grows without bound?  The answer
is combinatorial.  The longest "power chain" of the zero pattern, an ordered
set of transmitters each reaching some receiver its predecessors miss, sets
the coefficient of the log log SNR capacity growth.  Everything here orbits
that fact: exact chain computation, layered power allocations realizing the
growth, analytic rate bounds in both directions, and seeded Monte Carlo
estimates sitting between them.

All rates are in nats; all logarithms are natural.
"""

from . import bounds, fading, powerchain, simulate, topology
from .topology import *  # noqa: F403
from .powerchain import *  # noqa: F403
from .fading import *  # noqa: F403
from .bounds import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *topology.__all__,
    *powerchain.__all__,
    *fading.__all__,
    *bounds.__all__,
    *simulate.__all__,
    "__version__",
]
