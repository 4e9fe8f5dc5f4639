"""Recovery of 2D signals from binomially erased row-transform data.

The package covers the full loop: unitary transforms on a grid, random
erasure of transform rows' entries, L1-minimization recovery with and
without certificates, tail bounds for the erasure statistics, and the Monte
Carlo experiment harness the CLI drives.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import channel, probbounds, recovery, signal, transforms
from .signal import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .probbounds import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403

__all__ = [name for module in (signal, transforms, probbounds, channel, recovery)
           for name in module.__all__]

__version__ = "0.1.0"
