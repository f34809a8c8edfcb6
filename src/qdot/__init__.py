"""Thermal entanglement and teleportation fidelity of a two-spin quantum dot.

The package models two exchange-coupled electron spins in a magnetic field,
builds their Gibbs state in closed form, quantifies its entanglement, and
drives the standard teleportation protocol through it. A sweep layer and a
CLI sit on top. The ``__all__`` of each module imported below is its part
of the package API.
"""

from . import entanglement, linalg, model, sweep, teleport, verify
from .entanglement import *  # noqa: F403 - republished API, see the docstring
from .linalg import *  # noqa: F403
from .model import *  # noqa: F403
from .sweep import *  # noqa: F403
from .teleport import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *entanglement.__all__, *linalg.__all__, *model.__all__,
           *sweep.__all__, *teleport.__all__, *verify.__all__]
