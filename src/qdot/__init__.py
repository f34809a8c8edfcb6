"""Thermal entanglement and teleportation fidelity of a two-spin quantum dot.

The package models two exchange-coupled electron spins in a magnetic field,
builds their Gibbs state in closed form, quantifies its entanglement, and
drives the standard teleportation protocol through it. A sweep layer and a
CLI sit on top. The ``__all__`` of each module in _MODULES is its part of
the package API.

Nothing is imported until it is used (PEP 562), so a command loads only the
modules it runs. A submodule name (``qdot.teleport``, ``from qdot import
cli``) imports that module alone; any other name, ``__all__`` and
``from qdot import *`` included, imports the six modules once and binds
their API names here.
"""

__version__ = "0.1.0"

_MODULES = ("entanglement", "linalg", "model", "sweep", "teleport", "verify")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        __import__(f"{__name__}.{name}")  # binds it here; logged by -X importtime
        return globals()[name]
    api = globals()
    if "__all__" not in api:  # the first API name asked for: bind them all
        names = ["__version__"]
        for module in map(__getattr__, _MODULES):
            api.update((n, getattr(module, n)) for n in module.__all__)
            names += module.__all__
        api["__all__"] = names
        if name in api:
            return api[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
