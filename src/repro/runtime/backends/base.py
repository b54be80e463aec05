"""The kernel-backend contract and registry.

A *kernel backend* is one strategy for executing a programmed
:class:`~repro.cim.mvm.CimTiledMatmul` — the program-time layout it
builds in its constructor plus a ``matmul(x) -> (out, MacroStats)``
hot path.  Every backend is held to the same contract the original
fast kernel established: **bitwise identity** with the reference
macro walk (:meth:`repro.cim.macro.CimMacro.matmul` accumulated in
tile order) for every input it accepts — outputs *and* stats.

Backends register themselves by name at import time.  Engines do not
consult the registry — each builds the :data:`DEFAULT_BACKEND` class
directly — it exists so the performance ledger's per-kernel rows and
the bitwise witnesses can construct any kernel by its stable name:
``get_backend(name)(engine)``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Tuple, Type

import numpy as np

from repro.cim.macro import MacroConfig, MacroStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cim.mvm import CimTiledMatmul

#: The backend every engine uses — the fused bit-serial kernel.
DEFAULT_BACKEND = "reference-fast"


class KernelBackend(abc.ABC):
    """One execution strategy for a programmed tiled engine.

    The constructor *is* the program-time layout step: it may build any
    derived operands it wants from the engine's programmed tiles (plane
    matrices, packed words, lookup tables).  :meth:`matmul` is the
    per-batch hot path and must return bitwise-identical ``(out,
    stats)`` to the reference tile walk for every accepted input.
    """

    #: Stable registry identifier, set by each subclass.
    backend_name: str = ""

    @abc.abstractmethod
    def __init__(self, engine: "CimTiledMatmul"):
        """Build the backend's layout for ``engine`` (program time)."""

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        """True when this backend is bit-exact for ``config``."""
        raise NotImplementedError

    @abc.abstractmethod
    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        """Execute one integer-code batch ``(rows, n)`` (execute time)."""


_REGISTRY: Dict[str, Type[KernelBackend]] = {}


def register_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Class decorator: publish ``cls`` under its ``backend_name``."""
    if not cls.backend_name:
        raise ValueError(f"{cls.__name__} declares no backend_name")
    _REGISTRY[cls.backend_name] = cls
    return cls


def get_backend(name: str) -> Type[KernelBackend]:
    """The backend class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"unknown kernel backend {name!r} (registered: {known})"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted (default first)."""
    names = sorted(_REGISTRY)
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0, DEFAULT_BACKEND)
    return tuple(names)
