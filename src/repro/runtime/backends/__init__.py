"""Kernel backends for programmed engines.

One :class:`~repro.runtime.backends.base.KernelBackend` is one
strategy for executing a programmed tiled engine; all of them are held
to bitwise identity with the reference macro walk.  ``reference-fast``
(:class:`TiledBitSerialKernel`, the fused bit-serial kernel) is the one
every engine runs.  ``popcount`` contracts packed uint64 bit planes; no
engine selects it — it is registered so the performance ledger and the
bitwise witnesses can build it by name, ``get_backend(name)(engine)``.
"""

from repro.runtime.backends.base import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime.backends.reference_fast import (
    TiledBitSerialKernel,
)
from repro.runtime.backends.popcount import PopcountBitSerialKernel

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "PopcountBitSerialKernel",
    "TiledBitSerialKernel",
    "available_backends",
    "get_backend",
    "register_backend",
]
