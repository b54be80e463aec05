"""Pluggable kernel backends for programmed engines.

One :class:`~repro.runtime.backends.base.KernelBackend` is one
strategy for executing a programmed tiled engine; all of them are held
to bitwise identity with the reference macro walk.  ``reference-fast``
is the default (the proven fused bit-serial kernels), ``popcount``
contracts packed uint64 bit planes, and
:func:`~repro.runtime.backends.autotune.tune_kernel` picks the fastest
verified one per engine at compile time.
"""

from repro.runtime.backends.base import (
    AUTO_BACKEND,
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
from repro.runtime.backends.autotune import (
    TuneReport,
    clear_tune_cache,
    tune_kernel,
)

__all__ = [
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "PopcountBitSerialKernel",
    "TiledBitSerialKernel",
    "TuneReport",
    "available_backends",
    "clear_tune_cache",
    "get_backend",
    "register_backend",
    "tune_kernel",
]
