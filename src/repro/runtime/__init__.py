"""Compile-once / execute-many deployment runtime.

The YOLoC chiplet is ROM-based: weights are programmed into subarrays
exactly once at fabrication and every later inference streams
activations through the same macros.  This package is that split in
software:

* :func:`compile` — **programming**: fold BN, place ROM/SRAM (the plan
  builder records each weight layer's row of the
  :class:`DeploymentReport` as it lowers it), quantize weights, build
  tiled engines; once per model.
* :meth:`CompiledModel.run` — **execution**: batched activation
  streaming through the cached engines with per-run / per-session
  :class:`~repro.cim.macro.MacroStats` accounting.
* :class:`EngineCache` — LRU cache keyed by ``(layer id, weight hash,
  config)`` so repeated and concurrent compiles share programmed
  macros; ``capacity=0`` reprograms every lookup, as the seed did.
* :func:`reference_forward` — the seed per-call path kept as a bit-exact
  oracle and benchmark baseline.
* :mod:`repro.runtime.backends` — the execution kernels, each held to
  bitwise identity with the reference walk: the one every engine runs
  (:class:`TiledBitSerialKernel`), and a name registry
  (:func:`get_backend`) the performance ledger builds kernels through.
* :func:`shard` / :class:`ShardedModel` — partition a compiled plan
  across simulated chiplets and execute micro-batch streams
  pipeline-parallel, with inter-chiplet link energy/latency accounting
  (``repro.runtime.sharded``).
* :func:`save` / :func:`load` / :class:`ArtifactStore` — persist a
  compiled model as a versioned, content-addressed on-disk artifact and
  warm-start later processes from it, bitwise identically and much
  faster than a cold compile (``repro.runtime.snapshot``); the same
  store backs the engine cache's disk second tier.

A compiled model is the one way to run a layer: a single ``Linear`` or
``Conv2d`` is compiled like any other model, and ``repro.arch`` /
``repro.models`` accept compiled models directly.  ``repro.cim`` sits
strictly below this package and imports nothing from it.
"""

from repro.runtime.cache import (
    CacheStats,
    EngineCache,
    EngineKey,
    get_default_cache,
    resolve_cache,
    set_default_cache,
    weight_fingerprint,
)
from repro.runtime.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    TiledBitSerialKernel,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime.errors import (
    CompileError,
    InvalidBatchError,
    UnsupportedModuleError,
)
from repro.runtime.engine import (
    ProgrammedConv,
    ProgrammedLinear,
)
from repro.runtime.programming import (
    DeployedLayerInfo,
    DeploymentReport,
    fold_batchnorm,
    validate_deployable,
)
from repro.runtime.session import ExecutionSession
from repro.runtime.compiled import (
    CompiledModel,
    RuntimeConfig,
    compile,
    compile_model,
)
from repro.runtime.sharded import (
    ShardedModel,
    ShardPlan,
    ShardSegment,
    StreamResult,
    plan_shards,
    shard,
    stream_rng,
)
from repro.runtime.snapshot import (
    ArtifactStore,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotKeyError,
    SnapshotStaleError,
    SnapshotVersionError,
    artifact_key,
    load,
    save,
)
from repro.runtime.reference import reference_forward

__all__ = [
    "ArtifactStore",
    "CompileError",
    "UnsupportedModuleError",
    "InvalidBatchError",
    "SnapshotError",
    "SnapshotKeyError",
    "SnapshotCorruptError",
    "SnapshotVersionError",
    "SnapshotStaleError",
    "artifact_key",
    "save",
    "load",
    "ShardedModel",
    "ShardPlan",
    "ShardSegment",
    "StreamResult",
    "plan_shards",
    "shard",
    "stream_rng",
    "CacheStats",
    "EngineCache",
    "EngineKey",
    "get_default_cache",
    "set_default_cache",
    "resolve_cache",
    "weight_fingerprint",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "TiledBitSerialKernel",
    "ProgrammedConv",
    "ProgrammedLinear",
    "DeployedLayerInfo",
    "DeploymentReport",
    "fold_batchnorm",
    "validate_deployable",
    "ExecutionSession",
    "CompiledModel",
    "RuntimeConfig",
    "compile",
    "compile_model",
    "reference_forward",
]
