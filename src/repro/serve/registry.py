"""Named-model registry: compile once, serve under a stable name.

The registry is the serving analogue of mask-time programming: a model
is registered (compiled) once and every request afterwards only names
it.  Registration routes through :func:`repro.runtime.compile` with a
shared :class:`~repro.runtime.cache.EngineCache`, so re-registering the
same weights — or registering them under a second name — reuses the
programmed engines instead of rebuilding them.  With a persistent
:class:`~repro.runtime.ArtifactStore` (``register(..., store=...)``)
the once extends across processes: registration warm-starts from a
content-addressed artifact when one exists and writes one back when it
compiled (see docs/snapshots.md).

Registration and eviction are thread-safe and legal while the server is
draining traffic: a :class:`CompiledModel` is immutable from the serve
layer's point of view, so batches already executing keep the compiled
image they resolved, while queued and new requests see the updated
entry at execution time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import nn
from repro.obs.log import get_logger
from repro.runtime import (
    ArtifactStore,
    CompiledModel,
    EngineCache,
    RuntimeConfig,
    ShardedModel,
    compile_model,
    resolve_cache,
    shard as shard_compiled,
)
from repro.runtime import snapshot


_log = get_logger("serve.registry")


class UnknownModelError(KeyError):
    """Request names a model the registry does not hold."""


@dataclass
class RegisteredModel:
    """One registry entry: the compiled image plus registration metadata.

    ``compiled`` is a :class:`~repro.runtime.CompiledModel` or, for a
    sharded deployment, a :class:`~repro.runtime.ShardedModel` — the
    server only needs the shared ``run(batch, rng=...)`` surface.

    ``warm_start`` records whether the image was restored from a
    persisted artifact instead of compiled from scratch (in which case
    ``compile_ms`` is the artifact load time), and ``artifact_key`` the
    content address used, when registration went through a store.
    """

    name: str
    compiled: CompiledModel
    registered_at: float
    compile_ms: float
    generation: int  # bumped on hot re-registration under the same name
    warm_start: bool = False
    artifact_key: Optional[str] = None

    @property
    def n_weight_layers(self) -> int:
        return self.compiled.n_weight_layers

    @property
    def n_shards(self) -> int:
        """Chiplet shards of the deployment (1 for a monolithic image)."""
        return (
            self.compiled.n_shards
            if isinstance(self.compiled, ShardedModel)
            else 1
        )


class ModelRegistry:
    """Thread-safe name -> :class:`CompiledModel` mapping.

    ``cache`` defaults to the process-wide engine cache so independent
    registries (and other compiles) share programmed engines.
    """

    def __init__(self, cache: Optional[EngineCache] = None):
        self.cache = resolve_cache(cache)
        self._lock = threading.RLock()
        self._entries: Dict[str, RegisteredModel] = {}

    def register(
        self,
        name: str,
        model: nn.Module,
        config: Optional[RuntimeConfig] = None,
        *,
        replace: bool = False,
        shards: Optional[int] = None,
        link=None,
        shard_input_shape=None,
        store: Optional[ArtifactStore] = None,
    ) -> RegisteredModel:
        """Compile ``model`` and serve it as ``name``.

        Hot re-registration (``replace=True``) swaps the entry in one
        assignment.  The server resolves the entry when a batch starts
        executing, so batches already executing finish on the previous
        generation, while queued and new requests run on the new one.

        ``shards`` (when given, >= 1) registers a sharded deployment:
        the compiled plan is partitioned across that many simulated
        chiplets (optionally over ``link`` / balanced for
        ``shard_input_shape``), and every executed batch crosses the
        shard boundaries with link energy charged into the tenants'
        sessions (``shards=1``: a single-shard deployment, no
        crossings).  Numerics are unchanged — a sharded run is bitwise
        identical to the monolithic one.

        ``store`` (an :class:`~repro.runtime.ArtifactStore`) warm-starts
        registration: the content key of ``(model weights, config,
        shard request)`` is looked up first, and a hit restores the
        programmed image — bitwise identical, much faster than
        compiling — while a miss compiles and writes the artifact back
        so the *next* registration (any process) warm-starts.  A
        damaged or incompatible artifact degrades to a cold compile;
        the store can never make registration fail.
        """
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                raise ValueError(
                    f"model {name!r} is already registered; "
                    f"pass replace=True to hot-swap it"
                )
        # Compile (or warm-start) outside the lock: programming can be
        # expensive and must not stall lookups from the serving hot path.
        key: Optional[str] = None
        compiled = None
        warm = False
        start = time.perf_counter()
        if store is not None:
            try:
                key = snapshot.artifact_key(
                    model, config, shards=shards, link=link,
                    input_shape=shard_input_shape,
                )
            except snapshot.SnapshotError:
                # The artifact format cannot address this registration
                # (e.g. a custom encoding): skip the store entirely —
                # it must never make a registration fail.
                key = None
            try:
                if key is not None:
                    compiled = snapshot.load(store, key, cache=self.cache)
                    warm = True
            except snapshot.SnapshotKeyError:
                pass  # first registration of this triple: compile below
            except snapshot.SnapshotError:
                # Damaged / stale / version-mismatched artifact: serve
                # from a cold compile (and overwrite it below).
                compiled = None
        if compiled is None:
            compiled = compile_model(model, config, cache=self.cache)
            if shards is not None:
                compiled = shard_compiled(
                    compiled, shards, link=link, input_shape=shard_input_shape
                )
            if store is not None and key is not None:
                try:
                    snapshot.save(compiled, store, key=key)
                except (snapshot.SnapshotError, OSError):
                    pass  # write-back is best-effort; serving comes first
        compile_ms = (time.perf_counter() - start) * 1000.0
        _log.debug(
            "registered %r: %s in %.1f ms",
            name,
            "warm-start from artifact" if warm else "cold compile",
            compile_ms,
        )
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                # A concurrent register won the name while we compiled;
                # without replace the loser must not silently overwrite.
                raise ValueError(
                    f"model {name!r} is already registered; "
                    f"pass replace=True to hot-swap it"
                )
            entry = RegisteredModel(
                name=name,
                compiled=compiled,
                registered_at=time.time(),
                compile_ms=compile_ms,
                generation=(previous.generation + 1) if previous else 0,
                warm_start=warm,
                artifact_key=key,
            )
            self._entries[name] = entry
            return entry

    def swap_compiled(self, name: str, compiled: CompiledModel) -> RegisteredModel:
        """Replace ``name``'s compiled image in place (failover path).

        Unlike :meth:`register` this swaps an already-built image —
        e.g. a deployment re-planned around a dead shard — without
        recompiling.  The generation is bumped so observers can tell a
        recovered entry from the original registration.
        """
        with self._lock:
            try:
                entry = self._entries[name]
            except KeyError:
                raise UnknownModelError(name) from None
            entry.compiled = compiled
            entry.generation += 1
        _log.debug("swapped %r image (generation %d)", name, entry.generation)
        return entry

    def evict(self, name: str) -> RegisteredModel:
        """Drop ``name``; its engines stay in the LRU cache until evicted
        there, so a prompt re-registration is cheap."""
        with self._lock:
            try:
                entry = self._entries.pop(name)
            except KeyError:
                raise UnknownModelError(name) from None
        _log.debug("evicted %r (generation %d)", name, entry.generation)
        return entry

    def get(self, name: str) -> CompiledModel:
        return self.entry(name).compiled

    def entry(self, name: str) -> RegisteredModel:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownModelError(name) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def rows(self) -> List[Tuple]:
        """``(name, layers, generation, compile_ms)`` per entry, for reports."""
        with self._lock:
            return [
                (e.name, e.n_weight_layers, e.generation, round(e.compile_ms, 1))
                for e in self._entries.values()
            ]
