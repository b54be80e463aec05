"""LRU cache of programmed CiM engines.

A ROM-based chiplet programs its subarrays exactly once — at mask time —
and every later inference streams activations through the same macros.
The software analogue is this cache: programming an engine (weight
quantization + bit-plane decomposition + tile placement) happens once
per distinct ``(layer id, weight fingerprint, configuration)`` key
(:func:`repro.runtime.engine.engine_key`), and repeated or concurrent
compiles that deploy the same weights share the programmed engines
instead of rebuilding them per model.

``EngineCache(capacity=0)`` is the *per-call* mode: nothing is ever
retained, so every lookup programs a fresh engine — the seed library's
original behaviour, kept available for baselines and benchmarks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import trace
from repro.obs.log import get_logger

_log = get_logger("runtime.cache")


class EngineKey(NamedTuple):
    """Identity of one programmed engine.

    ``layer_id`` scopes the engine to a layer (its plan name, with a
    ``::g<i>`` suffix per channel group of a grouped conv), ``weight_hash``
    fingerprints the exact float weights, and ``config_key`` is the
    layer kind, the :func:`~repro.cim.macro.arithmetic_key` of the
    configuration the engine runs under — its macro config with the
    activation width and input signedness it was programmed for — and a
    conv's ``(stride, padding)``: two configs that differ only in fields
    no arithmetic reads (a cell's area, say) share one engine.  A named
    tuple: built, hashed and compared in C, once per engine a compile
    programs or a load seeds.
    """

    layer_id: str
    weight_hash: str
    config_key: Tuple


@dataclass
class CacheStats:
    """Counters of cache activity since construction (or ``reset``).

    ``disk_hits`` / ``disk_misses`` count the disk second tier (when the
    cache owns an artifact store): a disk hit restores a programmed
    engine instead of programming it, a disk miss — whether the store
    raised *or* returned nothing — falls through to programming from
    scratch.  In-memory ``hits`` never touch the disk tier, so
    ``misses == disk_hits + disk_misses`` on a disk-backed cache.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    programmed: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    def reset(self) -> None:
        self.__init__()


def weight_fingerprint(weight: np.ndarray) -> str:
    """Content hash of a float weight tensor (value + shape)."""
    arr = np.ascontiguousarray(np.asarray(weight, dtype=np.float64))
    digest = hashlib.sha1(arr.tobytes())
    digest.update(repr(arr.shape).encode())
    return digest.hexdigest()


class EngineCache:
    """Thread-safe LRU cache of programmed engines.

    ``capacity`` bounds the number of retained engines; the least
    recently used engine is evicted first.  ``capacity=0`` disables
    retention entirely (every lookup is a miss that programs a fresh
    engine), which reproduces the seed library's per-call behaviour.

    The bound is an entry count, not bytes.  An 8-bit engine holds about
    14.6 bytes per weight once it has run, the same after a compile and
    after a load (tiny_yolo: 1 for its one codes array at the storage
    width, 12.1 for the fused kernel's planes, 1.5 for its share of the
    digit tables and row weights); the reference path's float64 bit
    planes add 64 once it has read them.  So
    workloads that sweep many large distinct weight sets through one
    cache should size ``capacity`` (or use a dedicated cache)
    accordingly.

    ``store`` (an :class:`~repro.runtime.snapshot.ArtifactStore`) adds a
    **disk second tier**: a memory miss first tries to restore the
    engine from a persisted artifact (``disk_hits``), and an engine
    programmed from scratch is written back so the *next* process warm
    starts.  Disk failures of any kind — corrupted artifact, version
    mismatch, filesystem error — degrade to programming from scratch;
    the disk tier can make a lookup cheaper, never make it fail.
    """

    def __init__(self, capacity: int = 128, store: Optional[Any] = None):
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.stats = CacheStats()
        self._entries: "OrderedDict[EngineKey, Any]" = OrderedDict()
        # Provenance of each resident engine: "programmed", "disk"
        # (restored from the disk tier) or "snapshot" (seeded by seed()).
        self._tiers: Dict[EngineKey, str] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: EngineKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: EngineKey) -> Optional[Any]:
        """The cached engine for ``key``, or None (counts as hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def get_or_program(self, key: EngineKey, factory: Callable[[], Any]) -> Any:
        """Return the engine for ``key``: memory hit, disk hit, or program."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        # Disk tier and programming both run outside the lock: neither
        # may serialize concurrent sessions compiling other layers.
        # Without a store there is no disk tier to consult at all.
        if self.store is not None:
            with trace.maybe_span(
                "engine_disk_load", "cache", layer=key.layer_id
            ) as sp:
                restored = self._from_disk(key)
                if sp is not None:
                    sp.set("hit", restored is not None)
            if restored is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                _log.debug("engine %s: restored from disk tier", key.layer_id)
                return self._retain(key, restored, "disk")
        with trace.maybe_span("engine_program", "cache", layer=key.layer_id):
            engine = factory()
        with self._lock:
            self.stats.programmed += 1
        _log.debug("engine %s: programmed from scratch", key.layer_id)
        self._to_disk(key, engine)
        return self._retain(key, engine, "programmed")

    def _retain(self, key: EngineKey, engine: Any, tier: str) -> Any:
        """Make ``engine`` resident under ``key`` unless an engine already
        is; returns the engine serving the key."""
        with self._lock:
            if self.capacity > 0:
                existing = self._entries.get(key)
                if existing is not None:
                    # A concurrent session landed it first; share that one.
                    self._entries.move_to_end(key)
                    return existing
                self._insert(key, engine, tier)
        return engine

    def _insert(self, key: EngineKey, engine: Any, tier: str) -> None:
        """Make ``engine`` the most recently used entry under ``key``,
        evicting the least recently used beyond ``capacity``: the one
        place entries are inserted and evicted (lock held, capacity
        positive)."""
        entries = self._entries
        entries[key] = engine
        entries.move_to_end(key)
        self._tiers[key] = tier
        while len(entries) > self.capacity:
            evicted, _ = entries.popitem(last=False)
            self._tiers.pop(evicted, None)
            self.stats.evictions += 1

    def tier_of(self, key: EngineKey) -> Optional[str]:
        """Provenance of the resident engine for ``key`` —
        ``"programmed"``, ``"disk"`` or ``"snapshot"`` — or ``None``
        when the key is not resident in the memory tier."""
        with self._lock:
            if key not in self._entries:
                return None
            return self._tiers.get(key, "programmed")

    def _from_disk(self, key: EngineKey) -> Optional[Any]:
        """Disk-tier lookup; any failure degrades to a miss, never raises.

        A quiet ``None`` from the store counts as a disk miss exactly
        like a raised error does — every disk-tier consultation lands in
        either ``disk_hits`` or ``disk_misses``, so the two reconcile
        against ``misses``.
        """
        try:
            restored = self.store.read_engine(key)
        except Exception:
            # Missing, corrupted, stale or version-mismatched artifact —
            # fall through to programming from scratch.  The server must
            # keep serving whatever the store's state is.
            restored = None
        if restored is None:
            with self._lock:
                self.stats.disk_misses += 1
        return restored

    def _to_disk(self, key: EngineKey, engine: Any) -> None:
        """Best-effort write-back; storage failures never fail the lookup."""
        if self.store is None:
            return
        try:
            self.store.write_engine(key, engine)
        except Exception:
            pass

    def seed(self, entries: Iterable[Tuple[EngineKey, Any]]) -> None:
        """Seed each ``(key, engine)`` of ``entries`` with an externally
        restored engine (a snapshot load's, one layer at a time), in
        order, under one acquisition of the lock."""
        with self._lock:
            if self.capacity > 0:
                for key, engine in entries:
                    # A restored engine replaces whatever is resident.
                    self._insert(key, engine, "snapshot")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tiers.clear()

    def keys(self):
        with self._lock:
            return list(self._entries.keys())


_default_cache = EngineCache()


def get_default_cache() -> EngineCache:
    """The process-wide engine cache shared by default."""
    return _default_cache


def set_default_cache(cache: EngineCache) -> EngineCache:
    """Replace the process-wide cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def resolve_cache(cache: Optional[EngineCache]) -> EngineCache:
    """``cache`` if given, else the process-wide default."""
    return cache if cache is not None else _default_cache
