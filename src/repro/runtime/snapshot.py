"""Persistent compiled-artifact store: program once per fleet, not per process.

PR 1 split programming from execution *in memory*; every process still
paid the full programming cost (weight quantization, bit-plane
decomposition, tile placement, kernel fusion) on startup.  This module
makes the compile-once contract durable: a :class:`CompiledModel` is
serialized to a **versioned, content-addressed on-disk artifact** and
restored by :func:`load` into a model whose outputs are **bitwise
identical** to the freshly compiled one — including under bit-line
noise, because the restored engines hold the exact programmed state
(same tiles, same order, same RNG draw sequence).

Artifact contents (one ``.rcma`` container per artifact — a JSON
header plus an mmap-able array section, see :class:`ArtifactStore`):

* the deployable module tree (architecture spec + float64 parameters +
  ``requires_grad`` flags — placement-relevant, so preserved exactly);
* per programmed engine: the quantized weight codes and per-channel
  scales — the one programmed state — and the input signedness they
  serve; the circuit (macro config, activation width, conv geometry)
  is the layer's, derived on load as :func:`compile` derives it;
* for sharded deployments: the realized :class:`ShardPlan` and
  inter-chiplet link spec;
* a JSON header carrying the format version, the content key, and the
  per-layer weight fingerprints the engine cache keys on.

Content addressing: :func:`artifact_key` digests the architecture spec,
every parameter's value fingerprint, the :class:`RuntimeConfig`, and the
shard request, so one ``(model weights, config, shards)`` triple maps to
one artifact across processes, restarts and fleet replicas.

Failure behaviour is typed: a missing key raises
:class:`SnapshotKeyError`, a truncated or corrupted container
:class:`SnapshotCorruptError`, an incompatible format
:class:`SnapshotVersionError`, and an artifact whose engines do not
match its own recorded weights :class:`SnapshotStaleError` — all
subclasses of :class:`SnapshotError`, which the serving layers catch to
fall back to a cold compile instead of crashing.

``tests/test_snapshot.py`` pins the save→load→run bitwise identity
differentially (per model family × shard count × seed, with and without
bit-line noise, and across a process boundary);
``benchmarks/test_bench_warmstart.py`` pins what a warm start skips — a
load programs no engine and every slot's tier is ``"snapshot"``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import tempfile
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro import nn
from repro.arch.chiplet import ChipletLinkSpec
from repro.obs import trace
from repro.obs.log import get_logger
from repro.cim.encoding import (
    ActivationEncoding,
    BitSerialEncoding,
    PulseWidthEncoding,
    UnaryPulseEncoding,
)
from repro.cim.macro import MacroConfig
from repro.models.mobilenet import DepthwiseSeparable
from repro.models.resnet import BasicBlock
from repro.rebranch.branch import ReBranchConv2d
from repro.runtime.cache import (
    EngineCache,
    EngineKey,
    resolve_cache,
    weight_fingerprint,
)
from repro.runtime.compiled import CompiledModel, RuntimeConfig
from repro.runtime.compiled import _compile_plan, _StoredLayer
from repro.runtime.engine import EngineCircuit, ProgrammedConv, engines_from_state
from repro.runtime.errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotKeyError,
    SnapshotStaleError,
    SnapshotVersionError,
)
from repro.runtime.sharded import ShardedModel, ShardPlan, ShardSegment
from repro.runtime.sharded import shard as _shard

#: Container format marker; a file without it is not an artifact at all.
FORMAT = "repro-compiled-model"

#: Bumped on any incompatible change to the artifact layout.  The
#: version participates in :func:`artifact_key`, so a format bump makes
#: old artifacts *miss* (recompile-and-resave) rather than error.
#: History: 1 — linear step plans; 2 — DAG plan IR (residual composites
#: as first-class module kinds, per-group engines for grouped convs,
#: plan topology recorded in the header); 3 — kernel-backend provenance
#: (tuned winner + backend request per engine); 4 — that provenance and
#: the two ``RuntimeConfig`` fields behind it removed with the autotuner
#: (every engine has the one fast kernel, so there is nothing to record);
#: 5 — the fused kernel's bit-packed planes and their per-engine group
#: count removed: the weight codes are stored once and everything else
#: derives from them; 6 — an engine entry keeps only its tag, layer id
#: and input signedness: the macro config, activation width and conv
#: geometry are the layer's, derived on load as compile derives them.
VERSION = 6

#: Leading bytes of every artifact container file.
MAGIC = b"RCMA1\n"

#: Array payloads are aligned to this boundary so the mmap'd views the
#: loader hands out are safely aligned for every dtype.
_ALIGN = 64


# ----------------------------------------------------------------------
# Configuration (de)serialization, derived from the dataclasses' field
# declarations (docs/snapshots.md) — exact float round-trip through JSON
# (json uses float.__repr__, the shortest round-tripping representation)
# ----------------------------------------------------------------------
def to_meta(obj: Any) -> Dict[str, Any]:
    """The JSON form of a stored dataclass instance: every
    ``dataclasses.fields`` name, in declaration order, each value
    coerced by the field's declared type."""
    return {name: encode(getattr(obj, name)) for name, encode, _ in _codec(type(obj))}


def from_meta(cls: type, meta: Dict[str, Any]) -> Any:
    """Inverse of :func:`to_meta`; a key the meta lacks (an artifact
    written before the field existed) takes the field's default."""
    return cls(
        **{name: decode(meta[name]) for name, _, decode in _codec(cls) if name in meta}
    )


@functools.lru_cache(maxsize=None)
def _codec(cls: type) -> Tuple[Tuple[str, Callable, Callable], ...]:
    hints = get_type_hints(cls)
    return tuple(
        (field.name,) + _coders(hints[field.name]) for field in dataclasses.fields(cls)
    )


def _coders(tp: Any) -> Tuple[Callable, Callable]:
    """``(encode, decode)`` for one declared field type: a JSON scalar,
    a nested dataclass, ``Optional[X]`` or ``Tuple[X, ...]`` of those."""
    if tp in (int, float, bool, str):
        return tp, tp
    if tp is ActivationEncoding:
        return _encoding_to_meta, _encoding_from_meta
    if dataclasses.is_dataclass(tp):
        return to_meta, functools.partial(from_meta, tp)
    args = [arg for arg in get_args(tp) if arg not in (type(None), Ellipsis)]
    if len(args) != 1:
        raise TypeError(f"no artifact codec for a field declared {tp!r}")
    encode, decode = _coders(args[0])
    if get_origin(tp) is tuple:
        return (
            lambda value: [encode(item) for item in value],
            lambda meta: tuple(decode(item) for item in meta),
        )
    return (
        lambda value: None if value is None else encode(value),
        lambda meta: None if meta is None else decode(meta),
    )


def _encoding_to_meta(encoding: ActivationEncoding) -> Dict[str, Any]:
    # Exact class matches only: a behaviour-overriding *subclass* of a
    # built-in encoding must not serialize (and content-address) as its
    # base class — a warm start would silently restore the wrong
    # arithmetic.
    if type(encoding) is PulseWidthEncoding:
        return {
            "type": "pulse-width",
            "jitter_sigma_slots": float(encoding.jitter_sigma_slots),
        }
    if type(encoding) is UnaryPulseEncoding:
        return {"type": "unary-pulse"}
    if type(encoding) is BitSerialEncoding:
        return {"type": "bit-serial"}
    raise SnapshotError(
        f"cannot serialize custom activation encoding "
        f"{type(encoding).__name__}; use one of the built-in encodings"
    )


def _encoding_from_meta(meta: Dict[str, Any]) -> ActivationEncoding:
    kind = meta["type"]
    if kind == "pulse-width":
        return PulseWidthEncoding(jitter_sigma_slots=meta["jitter_sigma_slots"])
    if kind == "unary-pulse":
        return UnaryPulseEncoding()
    if kind == "bit-serial":
        return BitSerialEncoding()
    raise SnapshotVersionError(f"unknown activation encoding kind {kind!r}")


# ----------------------------------------------------------------------
# Module-tree (de)serialization
# ----------------------------------------------------------------------
class RestoredComposite(nn.Module):
    """Generic container standing in for a serial custom composite.

    Only composites whose dataflow *is* the registration-order child
    chain serialize generically (``plan_forward = nn.plan_serial``, a
    non-overridden forward, or a plain ``Sequential``); composites with
    a real graph (residual adds, grouped diamonds) serialize as their
    own row of :data:`MODULE_KINDS`, so the restored module carries the
    original ``plan_forward``.  ``source_type`` records the original
    class name — for repr, and so that a re-save writes (and keys) the
    name the first save did.
    """

    #: The restored dataflow is exactly the serial chain.
    plan_forward = nn.plan_serial

    def __init__(self, source_type: str = "Module"):
        super().__init__()
        self.source_type = source_type

    def forward(self, x):
        for child in self._modules.values():
            x = child(x)
        return x

    def extra_repr(self) -> str:
        return f"restored={self.source_type}"


@dataclasses.dataclass(frozen=True)
class ModuleKind:
    """One row of the artifact's module vocabulary: what the header
    stores for a class, in header order — ``kind``, the scalars, the
    parameters, the buffers, the fixed sub-modules, the children.

    ``scalars`` are ``(header key, module -> JSON value, JSON value ->
    attribute)`` triples (:func:`_attr` for a plain attribute).
    ``modules`` are sub-modules stored under their own header keys;
    ``children`` stores every registered child as an ordered ``[name,
    spec]`` list instead.  ``exact`` rows match ``type(module) is cls``
    only — a subclass may have changed the behaviour the row restores —
    the others match subclasses too.

    Restoring a leaf row (scalars only) calls ``cls(**scalars)``; a row
    holding weights or sub-modules skips the class initialiser, which
    would draw fresh weights only to drop them, and sets the decoded
    scalars as attributes.  ``shell`` overrides both.
    """

    cls: type
    scalars: Tuple[Tuple[str, Callable, Callable], ...] = ()
    params: Tuple[str, ...] = ()
    buffers: Tuple[str, ...] = ()
    modules: Tuple[str, ...] = ()
    children: bool = False
    exact: bool = False
    shell: Optional[Callable[..., nn.Module]] = None

    def empty(self, **scalars) -> nn.Module:
        """The restored module before its arrays and sub-modules."""
        if self.shell is not None:
            return self.shell(**scalars)
        if not (self.params or self.buffers or self.modules or self.children):
            return self.cls(**scalars)
        module = self.cls.__new__(self.cls)
        nn.Module.__init__(module)
        for name, value in scalars.items():
            setattr(module, name, value)
        return module


def _attr(name: str, encode: Callable = int, decode: Optional[Callable] = None):
    """The scalar triple of attribute ``name``."""
    return (
        name,
        lambda module: encode(getattr(module, name)),
        decode if decode is not None else encode,
    )


#: Coders of a kernel / stride / padding attribute: an int, a pair of
#: ints (a JSON list; a tuple on the module) or an unset pool stride.
_GEOMETRY = (
    lambda value: [int(v) for v in value]
    if isinstance(value, (tuple, list))
    else (None if value is None else int(value)),
    lambda meta: tuple(meta) if isinstance(meta, list) else meta,
)
_POOL = (_attr("kernel_size", *_GEOMETRY), _attr("stride", *_GEOMETRY))

#: Artifact kind name -> :class:`ModuleKind`; the writer takes the first
#: row that matches.  ``batchnorm2d`` never appears in a *compiled*
#: artifact (deployment folds BN away) but lets :func:`artifact_key`
#: address the caller's pre-fold model — the key warm-start flows look
#: up before compiling.  ``composite`` is the generic fallback for
#: serial containers (see :class:`RestoredComposite`).  Adding a kind:
#: docs/architecture.md, "Adding a module kind".
MODULE_KINDS: Dict[str, ModuleKind] = {
    "rebranch": ModuleKind(
        ReBranchConv2d,
        (_attr("d"), _attr("u")),
        modules=("trunk", "compress", "res_conv", "decompress"),
    ),
    "conv2d": ModuleKind(
        nn.Conv2d,
        (
            _attr("in_channels"),
            _attr("out_channels"),
            _attr("kernel_size", *_GEOMETRY),
            _attr("stride", *_GEOMETRY),
            _attr("padding", *_GEOMETRY),
            _attr("groups"),
        ),
        params=("weight", "bias"),
    ),
    "linear": ModuleKind(
        nn.Linear,
        (_attr("in_features"), _attr("out_features")),
        params=("weight", "bias"),
    ),
    "batchnorm2d": ModuleKind(
        nn.BatchNorm2d,
        (_attr("num_features"), _attr("eps", float), _attr("momentum", float)),
        params=("weight", "bias"),
        buffers=("running_mean", "running_var"),
    ),
    "leaky_relu": ModuleKind(nn.LeakyReLU, (_attr("negative_slope", float),)),
    "dropout": ModuleKind(nn.Dropout, (_attr("p", float),)),
    "max_pool": ModuleKind(nn.MaxPool2d, _POOL),
    "avg_pool": ModuleKind(nn.AvgPool2d, _POOL),
    "relu": ModuleKind(nn.ReLU, exact=True),
    "sigmoid": ModuleKind(nn.Sigmoid, exact=True),
    "tanh": ModuleKind(nn.Tanh, exact=True),
    "identity": ModuleKind(nn.Identity, exact=True),
    "flatten": ModuleKind(nn.Flatten, exact=True),
    "global_avg_pool": ModuleKind(nn.GlobalAvgPool2d, exact=True),
    "basic_block": ModuleKind(BasicBlock, children=True, exact=True),
    "depthwise_separable": ModuleKind(DepthwiseSeparable, children=True, exact=True),
    "composite": ModuleKind(
        nn.Module,
        (
            (
                "source_type",
                lambda module: module.source_type
                if isinstance(module, RestoredComposite)
                else type(module).__name__,
                str,
            ),
            ("sequential", lambda module: isinstance(module, nn.Sequential), bool),
        ),
        children=True,
        shell=lambda source_type, sequential: (
            nn.Sequential() if sequential else RestoredComposite(source_type)
        ),
    ),
}


class _TreeWriter:
    """Walks a module tree into a JSON spec + parameter arrays."""

    def __init__(self):
        self.arrays: Dict[str, np.ndarray] = {}

    def _store_array(self, value: np.ndarray) -> Dict[str, Any]:
        name = f"p{len(self.arrays)}"
        self.arrays[name] = np.asarray(value, dtype=np.float64)
        return {"array": name}

    def spec(self, module: nn.Module) -> Dict[str, Any]:
        kind, row = next(
            (kind, row)
            for kind, row in MODULE_KINDS.items()
            if type(module) is row.cls or (not row.exact and isinstance(module, row.cls))
        )
        if row.cls is nn.Module and not isinstance(module, nn.Sequential):
            # The fallback row restores a serial chain and nothing else.
            if not module._modules:
                raise SnapshotError(
                    f"cannot serialize module of type {type(module).__name__}; "
                    f"the artifact format covers exactly the deployable module set"
                )
            if getattr(type(module), "plan_forward", None) not in (None, nn.plan_serial):
                raise SnapshotError(
                    f"cannot serialize composite {type(module).__name__} "
                    f"with a custom plan_forward dataflow; a generic "
                    f"restore would silently degrade it to a serial chain "
                    f"(give the class a row in snapshot.MODULE_KINDS to "
                    f"make it addressable)"
                )
        spec: Dict[str, Any] = {"kind": kind}
        for name, encode, _ in row.scalars:
            spec[name] = encode(module)
        for name in row.params:
            param = getattr(module, name)
            spec[name] = None if param is None else {
                **self._store_array(param.data),
                "requires_grad": bool(param.requires_grad),
            }
        for name in row.buffers:
            spec[name] = self._store_array(getattr(module, name))
        for name in row.modules:
            spec[name] = self.spec(getattr(module, name))
        if row.children:
            spec["children"] = [
                [name, self.spec(child)] for name, child in module._modules.items()
            ]
        return spec


def _restore_module(spec: Dict[str, Any], arrays) -> nn.Module:
    row = MODULE_KINDS.get(spec["kind"])
    if row is None:
        raise SnapshotVersionError(f"unknown module kind {spec['kind']!r} in artifact")

    def array(meta):
        # The writer stores every parameter and buffer as float64; any
        # other dtype is a damaged header, never a value to cast.
        stored = arrays[meta["array"]]
        if stored.dtype != np.float64:
            raise SnapshotCorruptError(
                f"array {meta['array']!r} stores {stored.dtype}, expected float64"
            )
        return stored

    module = row.empty(**{name: decode(spec[name]) for name, _, decode in row.scalars})
    for name in row.params:
        meta = spec[name]
        if meta is not None:
            meta = nn.Parameter(array(meta), requires_grad=meta["requires_grad"])
        setattr(module, name, meta)
    for name in row.buffers:
        module.register_buffer(name, array(spec[name]))
    children = [(name, spec[name]) for name in row.modules]
    if row.children:
        children += spec["children"]
    for name, child in children:
        setattr(module, name, _restore_module(child, arrays))
    return module


# ----------------------------------------------------------------------
# Engine (de)serialization
# ----------------------------------------------------------------------
def _write_state(
    engine, tag: str, layer_id: str, arrays: Dict[str, np.ndarray]
) -> Dict[str, Any]:
    """One programmed engine's entry, its codes and scales put in
    ``arrays``: all a restore cannot derive from the engine's layer."""
    linear = getattr(engine, "linear", engine)
    arrays[f"{tag}_codes"] = linear.w_codes  # already at the storage width
    arrays[f"{tag}_scale"] = np.asarray(linear.w_scale, dtype=np.float64)
    signed = bool(linear.signed_inputs)
    return {"tag": tag, "layer_id": layer_id, "signed_inputs": signed}


def _stored_arrays(entry: Dict[str, Any], arrays) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(codes, scale)`` :func:`_write_state` stored for ``entry``."""
    return arrays[f"{entry['tag']}_codes"], arrays[f"{entry['tag']}_scale"]


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def _hash_spec(digest, spec: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
    """Feed the architecture spec and every parameter's value into the
    digest (array refs in the spec are replaced by content hashes)."""

    def canonical(node):
        if isinstance(node, dict):
            out = {}
            for key, value in sorted(node.items()):
                if key == "array":
                    arr = np.ascontiguousarray(arrays[value])
                    out[key] = hashlib.sha1(
                        arr.tobytes() + repr(arr.shape).encode()
                    ).hexdigest()
                else:
                    out[key] = canonical(value)
            return out
        if isinstance(node, list):
            return [canonical(item) for item in node]
        return node

    digest.update(json.dumps(canonical(spec), sort_keys=True).encode())


def artifact_key(
    model: nn.Module,
    config: Optional[RuntimeConfig] = None,
    *,
    shards: Optional[int] = None,
    link: Optional[ChipletLinkSpec] = None,
    input_shape: Optional[Tuple[int, ...]] = None,
) -> str:
    """Content address of ``(model weights, runtime config, shard request)``.

    Deterministic across processes: the digest covers the format
    version, the architecture spec, every parameter's exact float bytes
    and ``requires_grad`` flag (placement-relevant), the full
    :class:`RuntimeConfig`, and the shard request (count, link spec,
    balance shape).  Any change to any of them yields a new key — a
    stale artifact is *unreachable*, never silently loaded.

    When ``config.fold_bn`` is set, the key is computed on the
    *canonical* (BN-folded) form of the model — folded on a private
    copy, the caller's tree is never touched — so the key of a model
    as registered (pre-fold) equals the key of the compiled image
    :func:`save` persists (``compile`` folds in place).
    """
    config = config if config is not None else RuntimeConfig()
    if config.fold_bn and any(
        isinstance(module, nn.BatchNorm2d) for module in model.modules()
    ):
        from repro.runtime.programming import fold_batchnorm

        # Round-trip through the spec: a cheap deep copy of exactly the
        # serializable tree, preserving names and requires_grad flags.
        proto = _TreeWriter()
        model = _restore_module(proto.spec(model), proto.arrays)
        fold_batchnorm(model)
    writer = _TreeWriter()
    spec = writer.spec(model)
    digest = hashlib.sha256()
    digest.update(f"{FORMAT}:{VERSION}".encode())
    _hash_spec(digest, spec, writer.arrays)
    digest.update(json.dumps(to_meta(config), sort_keys=True).encode())
    shard_meta = {
        "shards": None if shards is None else int(shards),
        "link": None if link is None else to_meta(link),
        "input_shape": None if input_shape is None else list(input_shape),
    }
    digest.update(json.dumps(shard_meta, sort_keys=True).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Content-addressed artifact directory.

    Layout: ``<root>/models/<key>.rcma`` for compiled-model artifacts
    and ``<root>/engines/<digest>.rcma`` for the single-engine artifacts
    the :class:`~repro.runtime.cache.EngineCache` disk tier keeps.
    Writes are atomic (write-temp + rename), so a crashed writer can
    never leave a half-written artifact under a valid key.

    Container layout (one ``.rcma`` file)::

        MAGIC (6 bytes) | header length (8 bytes LE) | JSON header
        | zero padding to a 64-byte boundary | array data section

    The header carries the format version, the artifact metadata, and
    every array's dtype/shape/offset; the data section is the arrays'
    raw C-order bytes at 64-byte-aligned offsets.  The loader maps the
    data section copy-on-write, so reading an artifact touches only the
    pages the warm start actually needs (the engine state), while the
    float64 master weights fault in lazily on first use — and stay
    writable, because pages copy on write.  The header records a SHA-256
    of the data section; :meth:`verify` (and ``load(verify=True)``)
    checks it, the default fast path relies on the declared sizes only
    (truncation, header damage and an array index that does not tile
    the data section in writer order are always detected).
    """

    def __init__(self, root):
        self.root = Path(root)
        self._models = self.root / "models"
        self._engines = self.root / "engines"
        self._models.mkdir(parents=True, exist_ok=True)
        self._engines.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------
    def model_path(self, key: str) -> Path:
        return self._models / f"{key}.rcma"

    def engine_path(self, key: EngineKey) -> Path:
        digest = hashlib.sha256(
            repr((key.layer_id, key.weight_hash, key.config_key)).encode()
        ).hexdigest()
        return self._engines / f"{digest}.rcma"

    def __contains__(self, key: str) -> bool:
        return self.model_path(key).exists()

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self._models.glob("*.rcma"))

    # -- container i/o -------------------------------------------------
    @staticmethod
    def _write(path: Path, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
        index: Dict[str, Any] = {}
        offset = 0
        digest = hashlib.sha256()
        pad_cache = b"\x00" * _ALIGN
        payload: List[bytes] = []
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            pad = (-offset) % _ALIGN
            if pad:
                payload.append(pad_cache[:pad])
                digest.update(pad_cache[:pad])
                offset += pad
            data = array.tobytes()
            index[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(data),
            }
            payload.append(data)
            digest.update(data)
            offset += len(data)
        header = json.dumps(
            {
                "format": FORMAT,
                "version": VERSION,
                "meta": meta,
                "arrays": index,
                "data_size": offset,
                "data_sha256": digest.hexdigest(),
            }
        ).encode("utf-8")
        prefix = MAGIC + len(header).to_bytes(8, "little") + header
        data_start = -(-len(prefix) // _ALIGN) * _ALIGN

        fd, tmp = tempfile.mkstemp(suffix=".rcma.tmp", dir=str(path.parent))
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(prefix)
                handle.write(b"\x00" * (data_start - len(prefix)))
                for blob in payload:
                    handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _read_header(path: Path) -> Tuple[Dict[str, Any], int]:
        try:
            size = path.stat().st_size
            with open(path, "rb") as handle:
                magic = handle.read(len(MAGIC))
                if magic != MAGIC:
                    raise SnapshotCorruptError(
                        f"artifact {path.name} is not an artifact container "
                        f"(bad magic)"
                    )
                raw_len = handle.read(8)
                if len(raw_len) != 8:
                    raise SnapshotCorruptError(f"artifact {path.name} is truncated")
                header_len = int.from_bytes(raw_len, "little")
                if header_len <= 0 or len(MAGIC) + 8 + header_len > size:
                    raise SnapshotCorruptError(
                        f"artifact {path.name} is truncated (header extends "
                        f"past end of file)"
                    )
                raw_header = handle.read(header_len)
        except FileNotFoundError:
            raise SnapshotKeyError(f"no artifact at {path}") from None
        except OSError as error:
            raise SnapshotCorruptError(
                f"unreadable artifact {path.name}: {error}"
            ) from error
        if len(raw_header) != header_len:
            raise SnapshotCorruptError(f"artifact {path.name} is truncated")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotCorruptError(
                f"artifact {path.name} header is not valid JSON: {error}"
            ) from error
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise SnapshotCorruptError(
                f"artifact {path.name} has format "
                f"{header.get('format') if isinstance(header, dict) else header!r}, "
                f"expected {FORMAT!r}"
            )
        if header.get("version") != VERSION:
            raise SnapshotVersionError(
                f"artifact {path.name} is format version {header.get('version')!r}; "
                f"this runtime reads version {VERSION}"
            )
        data_start = -(-(len(MAGIC) + 8 + header_len) // _ALIGN) * _ALIGN
        if data_start + header.get("data_size", 0) != size:
            raise SnapshotCorruptError(
                f"artifact {path.name} is truncated: declares "
                f"{header.get('data_size', 0)} data bytes at offset "
                f"{data_start}, file holds {size}"
            )
        return header, data_start

    @classmethod
    def _read(cls, path: Path) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        header, data_start = cls._read_header(path)
        try:
            # A plain-ndarray view of the mapping: slicing an ``np.memmap``
            # once per array re-runs its subclass bookkeeping, 2802 times
            # for mobilenet's header.
            blob = (
                np.asarray(np.memmap(path, dtype=np.uint8, mode="c", offset=data_start))
                if header["data_size"]
                else np.empty(0, dtype=np.uint8)
            )
            arrays: Dict[str, np.ndarray] = {}
            # Parsed once per dtype string: (dtype, item size).
            dtypes: Dict[str, Tuple[np.dtype, int]] = {}
            # The index must tile the data section as the writer lays it
            # out — each array at the aligned end of the one before, its
            # bytes exactly its shape's — or an edit the checksum cannot
            # see (two swapped offsets) would hand out the wrong bytes.
            end = 0
            for name, entry in header["arrays"].items():
                start, nbytes, shape = entry["offset"], entry["nbytes"], entry["shape"]
                code = entry["dtype"]
                parsed = dtypes.get(code)
                if parsed is None:
                    dtype = np.dtype(code)
                    parsed = dtypes[code] = (dtype, dtype.itemsize)
                dtype, itemsize = parsed
                aligned = end + (-end) % _ALIGN
                size = itemsize * math.prod(shape)
                if start != aligned or nbytes != size or min(shape, default=0) < 0:
                    raise SnapshotCorruptError(
                        f"artifact {path.name} array {name!r} does not tile the "
                        f"data section: {nbytes} bytes at offset {start}, where "
                        f"the writer puts {dtype} {list(shape)} at {aligned}"
                    )
                # One constructor call: a view of the mapping.
                arrays[name] = np.ndarray(shape, dtype, blob, start)
                end = start + nbytes
            if end != header["data_size"]:
                raise SnapshotCorruptError(
                    f"artifact {path.name} arrays end at {end}, its data "
                    f"section at {header['data_size']}"
                )
        except (KeyError, TypeError, ValueError, OSError) as error:
            raise SnapshotCorruptError(
                f"artifact {path.name} array index is malformed: "
                f"{type(error).__name__}: {error}"
            ) from error
        return header["meta"], arrays

    @classmethod
    def _verify_container(cls, path: Path) -> None:
        """Full-content check: data section hashes to the header digest."""
        header, data_start = cls._read_header(path)
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            handle.seek(data_start)
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        if digest.hexdigest() != header.get("data_sha256"):
            raise SnapshotCorruptError(
                f"artifact {path.name} data section does not match its "
                f"recorded checksum"
            )

    def write_model(self, key: str, meta: Dict[str, Any], arrays) -> Path:
        path = self.model_path(key)
        self._write(path, meta, arrays)
        return path

    def read_model(self, key: str) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return self._read(self.model_path(key))

    def verify(self, key: str) -> None:
        """Checksum the full artifact; raises a typed error if damaged."""
        self._verify_container(self.model_path(key))

    def meta(self, key: str) -> Dict[str, Any]:
        """The parsed JSON header of one artifact (for inspection/CLIs);
        the data section is not mapped."""
        header, _ = self._read_header(self.model_path(key))
        return header["meta"]

    # -- engine tier (used by EngineCache's disk second tier) ----------
    def write_engine(self, key: EngineKey, engine) -> Path:
        """The model path's entry, plus the circuit a model restore
        derives from the engine's layer."""
        arrays: Dict[str, np.ndarray] = {}
        conv = isinstance(engine, ProgrammedConv)
        linear = engine.linear if conv else engine
        meta = {
            "payload": "engine",
            "weight_hash": key.weight_hash,
            "engine": _write_state(engine, "e", key.layer_id, arrays),
            "config": to_meta(linear.config),
            "activation_bits": linear.activation_bits,
            "weight_shape": list(engine.weight_shape if conv else linear.w_codes.shape),
            "geometry": [engine.stride, engine.padding] if conv else [],
        }
        path = self.engine_path(key)
        self._write(path, meta, arrays)
        return path

    def read_engine(self, key: EngineKey):
        path = self.engine_path(key)
        meta, arrays = self._read(path)
        if meta.get("payload") != "engine":
            raise SnapshotCorruptError(
                f"artifact {path.name} is not an engine artifact"
            )
        if meta.get("weight_hash") != key.weight_hash:
            raise SnapshotStaleError(
                f"engine artifact {path.name} was programmed for weight hash "
                f"{meta.get('weight_hash')!r}, requested {key.weight_hash!r}"
            )
        entry = meta["engine"]
        circuit = EngineCircuit(
            from_meta(MacroConfig, meta["config"]),
            meta["activation_bits"],
            entry["signed_inputs"],
        )
        (engine,) = engines_from_state(
            [entry["layer_id"]],
            meta["weight_shape"],
            [_stored_arrays(entry, arrays)],
            circuit,
            *meta["geometry"],
        )
        return engine


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
_log = get_logger("runtime.snapshot")


def save(
    compiled,
    store: ArtifactStore,
    *,
    key: Optional[str] = None,
    created_at: Optional[float] = None,
) -> str:
    """Serialize ``compiled`` (a :class:`CompiledModel` or
    :class:`ShardedModel`) into ``store``; returns the artifact key.

    ``created_at`` stamps the header (defaults to the wall clock in
    whole seconds, whose ``repr`` has one length for centuries, so the
    header's size — and with it every 64-byte-aligned array offset —
    never depends on the clock).  It is the *only* nondeterministic
    byte in an artifact — pass a fixed value and two saves of the same
    compiled model are byte-identical, which is what reproducible-build
    and artifact-diffing flows want.

    ``key`` defaults to :func:`artifact_key` of the compiled model's
    weights, config and shard layout (``fold_bn`` models hash to their
    canonical folded form, so the default key matches what warm-start
    flows compute on the pre-fold model).  One caveat: a sharded model
    cut with ``shard_input_shape`` no longer knows that shape, so the
    default key omits it — warm-start flows that pass ``input_shape``
    (the registry does) also pass ``key=`` here, as should you when
    both sides must agree.  Raises :class:`SnapshotStaleError` when the
    model's live weights no longer match its programmed engines
    (mutate-then-save without ``ensure_fresh()``), because such an
    artifact could never satisfy the bitwise-identity contract.
    """
    sharded = compiled if isinstance(compiled, ShardedModel) else None
    base: CompiledModel = sharded.compiled if sharded is not None else compiled

    writer = _TreeWriter()
    spec = writer.spec(base.model)
    arrays = writer.arrays

    engines_meta: List[Dict[str, Any]] = []
    fingerprints: Dict[str, str] = {}
    for slot in base._slots:
        live = weight_fingerprint(slot.weight())
        if live != slot.fingerprint:
            raise SnapshotStaleError(
                f"layer {slot.layer_id!r} weights changed since programming; "
                f"call ensure_fresh() (and re-run) before saving"
            )
        fingerprints[slot.layer_id] = slot.fingerprint
        # The variants programmed under the layer's placement now — the
        # one a restore derives — the predicted one included even if the
        # slot never ran (engine_for is a no-op when already programmed).
        slot.engine_for(slot.predicted_signed)
        placed = slot.circuits_fn()
        for circuit, engine in slot._engines.items():
            if circuit in placed:
                engines_meta.append(
                    _write_state(engine, f"e{len(engines_meta)}", slot.layer_id, arrays)
                )

    meta: Dict[str, Any] = {
        "payload": "model",
        "created_at": float(created_at if created_at is not None else int(time.time())),
        "runtime_config": to_meta(base.config),
        "module_tree": spec,
        "fingerprints": fingerprints,
        "engines": engines_meta,
        "n_weight_layers": base.n_weight_layers,
        # The realized DAG topology (node names, op kinds, input edges,
        # output index).  load() rebuilds the plan from the module tree
        # and then checks it against this record, so a restore can never
        # silently execute a different graph than the one saved.
        "plan": base.plan_spec(),
    }
    meta["shards"] = None if sharded is None else {
        "n_shards": sharded.plan.n_shards,
        "link": to_meta(sharded.link),
        "segments": [to_meta(segment) for segment in sharded.plan.segments],
    }

    if key is None:
        key = artifact_key(
            base.model,
            base.config,
            shards=None if sharded is None else sharded.plan.n_shards,
            link=None if sharded is None else sharded.link,
        )
    meta["key"] = key
    with trace.maybe_span(
        "snapshot_save", "snapshot", key=key, engines=len(engines_meta)
    ):
        store.write_model(key, meta, arrays)
    _log.debug(
        "snapshot %s: saved %d engines, %d weight layers",
        key, len(engines_meta), base.n_weight_layers,
    )
    return key


def load(
    store: ArtifactStore,
    key: str,
    *,
    cache: Optional[EngineCache] = None,
    rng: Optional[np.random.Generator] = None,
    verify: bool = False,
):
    """Restore the artifact under ``key`` into an executable model.

    Returns a :class:`CompiledModel` (or :class:`ShardedModel` for a
    sharded artifact) whose outputs are bitwise identical to compiling
    the stored weights from scratch — pinned differentially by
    ``tests/test_snapshot.py``.  The plan is built once, straight into
    ``cache`` (default: the process-wide engine cache): each slot adopts
    its layer's stored codes under the circuit it derives as
    :func:`compile` does, so a load programs nothing and subsequent
    compilations of the same weights share the restored engines.

    The fast default trusts the artifact's recorded programming
    fingerprints (the content key and the container's declared sizes
    already pin what the file *is*).  ``verify=True`` additionally
    checksums the full data section and re-hashes every restored weight
    tensor against the recorded fingerprints — the audit path.

    Raises :class:`SnapshotKeyError` / :class:`SnapshotCorruptError` /
    :class:`SnapshotVersionError` for missing / damaged / incompatible
    artifacts, and :class:`SnapshotStaleError` when (under ``verify``)
    the artifact's stored weights do not hash to the fingerprints its
    engines were programmed under.
    """
    with trace.maybe_span(
        "snapshot_load", "snapshot", key=key, verify=verify
    ):
        restored = _load_impl(store, key, cache=cache, rng=rng, verify=verify)
    _log.debug("snapshot %s: restored %s", key, type(restored).__name__)
    return restored


def _load_impl(
    store: ArtifactStore,
    key: str,
    *,
    cache: Optional[EngineCache] = None,
    rng: Optional[np.random.Generator] = None,
    verify: bool = False,
):
    if verify:
        store.verify(key)
    meta, arrays = store.read_model(key)
    if meta.get("payload") != "model":
        raise SnapshotCorruptError(f"artifact {key!r} is not a model artifact")
    try:
        model = _restore_module(meta["module_tree"], arrays)
        config = from_meta(RuntimeConfig, meta["runtime_config"])
        stored = {
            layer_id: _StoredLayer(fingerprint, {}, verify)
            for layer_id, fingerprint in meta["fingerprints"].items()
        }
        for entry in meta["engines"]:  # a KeyError: an unknown layer
            stored[entry["layer_id"]].variants[bool(entry["signed_inputs"])] = (
                _stored_arrays(entry, arrays)
            )
    except (KeyError, ValueError, TypeError) as error:
        raise SnapshotCorruptError(
            f"artifact {key!r} is internally inconsistent: "
            f"{type(error).__name__}: {error}"
        ) from error

    # Each slot adopts its layer's stored state as the plan is built,
    # and raises a typed error when it cannot.
    compiled = _compile_plan(model, config, resolve_cache(cache), rng, stored)
    if {slot.layer_id for slot in compiled._slots} != set(stored):
        raise SnapshotCorruptError(
            f"artifact {key!r} stores programmed state for other weight "
            f"layers than its module tree has"
        )
    # The plan rebuilt over the restored tree must realize the exact
    # DAG topology the artifact records — a divergence means the tree
    # and the saved graph no longer describe the same execution.
    recorded_plan = meta.get("plan")
    if recorded_plan is not None and compiled.plan_spec() != recorded_plan:
        raise SnapshotCorruptError(
            f"artifact {key!r}: the plan rebuilt from the stored module "
            f"tree does not match the recorded graph topology"
        )

    shard_meta = meta.get("shards")
    if shard_meta is None:
        return compiled
    try:
        segments = tuple(
            from_meta(ShardSegment, segment) for segment in shard_meta["segments"]
        )
        plan = ShardPlan(n_shards=shard_meta["n_shards"], segments=segments)
        link = from_meta(ChipletLinkSpec, shard_meta["link"])
        # ShardedModel is the one plan validator: its ValueError is a
        # damaged shard section.
        return _shard(compiled, plan.n_shards, link=link, plan=plan)
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotCorruptError(
            f"artifact {key!r} shard section is malformed: "
            f"{type(error).__name__}: {error}"
        ) from error
