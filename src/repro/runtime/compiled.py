"""Compile-once / execute-many deployment runtime.

:func:`compile` separates what the seed library interleaved on every
forward call:

* **Programming** (once per model): validate the module graph, decide
  ROM/SRAM placement per layer, quantize weights, and build the tiled
  macro engines — shared through an LRU
  :class:`~repro.runtime.cache.EngineCache` keyed by
  ``(layer id, weight hash, config)`` so repeated and concurrent
  deployments of the same weights reuse programmed macros.
* **Execution** (per batch): stream activation batches through the
  cached engines, accumulating :class:`~repro.cim.macro.MacroStats`
  per run (and per :class:`~repro.runtime.session.ExecutionSession`)
  instead of mutating state on the model.

The execution plan is a **DAG IR**: a list of :class:`_PlanNode` whose
``inputs`` are explicit edges to earlier nodes (``-1`` is the model
input), executed in fixed topological order — the order the plan
builder created them, i.e. module-registration / ``plan_forward``
declaration order.  Fan-out (a tensor consumed by several nodes, e.g.
a residual shortcut) and fan-in (:class:`_AddStep`) are first-class,
intermediate buffers are refcounted and freed after their last
consumer, and the fixed order keeps bit-line-noise RNG draws
deterministic and bitwise identical to the (equally DAG-aware)
reference walker in :mod:`repro.runtime.reference`.

Composites declare their dataflow through the ``plan_forward(builder,
x)`` protocol: the builder hands the composite opaque
:class:`PlanHandle` values and the composite wires children
(``builder.child``) and fan-in ops (``builder.add``).  The one
composite rule, :func:`repro.runtime.reference.descend`, dispatches
it here, in the reference walker and in the analytic profile
(:func:`repro.models.profile.profile_model`), so a plan node and the
profile row of the same layer carry the same name.  Serial-chain
composites can simply set ``plan_forward = nn.plan_serial``.  A composite that overrides
``forward`` *without* declaring a plan raises a typed
:class:`~repro.runtime.errors.UnsupportedModuleError` at compile time —
never the silent child-chaining that used to defer failure to a
mid-run reshape error (or silently wrong outputs).

The compiled path is bitwise identical to the seed per-call functional
path at a fixed RNG seed — pinned by ``tests/test_runtime.py`` against
:func:`repro.runtime.reference.reference_forward`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import nn
from repro.cim.cells import ROM_1T, SRAM_CIM_6T
from repro.obs import trace
from repro.obs.log import get_logger
from repro.cim.encoding import ActivationEncoding
from repro.cim.macro import MacroConfig, MacroStats
from repro.runtime.cache import (
    EngineCache,
    EngineKey,
    resolve_cache,
    weight_fingerprint,
)
from repro.runtime.engine import (
    EngineCircuit,
    GroupedConv,
    engines_from_state,
    program_engine,
)
from repro.runtime.errors import CompileError, SnapshotCorruptError, SnapshotStaleError
from repro.runtime.programming import (
    DeployedLayerInfo,
    DeploymentReport,
    fold_batchnorm,
    validate_deployable,
)
from repro.runtime.reference import check_batch, descend, input_rank, pure_op
from repro.runtime.session import ExecutionSession

_log = get_logger("runtime.compile")

#: Sentinel distinguishing "use the compiled default encoding" from an
#: explicit ``encoding=None`` (force bit-serial) at run time.
_USE_DEFAULT = object()

#: Node-input index denoting the model input tensor.
INPUT = -1


@dataclass
class RuntimeConfig:
    """Programming-time options of :func:`compile`.

    Fields
    ------
    ``rom_config``
        :class:`~repro.cim.macro.MacroConfig` programmed for frozen
        (ROM-resident) weight layers; ``None`` selects the default
        ``MacroConfig(cell=ROM_1T)``.
    ``sram_config``
        Macro configuration for trainable (SRAM-resident) layers;
        ``None`` selects the default ``MacroConfig(cell=SRAM_CIM_6T)``.
    ``activation_bits``
        Uniform quantization width of every activation batch entering a
        weight layer.  Quantization scales are *batch-global* (seed
        semantics — see docs/numerics.md), and this is also the payload
        width per element charged when activations cross an
        inter-chiplet link in a sharded deployment.
    ``encoding``
        Default word-line :class:`~repro.cim.encoding.ActivationEncoding`
        applied at execution time to layers with non-negative inputs;
        ``None`` means plain bit-serial streaming.  Overridable per run.
    ``fold_bn``
        Fold ``BatchNorm2d`` layers into their preceding convolutions at
        compile time (mutates the module tree once, like chip mask
        preparation).

    The model input is predicted signed and every layer after an
    unsigned activation (ReLU, Sigmoid) unsigned, matching the chip's
    mixed configuration.  Execution still detects the actual sign per
    batch and programs the other variant through the cache if a batch
    defies the prediction, so the prediction affects only what is
    programmed eagerly.
    """

    rom_config: Optional[MacroConfig] = None
    sram_config: Optional[MacroConfig] = None
    activation_bits: int = 8
    encoding: Optional[ActivationEncoding] = None
    fold_bn: bool = False

    def resolved_rom(self) -> MacroConfig:
        return (
            self.rom_config
            if self.rom_config is not None
            else MacroConfig(cell=ROM_1T)
        )

    def resolved_sram(self) -> MacroConfig:
        return (
            self.sram_config
            if self.sram_config is not None
            else MacroConfig(cell=SRAM_CIM_6T)
        )


class _RunState:
    """Per-run execution context threaded through the plan.

    ``degrade`` is the chaos runtime's seam: when set (duck-typed, see
    :class:`repro.chaos.Degradation`), every engine-bearing step passes
    it down as its engine call's ``degrade=``, so live drift/noise
    faults reach the analog paths as state of *this run* — the engines,
    shared through the cache with concurrent runs, are never modified.
    """

    __slots__ = ("rng", "encoding", "stats", "degrade")

    def __init__(self, rng, encoding, degrade=None):
        self.rng = rng
        self.encoding = encoding
        self.stats = MacroStats()
        self.degrade = degrade


@dataclass(frozen=True)
class PlanHandle:
    """Opaque reference to one dataflow value during plan building.

    ``plan_forward`` implementations receive and return these; the only
    legal operations are passing them to the builder (``child`` /
    ``add``).  ``signed`` is the compile-time signedness prediction of
    the value (what gets programmed eagerly — execution re-detects per
    batch).
    """

    index: int
    signed: bool


class _PlanNode:
    """One executable node of the plan DAG.

    ``inputs`` are indices of earlier nodes (:data:`INPUT` is the model
    input); execution order is list order — the fixed topological order
    the builder created the nodes in.
    """

    __slots__ = ("op", "inputs", "name")

    def __init__(self, op: Any, inputs: Tuple[int, ...], name: str):
        self.op = op
        self.inputs = inputs
        self.name = name


class _FuncStep:
    """A pure (engine-free) operation: activation, pooling, reshape."""

    kind = "func"

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self.fn = fn

    def apply(self, x: np.ndarray, state: _RunState) -> np.ndarray:
        return self.fn(x)


class _AddStep:
    """Fan-in: element-wise sum of two dataflow values (residual add)."""

    kind = "add"

    def __init__(self, name: str):
        self.name = name

    def apply(self, a: np.ndarray, b: np.ndarray, state: _RunState) -> np.ndarray:
        return a + b


class _StoredLayer(NamedTuple):
    """A layer's stored ``signed -> (codes, scale)`` variants and the
    fingerprint they were programmed under (re-checked if ``verify``)."""

    fingerprint: Optional[str]
    variants: Dict[bool, Tuple[np.ndarray, np.ndarray]]
    verify: bool


#: A placement's ``(unsigned, signed)`` input circuits, indexed by the
#: input signedness.
_Circuits = Tuple[EngineCircuit, EngineCircuit]


class _EngineSlot:
    """One weight layer's handle into the engine cache.

    Holds a live reference to the layer's weights (``module``, and the
    ``rows`` of its weight a channel group owns) and placement
    (``circuits_fn`` — the seed path re-decided ROM vs SRAM from
    ``requires_grad`` on every forward, so freezing a layer after
    compilation moves it to ROM here too) plus the fingerprint taken at
    programming time; engines for each input signedness are fetched
    through the cache on demand, so two compiled models over the same
    weights share programmed tiles.  A grouped convolution programs one
    slot per group (layer id ``<name>::g<i>``) under its one plan node.
    A compile programs the slot (:meth:`program`); a snapshot restore
    seeds it with stored engines instead (:meth:`_PlanBuilder._adopt`).
    """

    def __init__(
        self,
        layer_id: str,
        module: nn.Module,
        rows: Optional[Tuple[int, int]],
        circuits_fn: Callable[[], _Circuits],
        cache: EngineCache,
        predicted_signed: bool,
        geometry: Tuple[int, ...] = (),
    ):
        self.layer_id = layer_id
        self.module = module
        self.rows = rows
        self.circuits_fn = circuits_fn
        self.cache = cache
        self.predicted_signed = bool(predicted_signed)
        #: What a conv engine's key and state add to a linear one's —
        #: its ``(stride, padding)``; empty for a linear layer.
        self.geometry = geometry
        self.fingerprint: Optional[str] = None
        # Strong per-slot references, one per circuit: the LRU cache
        # shares engines across models, but eviction there must never
        # force this compiled model to reprogram its own layers on the
        # hot path.
        self._engines: Dict[EngineCircuit, Any] = {}

    def weight(self) -> np.ndarray:
        """The live float weights this slot programs: the module's, or
        the ``rows`` (output channels) of its channel group."""
        weight = self.module.weight.data
        return weight if self.rows is None else weight[self.rows[0] : self.rows[1]]

    def program(self) -> None:
        """Compile-once: fingerprint the weights and program the
        predicted variant eagerly."""
        self.fingerprint = weight_fingerprint(self.weight())
        self.engine_for(self.predicted_signed)

    def _key(self, circuit: EngineCircuit):
        return circuit.engine_key(self.layer_id, self.fingerprint, *self.geometry)

    def engine_for(self, signed: bool):
        circuit = self.circuits_fn()[bool(signed)]
        engine = self._engines.get(circuit)
        if engine is None:
            program = functools.partial(
                program_engine, self.weight(), circuit, *self.geometry
            )
            engine = self.cache.get_or_program(self._key(circuit), program)
            self._engines[circuit] = engine
        return engine

    def cache_tier(self) -> str:
        """Provenance of this slot's predicted engine in the shared
        cache — ``"programmed"`` / ``"disk"`` / ``"snapshot"`` — or
        ``"evicted"`` when the LRU dropped it (the slot's own strong
        reference keeps the engine alive regardless)."""
        circuit = self.circuits_fn()[self.predicted_signed]
        if circuit not in self._engines:
            return "evicted"
        return self.cache.tier_of(self._key(circuit)) or "evicted"

    def refresh(self) -> bool:
        """Re-fingerprint the live weights; True when they changed."""
        fingerprint = weight_fingerprint(self.weight())
        changed = fingerprint != self.fingerprint
        if changed:
            self.fingerprint = fingerprint
            self._engines.clear()  # reprogram (through the cache) on next use
        return changed


class _ConvStep:
    """A convolution lowered to one conv engine per channel group.

    Group ``g`` owns its slice of the input channels and of the output
    channels, programmed as an independent conv engine (one
    :class:`_EngineSlot` per group, shared through the engine cache); a
    plain convolution is the one-group case, through the same pass.
    The engines are per group, execution is per layer
    (:class:`GroupedConv`, which keeps the groups' stacked kernel — one
    group's own — between runs): group-major stats and noise draws,
    matching the (equally grouped) reference path bit for bit.
    """

    def __init__(self, name: str, slots: List[_EngineSlot], module: nn.Conv2d):
        self.name = name
        self.slots = slots
        self.module = module
        self.kind = "conv" if len(slots) == 1 else "grouped_conv"
        kh, kw = module.kernel_size
        self._layer = GroupedConv(
            (module.out_channels, module.in_channels // module.groups, kh, kw),
            module.groups,
            *slots[0].geometry,
            self._engine_for,
        )

    def _engine_for(self, group: int, signed: bool):
        return self.slots[group].engine_for(signed)

    def apply(self, x: np.ndarray, state: _RunState) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # Seed semantics: the encoding fallback keys on the raw layer
        # input, while quantization signedness keys on each group's
        # im2col patches (what actually reaches the word lines) — a
        # stride larger than the kernel can make the two disagree.
        encoding = state.encoding
        if encoding is not None and bool((x < 0).any()):
            encoding = None
        out, stats = self._layer.execute(
            x, rng=state.rng, encoding=encoding, degrade=state.degrade
        )
        state.stats = state.stats + stats
        if self.module.bias is not None:
            out = out + self.module.bias.data.reshape(1, -1, 1, 1)
        return out


class _LinearStep:
    kind = "linear"

    def __init__(self, slot: _EngineSlot, module: nn.Linear):
        self.slots = [slot]
        self.module = module
        self.name = slot.layer_id

    def apply(self, x: np.ndarray, state: _RunState) -> np.ndarray:
        signed = bool((x < 0).any())
        encoding = None if signed else state.encoding
        out, stats = self.slots[0].engine_for(signed).execute(
            x, rng=state.rng, encoding=encoding, degrade=state.degrade
        )
        state.stats = state.stats + stats
        if self.module.bias is not None:
            out = out + self.module.bias.data
        return out


class GraphBuilder:
    """The surface a composite's ``plan_forward(builder, x)`` sees.

    ``child`` lowers a child module (by its registration name) on a
    dataflow value; ``add`` wires a two-input element-wise sum (the
    residual fan-in).  Reusing a handle in several calls expresses
    fan-out (an identity skip needs no op at all).  Every call appends
    nodes in declaration order — that order *is* the execution (and
    RNG-draw) order.
    """

    __slots__ = ("_builder", "_prefix")

    def __init__(self, builder: "_PlanBuilder", prefix: str):
        self._builder = builder
        self._prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def child(self, module: nn.Module, name: str, x: PlanHandle) -> PlanHandle:
        """Lower child ``module`` (registered as ``name``) applied to ``x``."""
        self._builder._check_handle(x)
        return self._builder.build(module, self._qualify(name), x)

    def add(self, a: PlanHandle, b: PlanHandle, name: str = "add") -> PlanHandle:
        """Element-wise ``a + b`` (residual fan-in)."""
        self._builder._check_handle(a)
        self._builder._check_handle(b)
        full = self._qualify(name)
        index = self._builder._append(
            _AddStep(full), (a.index, b.index), full
        )
        return PlanHandle(index, a.signed or b.signed)


def _memory(module) -> str:
    """Fig. 9 placement of a conv or linear: trainable -> SRAM, frozen
    -> ROM (a ReBranch's frozen trunk and projections on ROM, its
    trainable res-conv on SRAM)."""
    return "sram" if module.weight.requires_grad else "rom"


class _PlanBuilder:
    """Walk the module tree once, building the plan DAG, the engine
    slots and the placement report (one row per weight layer, appended
    as it is lowered).  ``stored`` (layer id -> :class:`_StoredLayer`)
    makes every layer adopt a snapshot's programmed state.

    Each placement's circuits — one per input signedness — are derived
    here, once: every engine this plan programs or restores under a
    placement holds its one :class:`~repro.runtime.engine.EngineCircuit`."""

    def __init__(
        self,
        config: RuntimeConfig,
        cache: EngineCache,
        stored: Optional[Dict[str, _StoredLayer]] = None,
    ):
        self.config = config
        self.configs = {"rom": config.resolved_rom(), "sram": config.resolved_sram()}
        # One pair per config object: one config serving both memories
        # is one placement, so freezing a layer keeps its engines.
        derived: Dict[int, _Circuits] = {}
        for macro in self.configs.values():
            if id(macro) not in derived:
                derived[id(macro)] = tuple(
                    EngineCircuit(macro, config.activation_bits, signed)
                    for signed in (False, True)
                )
        self.circuits = {
            memory: derived[id(macro)] for memory, macro in self.configs.items()
        }
        self.cache = cache
        self.stored = stored
        self.nodes: List[_PlanNode] = []
        self.slots: List[_EngineSlot] = []
        self.report = DeploymentReport()

    # -- node plumbing --------------------------------------------------
    def _append(self, op: Any, inputs: Tuple[int, ...], name: str) -> int:
        self.nodes.append(_PlanNode(op, tuple(inputs), name))
        return len(self.nodes) - 1

    def _check_handle(self, handle: Any) -> None:
        if not isinstance(handle, PlanHandle) or not (
            INPUT <= handle.index < len(self.nodes)
        ):
            raise CompileError(
                f"plan_forward passed an invalid dataflow value "
                f"{handle!r}; only PlanHandles obtained from this builder "
                f"are legal"
            )

    def _leaf(self, op: Any, name: str, x: PlanHandle, signed: bool) -> PlanHandle:
        index = self._append(op, (x.index,), name)
        return PlanHandle(index, signed)

    def _place(self, name: str, kind: str, module) -> Callable[[], _Circuits]:
        """Place a conv or linear: append its report row as placed now,
        its weights charged that memory's weight width, and return the
        live choice, evaluated at execution time like the seed path, so
        freezing or unfreezing the layer after compilation moves it
        between macros."""
        memory = _memory(module)
        bits = module.weight.size * self.configs[memory].weight_bits
        if memory == "rom":
            self.report.rom_weight_bits += bits
        else:
            self.report.sram_weight_bits += bits
        self.report.layers.append(DeployedLayerInfo(name, kind, memory, bits))
        return lambda: self.circuits[_memory(module)]

    def _slots(
        self,
        name: str,
        module: nn.Module,
        circuits_fn: Callable[[], _Circuits],
        signed: bool,
        geometry: Tuple[int, ...] = (),
        groups: int = 1,
    ) -> List[_EngineSlot]:
        """The slots of one layer's channel groups — layer ids
        ``<name>::g<i>``, or the bare name for one group — programmed,
        or on a restore adopted together."""
        if groups == 1:
            layers = [(name, None)]
        else:
            size = module.weight.shape[0] // groups
            layers = [
                (f"{name}::g{g}", (g * size, (g + 1) * size)) for g in range(groups)
            ]
        slots = [
            _EngineSlot(
                layer_id, module, rows, circuits_fn, self.cache, signed, geometry
            )
            for layer_id, rows in layers
        ]
        self.slots.extend(slots)
        if self.stored is None:
            for slot in slots:
                slot.program()
        else:
            self._adopt(slots)
        return slots

    def _adopt(self, slots: List[_EngineSlot]) -> None:
        """Seed one layer's group slots and the cache (tier
        ``"snapshot"``) with engines over the stored codes, built under
        the layer's placement now: what compiling holds, with nothing
        quantized.  The stored fingerprints are trusted unless
        ``verify``; each signedness' codes are copied off the artifact
        once for the whole layer, and the cache is seeded in one go."""
        variants_of = []
        for slot in slots:
            stored = self.stored.get(slot.layer_id)
            if stored is None:
                raise SnapshotCorruptError(
                    f"artifact stores programmed state for other weight layers "
                    f"than its module tree has: none for layer {slot.layer_id!r}"
                )
            slot.fingerprint = stored.fingerprint
            if stored.verify:
                slot.fingerprint = weight_fingerprint(slot.weight())
            if (
                slot.fingerprint != stored.fingerprint
                or slot.predicted_signed not in stored.variants
            ):
                raise SnapshotStaleError(
                    f"artifact holds no state programmed from layer "
                    f"{slot.layer_id!r}'s weights"
                )
            variants_of.append(stored.variants)
        first = slots[0]
        circuits, geometry = first.circuits_fn(), first.geometry
        shape = first.weight().shape
        # Per signedness: group index -> engine, the held groups' codes
        # copied off the artifact together.
        engines: List[Dict[int, Any]] = [{}, {}]
        for signed, circuit in enumerate(circuits):
            held = [g for g, variants in enumerate(variants_of) if signed in variants]
            if held:
                built = engines_from_state(
                    [slots[g].layer_id for g in held],
                    shape,
                    [variants_of[g][signed] for g in held],
                    circuit,
                    *geometry,
                )
                engines[signed] = dict(zip(held, built))
        # Slot and cache entries in the artifact's order, so a re-save
        # writes the same bytes.
        config_keys = [circuit.config_key(*geometry) for circuit in circuits]
        seeded = []
        for g, (slot, variants) in enumerate(zip(slots, variants_of)):
            for signed in variants:
                engine = slot._engines[circuits[signed]] = engines[signed][g]
                key = EngineKey(slot.layer_id, slot.fingerprint, config_keys[signed])
                seeded.append((key, engine))
        self.cache.seed(seeded)

    def _conv(self, name: str, conv: nn.Conv2d, circuits_fn, x: PlanHandle) -> PlanHandle:
        """One conv step over one engine slot per channel group — layer
        ids ``<name>::g<i>``, or the bare name for a plain convolution."""
        sh, sw = conv.stride
        ph, pw = conv.padding
        if sh != sw or ph != pw:
            raise ValueError("deployment supports square stride/padding only")
        slots = self._slots(name, conv, circuits_fn, x.signed, (sh, ph), conv.groups)
        return self._leaf(_ConvStep(name, slots, conv), name, x, True)

    # -- lowering -------------------------------------------------------
    def build(self, module: nn.Module, name: str, x: PlanHandle) -> PlanHandle:
        """Lower ``module`` applied to ``x``; returns the output handle."""
        if isinstance(module, nn.Conv2d):
            return self._conv(name, module, self._place(name, "conv", module), x)

        if isinstance(module, nn.Linear):
            (slot,) = self._slots(
                name, module, self._place(name, "linear", module), x.signed
            )
            return self._leaf(_LinearStep(slot, module), name, x, True)

        op = pure_op(module)
        if op is not None:
            fn, sign = op
            return self._leaf(
                _FuncStep(name, functools.partial(fn, module)),
                name,
                x,
                x.signed if sign is None else sign,
            )

        out = descend(module, name, GraphBuilder(self, name), x)
        self._check_handle(out)
        return out


class CompiledModel:
    """A model whose macros are programmed; ready for batched execution.

    Obtain one through :func:`compile`.  :meth:`run` is the hot path:
    it never re-quantizes weights or rebuilds tiles — only activation
    quantization and the macro arithmetic happen per batch.  The plan
    is a DAG (:class:`_PlanNode` list in fixed topological order);
    intermediate values are refcounted and freed after their last
    consumer.
    """

    def __init__(
        self,
        model: nn.Module,
        config: RuntimeConfig,
        nodes: List[_PlanNode],
        output_index: int,
        slots: List[_EngineSlot],
        report: DeploymentReport,
        cache: EngineCache,
        rng: Optional[np.random.Generator],
    ):
        self.model = model
        self.config = config
        self.report = report
        self.cache = cache
        self._nodes = nodes
        self._output_index = output_index
        self._slots = slots
        self._rng = rng if rng is not None else np.random.default_rng()
        self._consumers = self._count_consumers()
        self._input_rank = input_rank(model)

    def _count_consumers(self) -> Dict[int, int]:
        """Refcounts: how many consumers each value (node output or the
        model input) has, with one extra hold on the plan output."""
        consumers: Dict[int, int] = {}
        for node in self._nodes:
            for j in node.inputs:
                consumers[j] = consumers.get(j, 0) + 1
        consumers[self._output_index] = consumers.get(self._output_index, 0) + 1
        for i, node in enumerate(self._nodes):
            if consumers.get(i, 0) == 0:
                raise CompileError(
                    f"plan node {node.name!r} is dead: its output is never "
                    f"consumed and it is not the plan output — fix the "
                    f"plan_forward that created it"
                )
        return consumers

    # -- plan introspection --------------------------------------------
    def plan_spec(self) -> Dict[str, Any]:
        """JSON-serializable topology of the plan DAG (for artifacts,
        debugging and drift checks): node names, op kinds, input edges,
        and the output index."""
        return {
            "nodes": [
                {
                    "name": node.name,
                    "op": node.op.kind,
                    "inputs": list(node.inputs),
                }
                for node in self._nodes
            ],
            "output": self._output_index,
        }

    # -- execution -----------------------------------------------------
    def run(
        self,
        batch: np.ndarray,
        *,
        encoding: Any = _USE_DEFAULT,
        rng: Optional[np.random.Generator] = None,
        session: Optional[ExecutionSession] = None,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Stream one activation batch through the programmed engines.

        Returns ``(outputs, stats)`` where ``stats`` covers exactly this
        run; pass ``session`` to additionally accumulate across runs.
        ``encoding`` overrides the compiled default word-line encoding
        for this run (``None`` forces bit-serial); layers whose input
        carries negative values fall back to bit-serial either way.
        ``degrade`` (a :class:`repro.chaos.Degradation`) is this run's
        analog degradation, passed to every engine call.

        Concurrent sessions over one compiled model should pass their
        own ``rng`` per run when the bit line is noisy — the compiled
        default generator, like any numpy ``Generator``, is not safe to
        draw from concurrently.
        """
        state = self._new_state(rng, encoding, degrade)
        x = check_batch(batch, self._input_rank)
        n_samples = x.shape[0]
        # Resolve the tracer once per run: with tracing disabled this is
        # one module-global read plus the shared no-op span context per
        # node (counted by ``benchmarks/test_bench_obs.py``).
        tracer = trace.current()
        with trace.NULL_SPAN if tracer is None else tracer.span(
            "run", "runtime", model=type(self.model).__name__, batch=n_samples
        ) as run_span:
            out = self._walk(0, len(self._nodes), x, state, tracer)
            if run_span is not None:
                # Totals go under ``chip_total_ns`` so the enclosing
                # span never double-counts into the synthetic chip
                # track the node spans build.
                run_span.set("chip_total_ns", state.stats.latency_ns)
                run_span.set("energy_total_fj", state.stats.total_energy_fj)
        if session is not None:
            session.record(state.stats, samples=n_samples)
        return out, state.stats

    def _new_state(
        self, rng: Optional[np.random.Generator], encoding: Any, degrade: Any = None
    ) -> _RunState:
        """The context of one run; ``rng`` and ``encoding`` fall back to
        the compiled defaults."""
        return _RunState(
            rng=rng if rng is not None else self._rng,
            encoding=self.config.encoding if encoding is _USE_DEFAULT else encoding,
            degrade=degrade,
        )

    def _walk(
        self,
        lo: int,
        hi: int,
        x: np.ndarray,
        state: _RunState,
        tracer: Optional["trace.Tracer"] = None,
    ) -> np.ndarray:
        """The one plan walk: execute nodes ``[lo, hi)`` in index order.

        ``x`` is bound to the value of node ``lo - 1`` (the model input
        when ``lo`` is 0 — :data:`INPUT` is ``-1``), which is all a
        contiguous range needs whenever the boundary before ``lo`` is a
        single-edge frontier: the whole plan, one shard stage, or the
        suffix of a stage a failover replay resumes in.  Returns the
        value of node ``hi - 1`` (``x`` itself for an empty range).
        Intermediate buffers are freed after their last consumer.

        Handed a ``tracer``, every node gets one span whose ``chip_ns``
        / ``energy_fj`` / ``macs`` are the *deltas* of the run's
        cumulative :class:`MacroStats` across the node, so the spans
        partition the run exactly: their energy sums to
        ``stats.total_energy_fj`` and their chip time to
        ``stats.latency_ns`` (the profiler and the chip-time trace track
        rely on this).  Stage walks pass none — their enclosing stage
        span already carries the ``chip_ns``.
        """
        if lo >= hi:
            return x
        nodes = self._nodes
        values: Dict[int, np.ndarray] = {lo - 1: x}
        remaining = dict(self._consumers)
        for i in range(lo, hi):
            node = nodes[i]
            args = tuple(values[j] for j in node.inputs)
            with trace.NULL_SPAN if tracer is None else tracer.span(
                node.name, "plan", kind=node.op.kind
            ) as sp:
                before = state.stats
                values[i] = node.op.apply(*args, state)
                if sp is not None:
                    after = state.stats
                    sp.set("chip_ns", after.latency_ns - before.latency_ns)
                    sp.set("energy_fj", after.total_energy_fj - before.total_energy_fj)
                    sp.set("macs", after.macs - before.macs)
                    sp.set("node_index", i)
            for j in node.inputs:
                remaining[j] -= 1
                if remaining[j] == 0:
                    del values[j]  # refcount hit zero: free the buffer
        return values[hi - 1]

    def new_session(self) -> ExecutionSession:
        return ExecutionSession()

    # -- freshness -----------------------------------------------------
    def ensure_fresh(self) -> int:
        """Re-fingerprint every layer's live weights.

        Engines for changed weights are re-programmed lazily through the
        cache on the next run.  Returns the number of changed layers.
        Call this after mutating weights in place (e.g. on-chip
        training of SRAM layers); a pure compile-once serving path never
        needs it.
        """
        return sum(1 for slot in self._slots if slot.refresh())

    # -- introspection -------------------------------------------------
    @property
    def n_weight_layers(self) -> int:
        return len(self._slots)

    def programmed_engines(self) -> Dict[str, Any]:
        """Layer id -> engine programmed for the predicted signedness."""
        return {
            slot.layer_id: slot.engine_for(slot.predicted_signed)
            for slot in self._slots
        }

    def profile(self, input_shape: Tuple[int, ...]):
        """Analytic :class:`~repro.models.profile.ModelProfile` of the
        underlying model, walked afresh so placement changes made after
        compilation (``freeze``) show in ``trainable``; its weight rows
        carry the plan's weight-node names."""
        from repro.models.profile import profile_model

        return profile_model(self.model, input_shape)


def compile(
    model: nn.Module,
    config: Optional[RuntimeConfig] = None,
    *,
    rng: Optional[np.random.Generator] = None,
    cache: Optional[EngineCache] = None,
    shards: Optional[int] = None,
    link: Optional[Any] = None,
    shard_input_shape: Optional[Tuple[int, ...]] = None,
):
    """Program ``model``'s macros once; returns the executable image.

    ``cache`` defaults to the process-wide engine cache, so compiling
    the same weights twice (or from two sessions) programs each layer's
    macros exactly once.  ``rng`` seeds the default execution-time noise
    stream (only consumed when the bit line is noisy).

    ``shards`` (when given, >= 1) partitions the compiled plan across
    that many simulated chiplets and returns a
    :class:`~repro.runtime.sharded.ShardedModel` instead — equivalent to
    ``sharded.shard(compile(model, config), shards)``; ``shards=1``
    yields a single-shard model (the serial baseline of a sweep, free
    of link crossings).  ``link`` overrides the inter-chiplet link spec
    and ``shard_input_shape`` enables the MAC-balanced layer cut.

    :func:`repro.runtime.snapshot.load` builds the same plan over a
    stored module tree, with each slot adopting the artifact's stored
    codes instead of programming.
    """
    config = config if config is not None else RuntimeConfig()
    compiled = _compile_plan(model, config, resolve_cache(cache), rng)
    if shards is None:
        return compiled
    from repro.runtime.sharded import shard as _shard

    return _shard(compiled, shards, link=link, input_shape=shard_input_shape)


def _compile_plan(
    model: nn.Module,
    config: RuntimeConfig,
    cache: EngineCache,
    rng: Optional[np.random.Generator],
    stored: Optional[Dict[str, _StoredLayer]] = None,
) -> CompiledModel:
    """:func:`compile`'s body over a resolved cache: the plan, its slots
    and the placement report (``stored``: see :class:`_PlanBuilder`)."""
    with trace.maybe_span(
        "compile", "compile", model=type(model).__name__
    ) as compile_span:
        if config.fold_bn:
            with trace.maybe_span("fold_batchnorm", "compile"):
                fold_batchnorm(model)
        with trace.maybe_span("validate_deployable", "compile"):
            validate_deployable(model)
        builder = _PlanBuilder(config, cache, stored)
        with trace.maybe_span("build_plan", "compile"):
            output = builder.build(model, "", PlanHandle(INPUT, True))
        # Adopted: the engines own copies of the stored codes, so the
        # builder, which the placement closures keep alive, drops its
        # per-group map of them.
        builder.stored = None
        if compile_span is not None:
            compile_span.set("nodes", len(builder.nodes))
            compile_span.set("weight_layers", len(builder.slots))
    _log.debug(
        "compiled %s: %d plan nodes, %d weight layers, fold_bn=%s",
        type(model).__name__,
        len(builder.nodes),
        len(builder.slots),
        config.fold_bn,
    )
    return CompiledModel(
        model,
        config,
        builder.nodes,
        output.index,
        builder.slots,
        builder.report,
        cache,
        rng,
    )


#: Alias for callers that shadow the builtin ``compile``.
compile_model = compile
