"""Sharded pipeline-parallel execution across simulated chiplets.

The paper's chiplet baseline (Fig. 13c) spreads a model over several
dies connected by SIMBA-style serial links; section 4.3.3 analyses the
latency such an assembly recovers through pipelining.  Until now both
existed only as analytical models (``arch/chiplet.py``,
``arch/pipeline.py``) while the runtime executed every model on one
monolithic engine stack.  This module closes that gap:

* :func:`plan_shards` cuts a :class:`~repro.runtime.CompiledModel`'s
  DAG plan into ``n`` contiguous segments — a balanced layer-cut over
  per-node weight bits and compute cost (MACs from
  :mod:`repro.models.profile` when an input shape is known).  Cuts land
  only on **single-edge dataflow frontiers**: a residual or ReBranch
  diamond (fan-out rejoined by an add) is atomic, so every shard
  boundary carries exactly one activation tensor.
* :class:`ShardedModel` executes that plan one stage step at a time.
  :meth:`ShardedModel.run` steps one batch through all shards in order
  (bitwise identical to the unsharded model — see below);
  :meth:`ShardedModel.run_stream` steps micro-batches *pipeline-parallel*:
  one worker thread per shard, bounded inter-shard queues, shard ``k``
  working on micro-batch ``i`` while shard ``k-1`` works on ``i+1``.
* Every activation tensor crossing a shard boundary is charged transfer
  energy and latency on a :class:`~repro.arch.chiplet.ChipletLinkSpec`
  (SIMBA's 1.17 pJ/bit serial link by default), folded into the
  ``link_*`` fields of :class:`~repro.cim.macro.MacroStats` and from
  there into :class:`~repro.runtime.ExecutionSession` accounting.

Numerics contract (docs/numerics.md): sharding cuts the *plan*, never a
batch — each micro-batch traverses every shard whole, so batch-global
activation quantization sees exactly the tensors it would see
unsharded.  ``shard(compiled, n).run(batch)`` applies the same step
objects in the same order with the same RNG stream as
``compiled.run(batch)`` and is therefore bitwise identical to it; the
shards only add ``link_*`` accounting.  In :meth:`run_stream` each
micro-batch owns an RNG derived by :func:`stream_rng`, so a pipelined
stream replays bitwise against per-batch unsharded runs seeded the same
way.

Wall-clock speedup from the worker threads depends on host cores; the
*simulated* speedup reported by :class:`StreamResult` is computed from
the measured per-stage macro latencies of the really-executed traffic
and is therefore machine-independent — that is the serial-vs-pipelined
makespan comparison ``benchmarks/test_bench_shard.py`` pins.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.chiplet import ChipletLinkSpec, SIMBA_LINK
from repro.cim.macro import MacroStats
from repro.obs import trace
from repro.runtime.compiled import (
    _USE_DEFAULT,
    INPUT,
    _PlanNode,
    _RunState,
    CompiledModel,
)
from repro.runtime.reference import check_batch
from repro.runtime.session import ExecutionSession


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG micro-batch ``index`` owns in a seeded pipelined stream.

    Deterministic per (seed, index), so an unsharded replay of one
    micro-batch — ``compiled.run(batch, rng=stream_rng(seed, i))`` —
    draws the same noise stream the pipelined execution drew for it.
    """
    return np.random.default_rng([int(seed), int(index)])


def _node_slots(node: _PlanNode) -> List[Any]:
    """Engine slots a plan node owns (empty for pure function/add nodes)."""
    return list(getattr(node.op, "slots", ()))


def _legal_cuts(nodes: Sequence[_PlanNode], output_index: int) -> List[bool]:
    """``legal[i]``: a shard boundary may fall after node ``i``.

    A cut is legal exactly when its frontier is a **single edge** —
    i.e. node ``i`` is the only producer at or before the cut whose
    value is still live after it.  Serial chains make every boundary
    legal; a fan-out region (a residual or ReBranch diamond, where the
    shortcut keeps an earlier value live) closes boundaries until the
    fan-in rejoins.  Single-edge frontiers are what let shards exchange
    exactly one activation tensor per boundary.
    """
    n = len(nodes)
    last_use: Dict[int, int] = {}
    for i, node in enumerate(nodes):
        for j in node.inputs:
            last_use[j] = i
    last_use[output_index] = n  # the plan output is live past every cut
    closes_at: Dict[int, List[int]] = {}
    for producer, last in last_use.items():
        closes_at.setdefault(last, []).append(producer)
    live = {INPUT} if INPUT in last_use else set()
    legal: List[bool] = []
    for i in range(n):
        for producer in closes_at.get(i, ()):
            live.discard(producer)
        if last_use.get(i, i) > i:
            live.add(i)
        legal.append(live == {i})
    return legal


def _blocks_of(nodes: Sequence[_PlanNode], output_index: int) -> List[List[int]]:
    """Group node indices into cuttable, weight-anchored blocks.

    Nodes are first split at legal (single-edge-frontier) cuts; a DAG
    diamond — residual block, ReBranch — is therefore one atomic
    segment.  Segments carrying no engine slots (pure activations,
    pooling, reshape, fan-in adds between weight segments) ride with
    the preceding weight-anchored block; a leading run of pure segments
    merges into the first weight block, so every block is anchored on
    at least one weight layer.
    """
    legal = _legal_cuts(nodes, output_index)
    segments: List[List[int]] = []
    current: List[int] = []
    for i in range(len(nodes)):
        current.append(i)
        if legal[i] or i == len(nodes) - 1:
            segments.append(current)
            current = []
    blocks: List[List[int]] = []
    for segment in segments:
        anchored = any(_node_slots(nodes[i]) for i in segment)
        if anchored or not blocks:
            blocks.append(segment)
        else:
            blocks[-1].extend(segment)
    if len(blocks) > 1 and not any(_node_slots(nodes[i]) for i in blocks[0]):
        blocks[1] = blocks[0] + blocks[1]
        del blocks[0]
    return blocks


@dataclass(frozen=True)
class ShardSegment:
    """One shard's contiguous slice of the compiled step plan."""

    index: int
    step_indices: Tuple[int, ...]
    layer_ids: Tuple[str, ...]
    weight_bits: float
    macs: float
    cost: float


@dataclass(frozen=True)
class ShardPlan:
    """A balanced contiguous partition of a compiled model's plan.

    Segments cover every step exactly once, in order; each segment is
    anchored on at least one weight layer (pure activation / pooling /
    reshape steps ride with the weight layer that feeds them).
    """

    n_shards: int
    segments: Tuple[ShardSegment, ...]

    @property
    def total_weight_bits(self) -> float:
        return sum(s.weight_bits for s in self.segments)

    @property
    def total_macs(self) -> float:
        return sum(s.macs for s in self.segments)

    @property
    def balance(self) -> float:
        """Max segment cost over mean segment cost (1.0 = perfect)."""
        costs = [s.cost for s in self.segments]
        mean = sum(costs) / len(costs) if costs else 0.0
        return max(costs) / mean if mean else 1.0

    def describe(self) -> str:
        lines = []
        for seg in self.segments:
            lines.append(
                f"shard {seg.index}: {len(seg.step_indices)} steps, "
                f"{seg.weight_bits / 8 / 1024:.1f} KiB weights, "
                f"{seg.macs / 1e6:.2f} MMACs "
                f"[{', '.join(seg.layer_ids) or 'no weight layers'}]"
            )
        return "\n".join(lines)


def _balanced_cuts(costs: Sequence[float], n: int) -> List[int]:
    """Linear-partition DP: split ``costs`` into ``n`` contiguous runs
    minimizing the maximum run cost.  Returns run lengths."""
    b = len(costs)
    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + c)
    span = lambda i, j: prefix[j] - prefix[i]  # noqa: E731
    # best[k][j]: minimal max-run-cost splitting costs[:j] into k runs.
    inf = float("inf")
    best = [[inf] * (b + 1) for _ in range(n + 1)]
    cut = [[0] * (b + 1) for _ in range(n + 1)]
    best[0][0] = 0.0
    for k in range(1, n + 1):
        for j in range(k, b - (n - k) + 1):
            for i in range(k - 1, j):
                if best[k - 1][i] == inf:
                    continue
                candidate = max(best[k - 1][i], span(i, j))
                if candidate < best[k][j]:
                    best[k][j] = candidate
                    cut[k][j] = i
    lengths: List[int] = []
    j = b
    for k in range(n, 0, -1):
        i = cut[k][j]
        lengths.append(j - i)
        j = i
    lengths.reverse()
    return lengths


def plan_shards(
    compiled: CompiledModel,
    n_shards: int,
    *,
    input_shape: Optional[Tuple[int, ...]] = None,
) -> ShardPlan:
    """Balanced contiguous layer-cut of ``compiled``'s plan.

    The cut cost of a block is its MAC count from the analytic profile
    when ``input_shape`` is given (compute-balanced pipeline stages —
    the quantity that sets stage latency), read once per weight node:
    the profile walks the same dataflow declaration, so a weight node
    and its profile row share a name.  Otherwise the cost is its
    programmed weight bits (capacity-balanced, the only cost known
    without a dataflow shape).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    nodes = compiled._nodes
    blocks = _blocks_of(nodes, compiled._output_index)
    if n_shards > len(blocks):
        raise ValueError(
            f"cannot cut {n_shards} shards: the plan has only "
            f"{len(blocks)} weight-anchored blocks"
        )

    macs_by_layer: Dict[str, float] = {}
    if input_shape is not None:
        profile = compiled.profile(input_shape)
        for layer in profile.weight_layers():
            macs_by_layer[layer.name] = float(layer.macs)

    block_bits: List[float] = []
    block_macs: List[float] = []
    for block in blocks:
        bits = 0.0
        macs = 0.0
        for i in block:
            for slot in _node_slots(nodes[i]):
                bits += float(slot.weight().size * slot.circuits_fn()[0].config.weight_bits)
            macs += macs_by_layer.get(nodes[i].name, 0.0)
        block_bits.append(bits)
        block_macs.append(macs)
    use_macs = sum(block_macs) > 0
    costs = block_macs if use_macs else block_bits

    lengths = _balanced_cuts(costs, n_shards)
    segments: List[ShardSegment] = []
    start = 0
    for index, length in enumerate(lengths):
        run = blocks[start : start + length]
        step_indices = tuple(i for block in run for i in block)
        layer_ids = tuple(
            slot.layer_id for i in step_indices for slot in _node_slots(nodes[i])
        )
        segments.append(
            ShardSegment(
                index=index,
                step_indices=step_indices,
                layer_ids=layer_ids,
                weight_bits=sum(block_bits[start + k] for k in range(length)),
                macs=sum(block_macs[start + k] for k in range(length)),
                cost=sum(costs[start + k] for k in range(length)),
            )
        )
        start += length
    return ShardPlan(n_shards=n_shards, segments=tuple(segments))


@dataclass
class StreamResult:
    """Outcome of one pipelined micro-batch stream.

    ``compute_ns[i][s]`` is the *simulated* macro latency micro-batch
    ``i`` spent on shard ``s`` (measured from the really-executed
    traffic's :class:`MacroStats`); ``link_ns[i][s]`` the serial-link
    transfer latency leaving shard ``s``.  The makespans are derived
    from those measurements, so they are machine-independent even
    though the execution itself ran on host threads.
    """

    outputs: List[np.ndarray]
    per_batch: List[MacroStats]
    stats: MacroStats
    compute_ns: np.ndarray  # (n_batches, n_shards)
    link_ns: np.ndarray  # (n_batches, max(n_shards - 1, 0))
    wall_s: float
    n_shards: int

    @property
    def n_batches(self) -> int:
        return len(self.outputs)

    @property
    def serial_makespan_ns(self) -> float:
        """Monolithic single-chip baseline: all compute, no links, no
        overlap — what a single-shard serial run of the stream takes."""
        return float(self.compute_ns.sum())

    @property
    def sharded_serial_makespan_ns(self) -> float:
        """The same shards run one micro-batch at a time (no pipeline
        overlap): compute plus every link crossing, serially."""
        return float(self.compute_ns.sum() + self.link_ns.sum())

    @property
    def pipelined_makespan_ns(self) -> float:
        """Pipeline-parallel makespan: shard ``s`` starts micro-batch
        ``i`` once the batch arrived over the link *and* the shard
        finished micro-batch ``i - 1``."""
        n_batches, n_shards = self.compute_ns.shape
        finish = np.zeros((n_batches, n_shards))
        for i in range(n_batches):
            for s in range(n_shards):
                arrived = (
                    finish[i, s - 1] + self.link_ns[i, s - 1] if s else 0.0
                )
                free = finish[i - 1, s] if i else 0.0
                finish[i, s] = max(arrived, free) + self.compute_ns[i, s]
        return float(finish[-1, -1]) if n_batches else 0.0

    @property
    def pipeline_speedup(self) -> float:
        """Simulated throughput gain of pipelining over the monolithic
        serial execution of the same stream."""
        pipelined = self.pipelined_makespan_ns
        return self.serial_makespan_ns / pipelined if pipelined else 1.0

    @property
    def link_energy_fj(self) -> float:
        return self.stats.link_energy_fj

    @classmethod
    def _from_items(
        cls,
        items: Sequence["_StreamItem"],
        n_shards: int,
        wall_s: float,
        session: Optional[ExecutionSession],
        **extra: Any,
    ) -> "StreamResult":
        """Assemble the result over the delivered ``items`` (sorted by
        index here), recording each into ``session``; ``extra`` feeds
        the fields a subclass adds."""
        done = sorted(items, key=lambda item: item.index)
        if session is not None:
            for item in done:
                session.record(item.state.stats, samples=item.x.shape[0])
        return cls(
            outputs=[item.x for item in done],
            per_batch=[item.state.stats for item in done],
            stats=sum((item.state.stats for item in done), MacroStats()),
            compute_ns=np.array([item.compute_ns for item in done]).reshape(
                len(done), n_shards
            ),
            link_ns=np.array([item.link_ns for item in done]).reshape(
                len(done), max(n_shards - 1, 0)
            ),
            wall_s=wall_s,
            n_shards=n_shards,
            **extra,
        )


class _StreamItem:
    """One micro-batch in flight: its tensor, run state and accounting.

    ``start_node`` is the plan node execution resumes at — 0 (from the
    model input) except for a micro-batch a failover displaced, which
    carries the node it had reached.
    """

    __slots__ = ("index", "x", "state", "start_node", "compute_ns", "link_ns")

    def __init__(self, index: int, x: np.ndarray, state: _RunState, n_shards: int):
        self.index = index
        self.x = x
        self.state = state
        self.start_node = 0
        self.compute_ns = np.zeros(n_shards)
        self.link_ns = np.zeros(max(n_shards - 1, 0))


class ShardedModel:
    """A compiled model partitioned across simulated chiplet shards.

    Obtain one through :func:`shard` (or ``runtime.compile(...,
    shards=n)``).  The shards reference the *same* programmed engines as
    the underlying :class:`CompiledModel` — sharding cuts the execution
    plan, it never reprograms or duplicates macros.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        plan: ShardPlan,
        link: Optional[ChipletLinkSpec] = None,
    ):
        self.compiled = compiled
        self.plan = plan
        self.link = link if link is not None else SIMBA_LINK
        # The one plan validator (a restored plan's too): one segment per
        # shard; the segments must tile the plan in order, which makes
        # stage ``s`` the contiguous node range ``_bounds[s] = (lo, hi)``;
        # and every stage boundary must be a single-edge frontier: the
        # one value crossing it is the previous stage's last node.
        if len(plan.segments) != plan.n_shards:
            raise ValueError(
                f"shard plan declares {plan.n_shards} shards but holds "
                f"{len(plan.segments)} segments"
            )
        nodes = compiled._nodes
        flat = [i for segment in plan.segments for i in segment.step_indices]
        if flat != list(range(len(nodes))):
            raise ValueError(
                "shard plan must cover the plan nodes exactly once, in order"
            )
        ends = list(
            itertools.accumulate(len(seg.step_indices) for seg in plan.segments)
        )
        self._bounds: List[Tuple[int, int]] = list(zip([0] + ends[:-1], ends))
        legal = _legal_cuts(nodes, compiled._output_index)
        for lo, hi in self._bounds[:-1]:
            if hi > lo and not legal[hi - 1]:
                raise ValueError(
                    f"illegal shard boundary after node {hi - 1} "
                    f"({nodes[hi - 1].name!r}): more than one live value "
                    f"crosses it (a fan-out diamond cannot be cut)"
                )

    # -- delegation (duck-compatible with CompiledModel) ---------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def model(self):
        return self.compiled.model

    @property
    def config(self):
        return self.compiled.config

    @property
    def report(self):
        return self.compiled.report

    @property
    def n_weight_layers(self) -> int:
        return self.compiled.n_weight_layers

    def new_session(self) -> ExecutionSession:
        return ExecutionSession()

    def ensure_fresh(self) -> int:
        return self.compiled.ensure_fresh()

    def profile(self, input_shape: Tuple[int, ...]):
        return self.compiled.profile(input_shape)

    # -- link accounting -----------------------------------------------
    def _transfer_stats(
        self, x: np.ndarray, latency_factor: float, energy_factor: float
    ) -> MacroStats:
        """Stats of one activation tensor crossing one shard boundary.

        Quantized activations cross the serial link, so the payload is
        ``activation_bits`` per element (the same convention the
        analytical chiplet assembly uses), not host-float width.  The
        factors scale a degraded link's latency and energy; a healthy
        link's ``1.0`` is exact, so it cannot move a bit.
        """
        bits = float(x.size) * self.compiled.config.activation_bits
        return MacroStats(
            link_bits=bits,
            link_energy_fj=self.link.transfer_energy_pj(bits) * 1e3 * energy_factor,
            link_latency_ns=self.link.transfer_time_ns(bits) * latency_factor,
        )

    # -- the stage step -------------------------------------------------
    def _stage(
        self,
        s: int,
        item: _StreamItem,
        tracer: Optional["trace.Tracer"],
        faults: Any = None,
        cum_chip: float = 0.0,
    ) -> float:
        """The one stage step, serial or pipelined: walk stage ``s`` from
        ``item.start_node`` under a ``shard{s}:mb{i}`` span, then charge
        the outgoing link under a ``link{s}:mb{i}`` point span; returns
        the stage's chip time.  A fault source (see :meth:`_pipeline`)
        opens the walk's degradation window at ``cum_chip``, this shard's
        chip time so far, closes it after, and scales the link; without
        one, the run state's own ``degrade`` stays in force."""
        lo, hi = self._bounds[s]
        state = item.state
        if faults is not None:
            state.degrade = faults.degradation_at(item.index, cum_chip, s)
        before = state.stats.latency_ns
        with trace.NULL_SPAN if tracer is None else tracer.span(
            f"shard{s}:mb{item.index}", "shard", shard=s, microbatch=item.index,
            degraded=state.degrade is not None,
        ) as sp:
            item.x = self.compiled._walk(max(lo, item.start_node), hi, item.x, state)
            delta = state.stats.latency_ns - before
            if sp is not None:
                sp.set("chip_ns", delta)
        if faults is not None:
            state.degrade = None
        item.compute_ns[s] += delta
        if s < self.n_shards - 1:
            factors = (1.0, 1.0)  # (latency, energy)
            if faults is not None:
                factors = faults.link_factors(s, item.index, cum_chip + delta)
            transfer = self._transfer_stats(item.x, *factors)
            state.stats = state.stats + transfer
            item.link_ns[s] += transfer.link_latency_ns
            if tracer is not None:
                with tracer.span(
                    f"link{s}:mb{item.index}", "link", shard=s, microbatch=item.index,
                    chip_ns=transfer.link_latency_ns, link_bits=transfer.link_bits,
                    link_energy_fj=transfer.link_energy_fj,
                ):
                    pass
        return delta

    # -- serial execution ----------------------------------------------
    def run(
        self,
        batch: np.ndarray,
        *,
        encoding: Any = _USE_DEFAULT,
        rng: Optional[np.random.Generator] = None,
        session: Optional[ExecutionSession] = None,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Stream one batch through all shards, in plan order: micro-batch
        0 through every :meth:`_stage` on the calling thread.

        Bitwise identical to ``self.compiled.run(batch, ...)`` — the same
        batch check, then the same step objects in the same order against
        the same RNG stream; shard boundaries only add ``link_*``
        accounting to the returned stats.  ``degrade`` routes engines
        through the chaos runtime's live degradation paths, as there.
        """
        x = check_batch(batch, self.compiled._input_rank)
        item = _StreamItem(
            0, x, self.compiled._new_state(rng, encoding, degrade), self.n_shards
        )
        tracer = trace.current()  # resolved once; None is the hot path
        for s in range(self.n_shards):
            self._stage(s, item, tracer)
        if session is not None:
            session.record(item.state.stats, samples=x.shape[0])
        return item.x, item.state.stats

    # -- pipelined execution -------------------------------------------
    def run_stream(
        self,
        batches: Sequence[np.ndarray],
        *,
        seed: int = 0,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        encoding: Any = _USE_DEFAULT,
        session: Optional[ExecutionSession] = None,
        queue_depth: int = 2,
        chaos: Any = None,
    ) -> StreamResult:
        """Execute micro-batches pipeline-parallel across the shards.

        One worker thread per shard, connected by bounded queues of
        ``queue_depth`` micro-batches (backpressure: a fast early shard
        cannot run unboundedly ahead of a slow late one).  Each
        micro-batch owns its RNG — ``rngs[i]`` when given, else
        :func:`stream_rng` ``(seed, i)`` — so outputs are bitwise
        identical to per-batch unsharded runs with the same generators,
        and never depend on thread interleaving.

        Shards never split a micro-batch: batch-global quantization
        steps see whole batches, exactly as unsharded (the numerics
        contract in docs/numerics.md).

        ``chaos`` (a :class:`repro.chaos.ChaosController`) hands the
        stream to :func:`repro.chaos.run_chaos_stream`, which drives
        this same pipeline with the controller as its fault source —
        degraded-mode execution, shard death, failover and replay per
        the controller's schedule — and returns a
        :class:`repro.chaos.ChaosStreamResult`.
        """
        if chaos is not None:
            from repro.chaos.stream import run_chaos_stream

            return run_chaos_stream(
                self,
                batches,
                chaos,
                seed=seed,
                rngs=rngs,
                encoding=encoding,
                session=session,
                queue_depth=queue_depth,
            )
        items = self._stream_items(batches, seed, rngs, encoding, queue_depth)
        started = time.perf_counter()
        completed, _, _ = self._pipeline(items, queue_depth, trace.current())
        wall_s = time.perf_counter() - started
        return StreamResult._from_items(completed, self.n_shards, wall_s, session)

    def _stream_items(
        self,
        batches: Sequence[np.ndarray],
        seed: int,
        rngs: Optional[Sequence[np.random.Generator]],
        encoding: Any,
        queue_depth: int,
    ) -> List[_StreamItem]:
        """Validate a stream request (every batch as :meth:`CompiledModel.run`
        does) and stage one item per micro-batch, each owning its RNG
        (``rngs[i]``, else :func:`stream_rng`)."""
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if rngs is not None and len(rngs) != len(batches):
            raise ValueError(
                f"{len(rngs)} rngs for {len(batches)} micro-batches"
            )
        return [
            _StreamItem(
                i,
                check_batch(batch, self.compiled._input_rank),
                self.compiled._new_state(
                    rngs[i] if rngs is not None else stream_rng(seed, i), encoding
                ),
                self.n_shards,
            )
            for i, batch in enumerate(batches)
        ]

    def _pipeline(
        self,
        items: Sequence[_StreamItem],
        queue_depth: int,
        tracer: Optional["trace.Tracer"],
        faults: Any = None,
    ) -> Tuple[
        List[_StreamItem], Dict[int, List[_StreamItem]], List[Tuple[Any, int, int]]
    ]:
        """The one shard pipeline: a pipelined pass of ``items`` over one
        worker thread per shard (each stepping them through :meth:`_stage`)
        and bounded inter-shard queues.

        ``tracer`` is resolved once by the caller, before the workers
        start: every shard thread traces into the same tracer (or
        none), never a mid-stream mix.  Each item executes the part of
        every stage at or past its ``start_node``.

        ``faults`` is the optional fault source — ``None`` for a clean
        stream, else an object answering ``check_shard_death``,
        ``degradation_at`` and ``link_factors`` (the
        :class:`repro.chaos.ChaosController`).  A shard whose death
        fires diverts the triggering micro-batch and every later
        arrival to its displaced list and keeps draining its inbox (so
        upstream shards never block on a full queue into a dead stage),
        forwarding only the end-of-stream sentinel; micro-batches
        already past the dead shard finish normally, and no item is
        ever lost.

        Returns ``(completed, displaced, deaths)``: the items that left
        the last shard (in arrival order), dead shard -> items displaced
        there (in arrival = index order, ``start_node`` advanced to
        where each must resume), and ``(event, shard, fired index)`` in
        deterministic (index, shard) order.
        """
        n_shards = self.n_shards
        queues: List["queue.Queue"] = [
            queue.Queue(maxsize=queue_depth) for _ in range(n_shards + 1)
        ]
        errors: List[BaseException] = []
        completed: List[_StreamItem] = []
        displaced: Dict[int, List[_StreamItem]] = {}
        deaths: List[Tuple[Any, int, int]] = []
        deaths_lock = threading.Lock()

        def worker(s: int) -> None:
            inbox, outbox = queues[s], queues[s + 1]
            lo, hi = self._bounds[s]
            dead: Optional[List[_StreamItem]] = None
            cum_chip = 0.0
            while True:
                item = inbox.get()
                if item is None:
                    outbox.put(None)
                    return
                if errors:
                    continue  # drain the pipe; the stream already failed
                try:
                    # A replayed item that resumes past this stage rides
                    # through untouched: no death check, no link charge.
                    skip = lo < hi <= item.start_node
                    if faults is not None and dead is None and not skip:
                        event = faults.check_shard_death(
                            shard=s, index=item.index, chip_ns=cum_chip
                        )
                        if event is not None:
                            with deaths_lock:
                                dead = displaced.setdefault(s, [])
                                deaths.append((event, s, item.index))
                            if tracer is not None:
                                with tracer.span(
                                    f"fault:{event.kind}",
                                    "chaos",
                                    shard=s,
                                    microbatch=item.index,
                                ):
                                    pass
                    if dead is not None:
                        item.start_node = max(item.start_node, lo)
                        dead.append(item)
                        continue
                    if not skip:
                        # Spans on this thread: the trace's per-shard tracks.
                        cum_chip += self._stage(s, item, tracer, faults, cum_chip)
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)
                    continue
                outbox.put(item)

        def collect() -> None:
            while True:
                item = queues[n_shards].get()
                if item is None:
                    return
                completed.append(item)

        threads = [
            threading.Thread(target=worker, args=(s,), name=f"shard-{s}", daemon=True)
            for s in range(n_shards)
        ]
        threads.append(
            threading.Thread(target=collect, name="shard-collect", daemon=True)
        )
        for thread in threads:
            thread.start()
        try:
            for item in items:
                queues[0].put(item)
        finally:
            # The sentinel propagates through every worker (dead ones
            # still forward it), so these joins cannot orphan a thread.
            queues[0].put(None)
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        deaths.sort(key=lambda death: (death[2], death[1]))
        return completed, displaced, deaths


def shard(
    compiled: CompiledModel,
    n_shards: int,
    *,
    link: Optional[ChipletLinkSpec] = None,
    input_shape: Optional[Tuple[int, ...]] = None,
    plan: Optional[ShardPlan] = None,
) -> ShardedModel:
    """Partition ``compiled`` across ``n_shards`` simulated chiplets.

    ``input_shape`` (when known) switches the layer-cut from
    weight-bit balance to MAC balance — the right cost for pipeline
    stage latency.  ``plan`` overrides the automatic cut entirely.
    Re-sharding a :class:`ShardedModel` re-cuts the underlying compiled
    model; engines are shared either way.
    """
    if isinstance(compiled, ShardedModel):
        compiled = compiled.compiled
    if plan is None:
        plan = plan_shards(compiled, n_shards, input_shape=input_shape)
    elif plan.n_shards != n_shards:
        raise ValueError(
            f"plan has {plan.n_shards} shards but n_shards={n_shards}"
        )
    return ShardedModel(compiled, plan, link=link)
