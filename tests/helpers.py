"""Shared test utilities: numerical gradient checking, one-layer CiM
models, and event-based synchronization for the serving tests.

The synchronization helpers exist so timing-sensitive serve/shard tests
never assert on wall-clock windows ("finished within N seconds") or
sample completion flags at racy moments.  Every wait blocks on the real
synchronization primitive — the queue's condition variable via
``next_batch``, the handle's completion lock via ``result`` — with one
generous shared deadline (:data:`DEADLINE`) whose only job is to turn a
genuine deadlock into a test failure instead of a hang.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.arch import SramChipletSystem, SramSingleChipSystem, YolocSystem
from repro.nn.tensor import Tensor

#: Shared upper bound for every blocking wait in the serving tests.
#: Generous on purpose: reaching it means the event never fired (a real
#: bug), not that a loaded CI runner was slow.
DEADLINE = 30.0


def fig13_reports(profile) -> Dict:
    """The three Fig. 13 systems' reports on ``profile``, keyed by system
    name, each at its defaults (the SRAM chips sized iso-area with the
    YOLoC chip)."""
    systems = (YolocSystem(), SramSingleChipSystem(), SramChipletSystem())
    return {system.name: system.evaluate(profile) for system in systems}


def next_batch_or_fail(queue, timeout: float = DEADLINE):
    """Block on the queue's condition variable until a batch releases.

    ``next_batch`` returns ``None`` only when the policy never released
    a batch before ``timeout`` — so a non-None return *is* the event
    "the policy (max_batch_size / max_wait) released this batch", with
    no wall-clock assertion needed on top.
    """
    batch = queue.next_batch(timeout=timeout)
    assert batch is not None, (
        f"queue released no batch within {timeout} s — the batching "
        f"policy never fired"
    )
    return batch


def await_results(handles: Sequence, timeout: float = DEADLINE) -> List:
    """Block on every handle's completion; returns their results.

    ``RequestHandle.result`` blocks on the handle's completion lock,
    which the worker that completes the request releases, so this never
    polls.
    """
    return [handle.result(timeout=timeout) for handle in handles]


def immediate_results(handles: Sequence) -> List:
    """Results of handles that completed *synchronously* at submit time.

    Admission verdicts (queue-full, tenant-cap, unknown-model, shutdown)
    complete the handle inside ``submit`` before it returns, so checking
    ``done()`` here is not a racy sample — a handle still pending was
    admitted and will complete through a worker instead.
    """
    return [handle.result(timeout=0) for handle in handles if handle.done()]


def registry_samples(registry, kinds=("counter", "gauge", "histogram")) -> Dict:
    """``{(family, ((label, value), ...)): sample}`` of a MetricsRegistry.

    Counters and gauges map to their value, histograms to
    ``(bucket counts, sum, count)``.
    """
    out = {}
    for family in registry.to_json()["metrics"]:
        if family["type"] not in kinds:
            continue
        for sample in family["samples"]:
            key = (family["name"], tuple(sorted(sample["labels"].items())))
            out[key] = (
                sample["value"]
                if "value" in sample
                else (sample["buckets"], sample["sum"], sample["count"])
            )
    return out


def assert_one_metrics_model(server):
    """At quiescence every ``MetricsSnapshot`` count is the registry's
    sample of the same number, every submitted request ended in exactly
    one terminal state, and the per-tenant ``samples`` / ``completed``
    sum to the executed batch sizes / ``completed``.  Returns
    ``(snapshot, samples)``."""
    from repro.obs import collect_server

    samples = registry_samples(collect_server(server))
    snap = server.snapshot()

    def labelled(family, label):
        return {
            dict(labels)[label]: value
            for (name, labels), value in samples.items()
            if name == family
        }

    for name, count in (
        ("repro_requests_submitted_total", snap.submitted),
        ("repro_requests_completed_total", snap.completed),
        ("repro_requests_failed_total", snap.failed),
        ("repro_requests_cancelled_total", snap.cancelled),
        ("repro_batches_executed_total", snap.batches),
        ("repro_chaos_recoveries_total", snap.recoveries),
        ("repro_chaos_recovery_dropped_total", snap.recovery_dropped),
        ("repro_chaos_recovery_replayed_total", snap.recovery_replayed),
    ):
        assert samples[(name, ())] == count, name
    assert labelled("repro_requests_rejected_total", "reason") == snap.rejected
    assert labelled("repro_chaos_faults_total", "kind") == snap.faults
    for field in ("completed", "samples", "rejected", "failed", "cancelled"):
        assert labelled(f"repro_tenant_{field}_total", "tenant") == {
            t.tenant: getattr(t, field) for t in snap.tenants
        }, field
    _, size_sum, size_count = samples[("repro_batch_size", ())]
    assert size_count == sum(snap.batch_size_hist.values()) == snap.batches
    assert size_sum == sum(size * n for size, n in snap.batch_size_hist.items())
    # Every executed sample is attributed to exactly one tenant, and
    # every completed request to its own.
    assert sum(t.samples for t in snap.tenants) == size_sum
    assert sum(t.completed for t in snap.tenants) == snap.completed
    assert snap.submitted == (
        snap.completed + snap.total_rejected + snap.failed + snap.cancelled
    )
    return snap, samples


def audit_stopped_servers(monkeypatch):
    """Body of an autouse fixture (``yield from`` it): wraps
    ``InferenceServer.stop`` so every server the test stops is checked
    by :func:`assert_one_metrics_model` at teardown — after the test's
    own last word, including submits it made to a stopped server."""
    from repro.serve import InferenceServer

    stopped = {}
    stop = InferenceServer.stop

    def tracked(server, *args, **kwargs):
        stop(server, *args, **kwargs)
        stopped[id(server)] = server

    monkeypatch.setattr(InferenceServer, "stop", tracked)
    yield
    for server in stopped.values():
        assert_one_metrics_model(server)


def numerical_grad(
    fn: Callable[..., Tensor], inputs: Sequence[Tensor], index: int, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. inputs[index]."""
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(*inputs).data.sum()
        flat[i] = original - eps
        minus = fn(*inputs).data.sum()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradients match central differences for all inputs."""
    out = fn(*inputs)
    out.sum().backward()
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        expected = numerical_grad(fn, inputs, index)
        assert tensor.grad is not None, f"input {index} has no gradient"
        np.testing.assert_allclose(
            tensor.grad, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {index}",
        )


def compiled_layer(
    weight: np.ndarray,
    config=None,
    *,
    cache,
    activation_bits: int = 8,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
):
    """A compiled model of one bias-free layer holding ``weight``: an
    ``nn.Linear`` for an ``(out, in)`` weight, an ``nn.Conv2d`` for an
    ``(out, in / groups, kh, kw)`` one, programmed on ``config``
    (default ``MacroConfig()``, the oracles' default) whichever memory it
    is placed in.  ``run(x, rng=..., encoding=...)`` is the layer's one
    execution path; ``reference_cim_linear`` / ``reference_cim_conv2d``
    at the same arguments are its oracle."""
    from repro import nn
    from repro.cim import MacroConfig
    from repro.runtime import RuntimeConfig, compile_model

    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim == 2:
        layer = nn.Linear(weight.shape[1], weight.shape[0], bias=False)
    else:
        out_channels, in_per_group, kh, kw = weight.shape
        layer = nn.Conv2d(
            in_per_group * groups, out_channels, (kh, kw), stride, padding,
            bias=False, groups=groups,
        )
    layer.weight.data = weight
    config = config if config is not None else MacroConfig()
    return compile_model(
        nn.Sequential(layer),
        RuntimeConfig(
            rom_config=config, sram_config=config, activation_bits=activation_bits
        ),
        cache=cache,
    )


def layer_pass(
    weight: np.ndarray,
    config=None,
    *,
    cache,
    activation_bits: int = 8,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    signed=None,
):
    """The layer pass a compiled conv step runs, over one
    ``ProgrammedConv`` per channel group and input signedness programmed
    through ``cache`` under its ``engine_key`` — without the plan's
    batch check, so it sees what the kernel does with a NaN.  ``signed``
    fixes every group's programmed signedness instead of following the
    batch."""
    from repro.cim import MacroConfig
    from repro.runtime.cache import weight_fingerprint
    from repro.runtime.engine import EngineCircuit, GroupedConv, program_engine

    config = config if config is not None else MacroConfig()
    weight = np.asarray(weight, dtype=np.float64)
    ocg = weight.shape[0] // groups

    def engine_for(g: int, batch_signed: bool):
        group = weight[g * ocg : (g + 1) * ocg]
        is_signed = batch_signed if signed is None else signed
        circuit = EngineCircuit(config, activation_bits, is_signed)
        key = circuit.engine_key(
            f"conv::g{g}", weight_fingerprint(group), stride, padding
        )
        return cache.get_or_program(
            key, lambda: program_engine(group, circuit, stride, padding)
        )

    return GroupedConv(weight.shape, groups, stride, padding, engine_for)
