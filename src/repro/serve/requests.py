"""Typed requests, results and completion handles of the serve layer.

Every interaction with the server produces an :class:`InferenceResult`
with an explicit :class:`RequestStatus` — admission-control rejections
(full queue, per-tenant cap, unknown model) come back as typed results,
never as exceptions, so a load generator or client can count them
without exception plumbing.

Per-request objects are kept to what a request needs: an
:class:`InferenceRequest` reads its sample count once, at construction,
and a :class:`RequestHandle` is one lock (not a condition variable) that
its one completion releases.  The ``stats`` of a completed result is an
immutable :class:`~repro.cim.macro.MacroStats` that the batch's other
results with the same sample count share.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.cim.macro import MacroStats


class RequestStatus(Enum):
    """Terminal state of one inference request."""

    COMPLETED = "completed"
    REJECTED_QUEUE_FULL = "rejected_queue_full"
    REJECTED_TENANT_LIMIT = "rejected_tenant_limit"
    REJECTED_UNKNOWN_MODEL = "rejected_unknown_model"
    REJECTED_SHUTTING_DOWN = "rejected_shutting_down"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def rejected(self) -> bool:
        return self in (
            RequestStatus.REJECTED_QUEUE_FULL,
            RequestStatus.REJECTED_TENANT_LIMIT,
            RequestStatus.REJECTED_UNKNOWN_MODEL,
            RequestStatus.REJECTED_SHUTTING_DOWN,
        )


@dataclass
class InferenceResult:
    """Terminal outcome of one request.

    ``stats`` is this request's proportional share (by sample count) of
    the executed batch's :class:`~repro.cim.macro.MacroStats` — one
    immutable object shared by the batch's results with equal counts;
    ``batch_seq`` / ``batch_samples`` identify the dynamic batch the
    request was coalesced into (``-1`` / ``0`` when it never executed).
    """

    status: RequestStatus
    request_id: int
    tenant: str
    model: str
    output: Optional[np.ndarray] = None
    stats: Optional[MacroStats] = None
    error: Optional[str] = None
    batch_seq: int = -1
    batch_samples: int = 0
    queued_s: float = 0.0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.COMPLETED


@dataclass
class InferenceRequest:
    """One unit of admitted work: a small activation batch for a model.

    ``x`` keeps the caller's leading batch dimension (a single-sample
    request has ``x.shape[0] == 1``); the scheduler counts samples, not
    requests, against ``BatchPolicy.max_batch_size``.
    """

    request_id: int
    tenant: str
    model: str
    x: np.ndarray
    submitted_at: float
    seq: int = 0  # arrival order, assigned by the queue
    n_samples: int = field(init=False)  # ``x.shape[0]``, read once

    def __post_init__(self):
        self.n_samples = int(self.x.shape[0])


class RequestHandle:
    """Waitable completion handle returned by ``InferenceServer.submit``.

    A one-lock future: the lock is taken at construction and released
    once, by :meth:`_complete`, after the result is stored; a waiter
    acquires it and hands it straight back, so every waiter wakes.
    Rejected submissions return an already-completed handle, so callers
    always deal with one type.
    """

    __slots__ = ("request", "_result", "_pending")

    def __init__(self, request: Optional[InferenceRequest] = None):
        self.request = request
        self._result: Optional[InferenceResult] = None
        self._pending = threading.Lock()
        self._pending.acquire()

    def _complete(self, result: InferenceResult) -> None:
        """Store ``result`` and wake every waiter; exactly once."""
        if self._result is not None:
            raise RuntimeError(f"request {self._id()} completed twice")
        self._result = result
        self._pending.release()

    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: Optional[float] = None) -> InferenceResult:
        """Block until the request reaches a terminal state."""
        if self._result is None:
            if not self._pending.acquire(
                timeout=-1 if timeout is None else max(timeout, 0.0)
            ):
                raise TimeoutError(
                    f"request {self._id()} did not complete within {timeout} s"
                )
            self._pending.release()
        return self._result

    def _id(self):
        return self.request.request_id if self.request else "?"
