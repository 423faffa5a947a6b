"""The serving request/response API: one frozen request, one result type.

``EdgeServer.infer`` once took a soup of serving keywords, and the loop-only
knobs (priority, SLO deadline) could not be expressed through the facade at
all.  This module collapses that surface into two types:

* :class:`InferenceRequest` -- a frozen, validated description of one
  encrypted inference: which model, which ciphertext, and the serving
  policy riding along (packing, priority class, hard SLO deadline).  Frozen so a request can be routed, retried across
  replicas, or re-dispatched after a failover without aliasing surprises.
* :class:`InferenceResult` -- what the server hands back: *encrypted*
  logits plus timing and serving metadata (request id, packed batch size,
  queue wait, and the fleet replica that executed the flush).  This is the
  same object the pre-fleet code called ``ServedResult``; that name remains
  as an alias in :mod:`repro.core.server` so existing callers and
  ``isinstance`` checks keep working.

The synchronous facade (``EdgeServer.infer(request)``) and the client SDK
(:mod:`repro.client`) speak these types; the serving loop
(``ServingLoop.submit``) takes a request's fields as keywords and resolves
its ticket with an :class:`InferenceResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ServeError
from repro.obs.context import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import InferenceResult as TimingResult
    from repro.he.context import Ciphertext


@dataclass(frozen=True)
class InferenceRequest:
    """One encrypted inference request, with its serving policy.

    Attributes:
        model: a provisioned model name.
        ciphertext: scalar-encoded ``(B, C, H, W)`` pixel ciphertext from
            the user's session (``UserSession.encrypt`` or the client SDK).
        pack: run as a slot-packed flush (the synchronous facade flushes
            the request at once, so the call still returns a result).
        priority: class ``0`` (interactive) .. ``priority_classes - 1``;
            only meaningful to the event-driven serving loop.
        slo_deadline_ms: optional hard deadline (milliseconds after
            arrival) past which the result is worthless; loop-only -- such
            requests become evictable once no future flush can make it.
        context: optional :class:`~repro.obs.context.TraceContext` naming
            this request in the process-wide trace tree (the client SDK
            injects one; serving front ends derive a deterministic
            fallback when absent).
    """

    model: str
    ciphertext: "Ciphertext"
    pack: bool = False
    priority: int = 1
    slo_deadline_ms: float | None = None
    context: TraceContext | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or not self.model:
            raise ServeError("InferenceRequest.model must be a non-empty string")
        if self.context is not None and not isinstance(self.context, TraceContext):
            raise ServeError("InferenceRequest.context must be a TraceContext")
        if self.priority < 0:
            raise ServeError("priority must be >= 0")
        if self.slo_deadline_ms is not None and self.slo_deadline_ms <= 0:
            raise ServeError("slo_deadline_ms must be > 0")

    @property
    def slo_deadline_s(self) -> float | None:
        return None if self.slo_deadline_ms is None else self.slo_deadline_ms / 1000.0


@dataclass
class InferenceResult:
    """What the server returns: *encrypted* logits plus serving metadata.

    Requests served as packed flushes additionally carry their serving
    metadata: ``request_id``, the total ``packed_batch`` they
    shared slots with, the loop seconds spent coalescing
    (``queue_wait_s``), and the fleet ``replica`` whose enclave executed
    the flush.  Direct ``infer`` calls leave these at defaults.
    """

    logits_ct: "Ciphertext"
    timing: "TimingResult"
    request_id: int | None = None
    packed_batch: int = 0
    queue_wait_s: float = 0.0
    replica: int | None = None
    context: TraceContext | None = None


__all__ = ["InferenceRequest", "InferenceResult"]
