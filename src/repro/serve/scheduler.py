"""The packed-flush engine under :class:`~repro.serve.loop.ServingLoop`.

The paper's deployment story (Sections IV + VII) is one SGX edge node
serving many enrolled users, yet a naive facade runs one hybrid pipeline
pass per request -- every single-image inference pays the full per-pixel
HE cost.  CRT slot packing (Section VIII) is the throughput lever: up to
``n`` images can ride the slots of each pixel-position ciphertext, making
the encrypted CNN's cost independent of how many requests share the batch.

The serving loop owns queueing, coalescing and admission; this module runs
the slot groups it flushes:

* **Legality.**  Cross-user packing is sound in this deployment because the
  enclave is the HE key authority (Section IV-A): every enrolled user holds
  the same key pair, so their ciphertexts are mutually compatible.  The
  actual re-layout (scalar batch -> slots, and back) happens inside the
  enclave (:meth:`InferenceEnclave.pack_slots` / ``unpack_slots``) -- the
  host never sees a pixel or logit in the clear.
* **Typed rejections.**  Unknown models, malformed ciphertexts and requests
  larger than the packing capacity are rejected before they queue
  (:meth:`RequestScheduler.validate_request`).
* **Isolation and failover.**  A flush that dies re-runs each request on
  its own, and a lost fleet replica fails the batch over to a survivor, so
  every request comes back with a result or a typed error.
* **Observability.**  Every flush emits an ``EdgeServer/PackedServe``
  pipeline span (pack -> conv -> sgx_activation_pool -> fc -> unpack) plus
  one ``serve/request`` child span per request carrying its queue wait and
  the queue depth it observed on admission, all on the platform's
  :class:`~repro.obs.Tracer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import faults
from repro.core.results import InferenceResult, stages_from_trace
from repro.errors import (
    BatchTooLargeError,
    EnclaveNotInitialized,
    RecoveryExhausted,
    RequestFailedError,
    ServeError,
    UnknownModelError,
)
from repro.faults import run_with_kernel_degradation
from repro.graph import executor as graph_executor
from repro.he import parallel
from repro.he.context import Ciphertext
from repro.obs import metrics, recorder
from repro.obs import context as obs_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import EdgeServer, ServedResult
    from repro.serve.loop import _Admitted

#: Scheme label stamped on packed-flush traces and results.
PACKED_SCHEME = "EdgeServer/PackedServe"


def _m_rejected():
    return metrics.registry().counter(
        "repro_serve_rejected_total",
        "Requests rejected by validation before they queue, by reason.",
        ("reason",),
    )


def _m_failed():
    return metrics.registry().counter(
        "repro_serve_requests_failed_total",
        "Requests resolved with RequestFailedError after a dead flush.",
        ("model",),
    )


def _m_latency():
    return metrics.registry().histogram(
        "repro_serve_request_latency_seconds",
        "Per-request simulated latency, split into queue wait vs compute.",
        ("model", "phase"),
    )


def _m_retried():
    return metrics.registry().counter(
        "repro_fleet_retried_requests_total",
        "Requests re-dispatched to a surviving replica during whole-batch "
        "failover (one increment per request per retry attempt).",
        ("model",),
    )


def _m_occupancy():
    return metrics.registry().histogram(
        "repro_serve_batch_occupancy_ratio",
        "Images per packed flush as a fraction of slot-packing capacity.",
        ("model",),
        buckets=metrics.RATIO_BUCKETS,
    )


@dataclass
class ServeStats:
    """Monotonic flush-engine counters (queueing is counted by
    :class:`~repro.serve.loop.LoopStats`)."""

    served: int = 0
    failed: int = 0
    flushes: int = 0
    retried_requests: int = 0
    isolations: int = 0
    isolated_requests: int = 0
    packed_images: int = 0
    rejected_oversized: int = 0
    rejected_unknown_model: int = 0
    rejected_malformed: int = 0


class RequestScheduler:
    """The packed-flush engine: runs one slot-packed hybrid pass over a
    group of requests the :class:`~repro.serve.loop.ServingLoop` queued.

    Args:
        server: the :class:`~repro.core.server.EdgeServer` whose models,
            evaluator and enclave serve the batches.  Its parameter set must
            support CRT batching
            (``parameters_for_pipeline(..., batching=True)``).
        max_batch: images per packed flush; ``None`` means the full CRT slot
            capacity (the parameter set's polynomial degree).

    Raises:
        ServeError: the server's plaintext modulus cannot batch, or
            ``max_batch < 1``.
    """

    def __init__(self, server: "EdgeServer", max_batch: int | None = None) -> None:
        if not server.params.supports_batching():
            raise ServeError(
                "slot-packed serving needs a batching plaintext modulus; build "
                "the server's parameters with "
                "parameters_for_pipeline(..., batching=True)"
            )
        if max_batch is not None and max_batch < 1:
            raise ServeError("max_batch must be >= 1 (or None for slot capacity)")
        self.server = server
        self.slot_count = server.params.poly_degree
        self.capacity = (
            self.slot_count if max_batch is None else min(max_batch, self.slot_count)
        )
        self.stats = ServeStats()

    def validate_request(self, model_name: str, ct: Ciphertext) -> int:
        """Typed request validation the serving loop runs on every arrival:
        the server's :meth:`~repro.core.server.EdgeServer.check_request`
        (the same checks direct requests get) plus the packing capacity.

        Every rejection increments the matching :class:`ServeStats` counter
        and the ``repro_serve_rejected_total`` family before raising.

        Returns:
            the request's image count (its batch dimension).

        Raises:
            UnknownModelError: ``model_name`` was never provisioned.
            ServeError: the ciphertext is not a non-empty 4-D pixel batch
                with this model's channel count (``malformed``).
            BatchTooLargeError: the request alone exceeds the capacity.
        """
        try:
            batch = self.server.check_request(model_name, ct)
        except UnknownModelError:
            self.stats.rejected_unknown_model += 1
            _m_rejected().labels(reason="unknown_model").inc()
            raise
        except ServeError:
            self.stats.rejected_malformed += 1
            _m_rejected().labels(reason="malformed").inc()
            raise
        if batch > self.capacity:
            self.stats.rejected_oversized += 1
            _m_rejected().labels(reason="oversized").inc()
            raise BatchTooLargeError(
                f"request of {batch} images exceeds the packing capacity "
                f"{self.capacity} (slots: {self.slot_count})"
            )
        return batch

    def run_batch(
        self,
        model_name: str,
        requests: "list[_Admitted]",
        *,
        flushed_at: float,
        replica: int | None = None,
        generation: int | None = None,
    ) -> "list[tuple[_Admitted, ServedResult | BaseException]]":
        """Execute one packed flush over ``requests`` and account for it.

        Runs the packed pass under kernel degradation, falls back to
        per-request isolation when the pass dies, and records the
        flush/latency/occupancy stats and metrics -- but resolves no ticket.
        Each request comes back paired with either its
        :class:`~repro.core.server.ServedResult` or the typed
        :class:`~repro.errors.RequestFailedError` to fail it with; the
        serving loop decides when to deliver them.

        When the server runs an enclave fleet, the flush executes on one
        replica (``replica``, or the fleet's least-loaded pick).  Replica
        *loss* -- an unrecoverable :class:`~repro.errors.RecoveryExhausted`
        or a destroyed handle's :class:`~repro.errors.EnclaveNotInitialized`
        -- retires the replica and **fails the whole batch over** to a
        surviving replica; because every replica restored the same sealed
        key pair, the survivor's logits are bit-identical.  Only when no
        survivor remains does the flush fall back to per-request isolation.

        Args:
            flushed_at: the loop time of the flush, which queue waits are
                measured against.
            replica: fleet replica to execute on (the serving loop routes
                explicitly; None lets the fleet pick least-loaded).
            generation: the serving loop's flush generation, stamped on the
                flush trace.
        """
        tracer = self.server.platform.tracer
        clock = self.server.platform.clock
        fleet = getattr(self.server, "fleet", None)
        if fleet is not None and replica is None:
            replica = fleet.route(model_name)
        flush_start = clock.now_s
        images = sum(r.batch for r in requests)
        tried: list[int] = []
        while True:
            if fleet is not None and replica is not None:
                event = faults.poll(
                    "serve.fleet.replica", name=str(replica), model=model_name
                )
                if event is not None:
                    # Host-level replica loss at dispatch: the flush is
                    # already committed to this replica, so its first
                    # enclave crossing below dies and must fail over.
                    fleet.kill_replica(replica)
                fleet.note_dispatch(replica, model_name, images)
            try:
                results = run_with_kernel_degradation(
                    tracer,
                    PACKED_SCHEME,
                    lambda: self._run_packed(
                        model_name, requests, flushed_at=flushed_at,
                        replica=replica, generation=generation,
                    ),
                )
                break
            except (EnclaveNotInitialized, RecoveryExhausted) as exc:
                survivor = None
                if fleet is not None and replica is not None:
                    survivor = fleet.route(model_name, exclude=(*tried, replica))
                if survivor is None:
                    return self._isolate(
                        model_name, requests, exc,
                        flushed_at=flushed_at, replica=replica,
                    )
                fleet.retire(replica, exc)
                tried.append(replica)
                with tracer.span(
                    "recovery/replica_failover",
                    kind="span",
                    model=model_name,
                    from_replica=replica,
                    to_replica=survivor,
                    requests=len(requests),
                    error=str(exc),
                ):
                    metrics.registry().counter(
                        "repro_fleet_failovers_total",
                        "Packed flushes re-dispatched to a surviving replica "
                        "after replica loss.",
                        ("model",),
                    ).labels(model=model_name).inc()
                # Retries are accounted under their own counter -- the
                # latency histogram below observes each resolved request
                # exactly once, never once per attempt.
                self.stats.retried_requests += len(requests)
                _m_retried().labels(model=model_name).inc(len(requests))
                recorder.record(
                    "fleet.failover",
                    severity="warn",
                    t_s=clock.now_s,
                    model=model_name,
                    from_replica=replica,
                    to_replica=survivor,
                    requests=len(requests),
                    generation=generation,
                )
                replica = survivor
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                return self._isolate(
                    model_name, requests, exc, flushed_at=flushed_at, replica=replica
                )
        compute_s = clock.now_s - flush_start
        self.stats.flushes += 1
        self.stats.served += len(requests)
        self.stats.packed_images += images
        latency = _m_latency()
        for served in results:
            # Exactly one latency sample per resolved request, per phase --
            # failover attempts above retry the whole batch without
            # observing anything, so the end-to-end sample covers every
            # attempt's compute without duplicating the request.
            latency.labels(model=model_name, phase="queue").observe(served.queue_wait_s)
            latency.labels(model=model_name, phase="compute").observe(compute_s)
            latency.labels(model=model_name, phase="e2e").observe(
                served.queue_wait_s + compute_s
            )
        _m_occupancy().labels(model=model_name).observe(images / self.capacity)
        return list(zip(requests, results))

    def _isolate(
        self,
        model_name: str,
        requests: "list[_Admitted]",
        exc: BaseException,
        *,
        flushed_at: float,
        replica: int | None = None,
    ) -> "list[tuple[_Admitted, ServedResult | BaseException]]":
        """Recover from a dead packed flush by re-running each request as
        its own single-request pass; requests that still fail map to a typed
        :class:`~repro.errors.RequestFailedError` chaining the underlying
        cause, so callers never hang on ``result()``.

        Isolated re-runs are counted as ``isolated_requests`` -- never as
        ``flushes`` -- and emit the same per-request latency and occupancy
        observations the happy path does, so occupancy and latency
        distributions stay truthful under faults.
        """
        tracer = self.server.platform.tracer
        clock = self.server.platform.clock
        latency = _m_latency()
        self.stats.isolations += 1
        recorder.record(
            "serve.isolation",
            severity="warn",
            t_s=clock.now_s,
            model=model_name,
            requests=len(requests),
            error=type(exc).__name__,
        )
        outcomes: "list[tuple[_Admitted, ServedResult | BaseException]]" = []
        with tracer.span(
            "recovery/request_isolation",
            kind="span",
            model=model_name,
            requests=len(requests),
            error=str(exc),
        ):
            for request in requests:
                cause: BaseException = exc
                if len(requests) > 1:
                    # Injected faults are counted per-site, so the poisoned
                    # request keeps failing while its batch-mates recover.
                    rerun_start = clock.now_s
                    try:
                        served = self._run_packed(
                            model_name, [request], flushed_at=flushed_at,
                            replica=replica,
                        )[0]
                        outcomes.append((request, served))
                        self.stats.isolated_requests += 1
                        self.stats.served += 1
                        self.stats.packed_images += request.batch
                        latency.labels(model=model_name, phase="queue").observe(
                            served.queue_wait_s
                        )
                        latency.labels(model=model_name, phase="compute").observe(
                            clock.now_s - rerun_start
                        )
                        latency.labels(model=model_name, phase="e2e").observe(
                            served.queue_wait_s + (clock.now_s - rerun_start)
                        )
                        _m_occupancy().labels(model=model_name).observe(
                            request.batch / self.capacity
                        )
                        continue
                    except Exception as single_exc:  # noqa: BLE001
                        cause = single_exc
                failure = RequestFailedError(
                    f"request {request.request_id} ({model_name!r}) failed "
                    f"during its packed flush: {cause}"
                )
                failure.__cause__ = cause
                outcomes.append((request, failure))
                self.stats.failed += 1
                _m_failed().labels(model=model_name).inc()
                recorder.record(
                    "serve.request_failed",
                    severity="error",
                    t_s=clock.now_s,
                    model=model_name,
                    request_id=request.request_id,
                    error=type(cause).__name__,
                )
        return outcomes

    def _run_packed(
        self,
        model_name: str,
        requests: "list[_Admitted]",
        *,
        flushed_at: float,
        replica: int | None = None,
        generation: int | None = None,
    ) -> "list[ServedResult]":
        """One slot-packed pipeline pass; returns one result per request.

        Pure with respect to scheduler state -- no stats mutation, no ticket
        resolution -- so callers may retry it safely.  Queue waits are
        ``flushed_at`` minus each request's admission time, both on the
        loop's deterministic virtual timeline.

        ``replica`` selects which fleet replica's supervised enclave runs
        the enclave stages (the fleet authority when None); every replica
        holds the same migrated key pair, so the choice never changes the
        decrypted logits.
        """
        from repro.core.server import ServedResult

        server = self.server
        graph, report = graph_executor.compiled_for(
            server, "packed", model=server.model(model_name)
        )
        encoded = server.encoded_model(model_name)
        tracer = server.platform.tracer
        fleet = getattr(server, "fleet", None)
        if fleet is not None:
            enclave = fleet.replica(replica)
        else:
            enclave = server.enclave
        total = sum(r.batch for r in requests)
        # Requests share the enclave's key pair, so their ciphertexts stack
        # into one scalar-encoded (total, C, H, W) batch.  The batch is
        # staged in the flush arena: one reused contiguous block per flush
        # (each request copied exactly once), and the stacked data is a
        # zero-copy view the fused kernels can hand to the worker pool as
        # index ranges.
        stacked = Ciphertext(
            server.context,
            parallel.stage_batch([r.ct.to_ntt().data for r in requests]),
            is_ntt=True,
        )

        contexts = [r.context for r in requests]
        trace_attrs: dict = {}
        trace_ids = [c.trace_id for c in contexts if c is not None]
        if trace_ids:
            trace_attrs["trace_ids"] = trace_ids
        if generation is not None:
            trace_attrs["generation"] = generation
        with obs_context.activate(*contexts), tracer.span(
            PACKED_SCHEME,
            kind="pipeline",
            counter=server.counter,
            side_channel=enclave.side_channel,
            model=model_name,
            requests=len(requests),
            batch=total,
            slot_count=self.slot_count,
            replica=getattr(enclave, "replica", None),
            workers=parallel.active_workers(),
            graph_opt=report.label,
            **trace_attrs,
        ) as trace:
            _, _, logits_ct = graph_executor.run(
                graph, server.runtime(model_name, enclave), stacked
            )
            for r in requests:
                request_attrs = {}
                if r.context is not None:
                    request_attrs["trace_id"] = r.context.trace_id
                    if r.context.parent_id:
                        request_attrs["trace_parent"] = r.context.parent_id
                if generation is not None:
                    request_attrs["generation"] = generation
                with tracer.span(
                    "serve/request",
                    request_id=r.request_id,
                    model=model_name,
                    queue_wait_s=flushed_at - r.admitted_at,
                    queue_depth_at_submit=r.depth_at_entry,
                    batch=r.batch,
                    replica=getattr(enclave, "replica", None),
                    **request_attrs,
                ):
                    pass

        timing = InferenceResult(
            logits=np.zeros((total, encoded.dense.out_features)),
            stages=stages_from_trace(trace),
            scheme=PACKED_SCHEME,
            op_counts=dict(server.counter.counts),
            enclave_crossings=trace.crossings,
            trace=trace,
        )
        results = []
        offset = 0
        for r in requests:
            results.append(
                ServedResult(
                    logits_ct=logits_ct[offset : offset + r.batch],
                    timing=timing,
                    request_id=r.request_id,
                    packed_batch=total,
                    queue_wait_s=flushed_at - r.admitted_at,
                    replica=getattr(enclave, "replica", None),
                    context=r.context,
                )
            )
            offset += r.batch
        return results
