"""Packed-flush engine under the serving loop: packing correctness, queue
discipline, rejections, tracing and accounting.

``RequestScheduler`` only runs the slot groups a :class:`ServingLoop`
flushes, so every behaviour here is driven through the loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EdgeServer, PlaintextPipeline, parameters_for_pipeline
from repro.errors import (
    BatchTooLargeError,
    KeyMismatchError,
    PipelineError,
    QueueFullError,
    ResponseNotReady,
    ServeError,
    UnknownModelError,
)
from repro.obs import reconcile
from repro.serve import (
    PACKED_SCHEME,
    InferenceRequest,
    LoopConfig,
    RequestScheduler,
    ServingLoop,
)


def make_server(batching_params, q_sigmoid, **kwargs):
    srv = EdgeServer(batching_params, seed=13, **kwargs)
    srv.provision_model("digits", q_sigmoid)
    return srv


def submit_singles(loop, session, images):
    return [
        loop.submit("digits", session.encrypt("digits", images[i : i + 1]))
        for i in range(len(images))
    ]


class TestPackingCorrectness:
    def test_packed_matches_sequential_and_plaintext(
        self, server, session, q_sigmoid, models
    ):
        """One packed flush must be bit-exact with one-request-at-a-time
        serving and with the plaintext integer reference -- FV arithmetic is
        exact, so slot packing may not change a single logit."""
        images = models.dataset.test_images[:5]
        sequential = np.concatenate(
            [
                session.decrypt_logits(
                    server.infer(
                        InferenceRequest(
                            model="digits",
                            ciphertext=session.encrypt("digits", images[i : i + 1]),
                        )
                    )
                )
                for i in range(len(images))
            ]
        )
        loop = ServingLoop(server)
        tickets = submit_singles(loop, session, images)
        loop.run()
        assert loop.stats.served == len(images)
        assert loop.stats.flushes == 1
        packed = np.concatenate([session.decrypt_logits(t.result()) for t in tickets])
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(packed, sequential)
        assert np.array_equal(packed, expected)

    def test_responses_keep_submit_order_per_request(
        self, server, session, q_sigmoid, models
    ):
        """Each ticket carries *its own* image's logits: distinct images
        submitted concurrently come back unswapped, in submission order."""
        images = models.dataset.test_images[:4]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        loop = ServingLoop(server)
        tickets = submit_singles(loop, session, images)
        loop.run()
        for i, ticket in enumerate(tickets):
            assert ticket.request_id == i
            logits = session.decrypt_logits(ticket.result())
            assert np.array_equal(logits[0], expected[i])

    def test_multi_image_requests_pack_with_singles(
        self, server, session, q_sigmoid, models
    ):
        images = models.dataset.test_images[:5]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        loop = ServingLoop(server)
        pair = loop.submit("digits", session.encrypt("digits", images[:2]))
        triple = loop.submit("digits", session.encrypt("digits", images[2:5]))
        loop.run()
        assert np.array_equal(session.decrypt_logits(pair.result()), expected[:2])
        assert np.array_equal(session.decrypt_logits(triple.result()), expected[2:5])
        assert pair.result().packed_batch == 5
        assert triple.result().packed_batch == 5


class TestQueueDiscipline:
    def test_result_before_flush_raises(self, server, session, models):
        loop = ServingLoop(server)
        ticket = loop.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        loop.run(until_s=0.001)  # admitted, still inside its window
        assert ticket.admitted and not ticket.done()
        with pytest.raises(ResponseNotReady):
            ticket.result()
        loop.run()
        assert ticket.result().packed_batch == 1

    def test_queue_full_rejects_with_backpressure(self, server, session, models):
        loop = ServingLoop(server, LoopConfig(max_queue_depth=2))
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        tickets = [loop.submit("digits", ct) for _ in range(3)]
        loop.run(until_s=0.0)
        with pytest.raises(QueueFullError):
            tickets[2].result()
        assert loop.stats.shed_queue_full == 1
        assert loop.queue_depth == 2
        loop.run()
        assert loop.stats.served == 2

    def test_flush_on_capacity(self, batching_params, q_sigmoid, session_for, models):
        """A slot group flushes the moment it reaches packing capacity,
        without waiting out its coalescing window."""
        srv = make_server(batching_params, q_sigmoid, max_batch=3)
        session = session_for(srv)
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        loop = ServingLoop(srv)
        tickets = [loop.submit("digits", ct) for _ in range(3)]
        loop.run(until_s=0.0)
        assert loop.queue_depth == 0
        assert loop.stats.flushes == 1
        assert srv.scheduler.stats.flushes == 1
        loop.run()
        assert all(t.result().packed_batch == 3 for t in tickets)

    def test_overflow_request_closes_open_batch_first(
        self, batching_params, q_sigmoid, session_for, models
    ):
        srv = make_server(batching_params, q_sigmoid, max_batch=3)
        session = session_for(srv)
        single = session.encrypt("digits", models.dataset.test_images[:1])
        pair = session.encrypt("digits", models.dataset.test_images[1:3])
        loop = ServingLoop(srv)
        early = [loop.submit("digits", single) for _ in range(2)]
        late = loop.submit("digits", pair)
        loop.run(until_s=0.0)
        # 2 + 2 > 3: the two early singles flushed as their own group...
        assert loop.stats.flushes == 1
        assert loop.flush_log[0]["images"] == 2
        # ...and the pair waits for its own flush.
        assert loop.pending_images("digits") == 2
        loop.run()
        assert early[0].result().packed_batch == 2
        assert late.result().packed_batch == 2

    def test_per_request_deadline_overrides_window(self, server, session, models):
        loop = ServingLoop(server, LoopConfig(window_s=0.01))
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        ticket = loop.submit("digits", ct, deadline_s=0.5)
        loop.run(until_s=0.4)
        assert loop.stats.flushes == 0
        loop.run(until_s=0.6)
        assert loop.stats.flushes == 1
        loop.run()
        assert ticket.queue_wait_s == pytest.approx(0.5)

    def test_default_window_drives_pump(self, server, session, models):
        """The configured window flushes a lone request once it expires."""
        loop = ServingLoop(server, LoopConfig(window_s=0.01))
        ticket = loop.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        loop.run(until_s=0.005)
        assert loop.stats.flushes == 0
        loop.run(until_s=0.02)
        assert loop.stats.flushes == 1
        loop.run()
        assert ticket.queue_wait_s == pytest.approx(0.01)


class TestRejectionPaths:
    def test_unknown_model(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        loop = ServingLoop(server)
        ticket = loop.submit("faces", ct)
        loop.run()
        with pytest.raises(UnknownModelError):
            ticket.result()
        assert ticket.shed_reason == "rejected"
        assert server.scheduler.stats.rejected_unknown_model == 1

    def test_unknown_model_is_a_pipeline_error(self, server, session, models):
        """Typed serve errors stay inside the library's existing hierarchy."""
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(PipelineError):
            server.infer(InferenceRequest(model="faces", ciphertext=ct))

    def test_oversized_batch(self, batching_params, q_sigmoid, session_for, models):
        srv = make_server(batching_params, q_sigmoid, max_batch=2)
        session = session_for(srv)
        ct = session.encrypt("digits", models.dataset.test_images[:3])
        loop = ServingLoop(srv)
        ticket = loop.submit("digits", ct)
        loop.run()
        with pytest.raises(BatchTooLargeError):
            ticket.result()
        assert loop.stats.rejected == 1
        assert srv.scheduler.stats.rejected_oversized == 1

    def test_non_batching_params_rejected(self, q_sigmoid):
        params = parameters_for_pipeline(q_sigmoid, 256)  # power-of-two t
        srv = EdgeServer(params, seed=13)
        srv.provision_model("digits", q_sigmoid)
        with pytest.raises(ServeError):
            srv.scheduler  # noqa: B018 - the property builds the scheduler
        with pytest.raises(ServeError):
            ServingLoop(srv)

    def test_malformed_request_shape(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        loop = ServingLoop(server)
        ticket = loop.submit("digits", ct[0, :, :, :])
        loop.run()
        with pytest.raises(ServeError):
            ticket.result()

    def test_foreign_context_fails_only_its_ticket(
        self, server, session, q_sigmoid, models
    ):
        """A ciphertext under another parameter set fails its own ticket
        with KeyMismatchError; the loop keeps serving the rest."""
        from repro.he.context import Context
        from repro.he.encoders import ScalarEncoder
        from repro.he.encryptor import Encryptor
        from repro.he.keys import KeyGenerator

        other = Context(parameters_for_pipeline(q_sigmoid, 512, batching=True))
        keys = KeyGenerator(other, np.random.default_rng(0)).generate()
        pixels = q_sigmoid.quantize_images(models.dataset.test_images[:1])
        foreign = Encryptor(other, keys.public, np.random.default_rng(1)).encrypt(
            ScalarEncoder(other).encode(pixels)
        )
        loop = ServingLoop(server)
        bad = loop.submit("digits", foreign)
        good = loop.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        loop.run()
        with pytest.raises(KeyMismatchError):
            bad.result()
        assert good.result().packed_batch == 1


class TestServerFacade:
    def test_infer_pack_kwarg(self, server, session, q_sigmoid, models):
        images = models.dataset.test_images[:1]
        result = server.infer(
            InferenceRequest(
                model="digits", ciphertext=session.encrypt("digits", images), pack=True
            )
        )
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(result), expected)
        assert result.packed_batch == 1
        assert result.request_id is not None
        # The facade flushes at once: no coalescing wait.
        assert result.queue_wait_s == 0.0

    def test_deadline_without_pack_rejected(self, server, session, models):
        """A request carries no coalescing deadline (that is a loop
        setting), so the keyword fails loudly with or without ``pack``."""
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        for pack in (False, True):
            with pytest.raises(TypeError):
                InferenceRequest(model="digits", ciphertext=ct, pack=pack, deadline_ms=5.0)


class TestObservability:
    def test_packed_trace_structure(self, server, session, models):
        loop = ServingLoop(server)
        submit_singles(loop, session, models.dataset.test_images[:3])
        loop.run()
        trace = next(
            t for t in reversed(server.platform.tracer.traces) if t.name == PACKED_SCHEME
        )
        reconcile(trace)
        stage_names = [c.name for c in trace.children if c.kind == "stage"]
        assert stage_names == ["pack", "conv", "sgx_activation_pool", "fc", "unpack"]
        request_spans = [c for c in trace.children if c.name == "serve/request"]
        assert len(request_spans) == 3
        for span in request_spans:
            assert span.attrs["queue_wait_s"] >= 0.0
            assert span.attrs["queue_depth_at_submit"] >= 0
        assert trace.attrs["batch"] == 3

    def test_served_result_carries_serving_metadata(self, server, session, models):
        loop = ServingLoop(server, LoopConfig(window_s=0.1))
        ticket = loop.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        loop.run()
        result = ticket.result()
        assert result.packed_batch == 1
        assert result.request_id == ticket.request_id
        assert result.queue_wait_s == pytest.approx(0.1)

    def test_stats_accumulate(self, server, session, models):
        loop = ServingLoop(server)
        submit_singles(loop, session, models.dataset.test_images[:4])
        loop.run()
        assert loop.stats.admitted == 4
        assert loop.stats.peak_queue_depth == 4
        stats = server.scheduler.stats
        assert stats.served == 4
        assert stats.flushes == 1
        assert stats.packed_images == 4


class TestSchedulerConstruction:
    def test_standalone_construction(self, server):
        scheduler = RequestScheduler(server, max_batch=8)
        assert scheduler.capacity == 8
        assert scheduler.slot_count == server.params.poly_degree

    def test_capacity_clamped_to_slots(self, server):
        scheduler = RequestScheduler(server, max_batch=10**6)
        assert scheduler.capacity == server.params.poly_degree

    def test_bad_config_rejected(self, server, batching_params):
        with pytest.raises(ServeError):
            RequestScheduler(server, max_batch=0)
        with pytest.raises(ServeError):
            EdgeServer(batching_params, seed=13, max_batch=0).scheduler  # noqa: B018
        with pytest.raises(ServeError):
            LoopConfig(max_queue_depth=0)
        with pytest.raises(ServeError):
            LoopConfig(window_s=-1.0)


class TestAccountingBugfixes:
    """Pins for three accounting bugs the serving loop surfaced: silent
    malformed rejections, queue depth sampled after the overflow flush, and
    isolation re-runs inflating the flush count."""

    def _rejected_malformed_metric(self):
        from repro.obs import metrics

        family = metrics.registry().counter(
            "repro_serve_rejected_total",
            "Requests rejected before queueing, by reason.",
            ("reason",),
        )
        return family.labels(reason="malformed")

    def test_malformed_rejections_are_counted(self, server, session, models):
        """Every malformed shape rejection lands in ServeStats and the
        ``reason="malformed"`` counter -- not just the raised error."""
        metric = self._rejected_malformed_metric()
        before_metric = metric.value
        before_stats = server.scheduler.stats.rejected_malformed
        ct = session.encrypt("digits", models.dataset.test_images[:2])
        malformed = [
            ct[0, :, :, :],  # non-4D
            ct[:, :0, :, :],  # wrong channel count
            ct[:0, :, :, :],  # empty batch
        ]
        loop = ServingLoop(server)
        tickets = [loop.submit("digits", bad) for bad in malformed]
        loop.run()
        for ticket in tickets:
            with pytest.raises(ServeError):
                ticket.result()
        assert server.scheduler.stats.rejected_malformed - before_stats == 3
        assert metric.value - before_metric == 3
        # Malformed is its own reason: the unknown-model path is separate.
        unknown = loop.submit("nope", ct)
        loop.run()
        with pytest.raises(UnknownModelError):
            unknown.result()
        assert metric.value - before_metric == 3

    def test_queue_depth_sampled_at_entry_not_after_overflow_flush(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """An overflow request that forces the open group to flush first
        must still record the depth it actually saw on entry (the two queued
        singles), not the post-flush depth of zero."""
        srv = make_server(batching_params, q_sigmoid, max_batch=3)
        session = session_for(srv)
        single = session.encrypt("digits", models.dataset.test_images[:1])
        pair = session.encrypt("digits", models.dataset.test_images[1:3])
        loop = ServingLoop(srv)
        for _ in range(2):
            loop.submit("digits", single)
        late = loop.submit("digits", pair)  # 2+2 > 3: flushes early
        loop.run()
        spans = [
            c
            for t in srv.platform.tracer.traces
            if t.name == PACKED_SCHEME
            for c in t.children
            if c.name == "serve/request"
        ]
        by_id = {s.attrs["request_id"]: s.attrs["queue_depth_at_submit"] for s in spans}
        assert by_id[late.request_id] == 2
        assert by_id[0] == 0 and by_id[1] == 1

    def test_isolation_counts_isolated_requests_not_flushes(
        self, server, session, q_sigmoid, models
    ):
        """A dead packed flush that recovers via per-request isolation is ONE
        flush plus N isolated re-runs -- and the re-runs emit the same
        latency/occupancy observations the happy path would have."""
        from repro import faults
        from repro.faults import FaultPlan, FaultRule
        from repro.obs import metrics

        latency = metrics.registry().histogram(
            "repro_serve_request_latency_seconds",
            "Per-request serving latency by phase.",
            ("model", "phase"),
        ).labels(model="digits", phase="queue")
        occupancy = metrics.registry().histogram(
            "repro_serve_batch_occupancy_ratio",
            "Packed-flush slot occupancy.",
            ("model",),
        ).labels(model="digits")
        lat_before, occ_before = latency.count, occupancy.count
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        loop = ServingLoop(server)
        tickets = submit_singles(loop, session, images)
        stats = server.scheduler.stats
        flushes_before = stats.flushes
        # One fire kills the packed pass; every isolated re-run succeeds.
        plan = FaultPlan(11, rules=[FaultRule(site="he.noise.decrypt", max_fires=1)])
        with faults.armed(plan):
            loop.run()
        # The dead packed pass is one isolation, not 3 extra flushes:
        # `flushes` counts successful packed passes only.
        assert stats.flushes - flushes_before == 0
        assert stats.isolated_requests == 3
        assert stats.isolations == 1
        assert stats.served == 3 and stats.failed == 0
        # Same observation cardinality as a clean 3-request flush: one
        # queue-latency sample per request, occupancy per (re)run.
        assert latency.count - lat_before == 3
        assert occupancy.count - occ_before == 3
        for i, ticket in enumerate(tickets):
            logits = session.decrypt_logits(ticket.result())
            assert np.array_equal(logits[0], expected[i])
