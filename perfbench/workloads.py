"""The benchmark's four workloads.

Each workload serves its requests on one or more lanes, a lane being a
deployment plus an optional span recorder.  An untraced lane calls the
program's own entry points (``EdgeServer.infer``, ``pipeline.infer``,
``ServingLoop.run``) and gives the end-to-end numbers.  A traced lane makes
the same requests one public layer call at a time, with a span around each
call, and gives the per-layer numbers.  Every lane records a digest of each
output, so a traced lane can be checked to compute exactly what the
untraced lane computed.

Every decrypted output is compared with ``PlaintextPipeline``'s integer
logits for its images through one :class:`Checker`.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from deploy import MODEL, Deployment, Inputs
from repro.core import he_conv2d, he_dense, he_scaled_mean_pool, he_square
from repro.errors import ReproError
from repro.he import serialize as he_serialize
from repro.he.decryptor import decrypt_scalar_values
from repro.serve import LoopConfig, ServingLoop, bursty_trace, merge, poisson_trace
from repro.serve.api import InferenceResult as ServedResult


class Checker:
    """Counts images attempted and images whose logits differ from the
    plaintext reference (or that never came back)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, logits: np.ndarray, expected: np.ndarray) -> bool:
        self.attempted += len(expected)
        if logits.shape != expected.shape:
            self.failed += len(expected)
            return False
        bad = int(np.any(logits != expected, axis=1).sum())
        self.failed += bad
        return bad == 0

    def fail(self, images: int) -> None:
        self.attempted += images
        self.failed += images


@dataclass
class Phase:
    """What one lane measured over its timed requests."""

    latencies_s: list[float] = field(default_factory=list)
    images: int = 0
    busy_s: float = 0.0
    digests: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    serve: dict = field(default_factory=dict)


def digest(logits: np.ndarray, logits_ct) -> str:
    h = hashlib.sha256(np.ascontiguousarray(logits).tobytes())
    h.update(he_serialize.serialize_ciphertext(logits_ct))
    return h.hexdigest()


def span_or_null(spans, name: str):
    return spans.span(name) if spans is not None else nullcontext()


def snapshot(dep: Deployment) -> dict:
    """The program's own exact counters, for per-image deltas."""
    side = dep.side_channel
    out = {f"he.{op}": n for op, n in dep.counter.counts.items()}
    out["sgx.ecalls"] = side.count("ecall") if side is not None else 0
    out["sgx.bytes_crossed"] = side.total_bytes_crossed() if side is not None else 0
    out["sgx.modeled_overhead_s"] = dep.clock.overhead_s
    if dep.kind == "served":
        out["serve.retried"] = dep.server.scheduler.stats.retried_requests
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


# ----------------------------------------------------------------------
# closed-loop workloads: interactive, offline-batch, pure-he
# ----------------------------------------------------------------------
def send(step, dep, idx, checker, phase, spans=None) -> None:
    """One closed-loop request: the next is sent only after this one has
    been decrypted and checked."""
    t0 = time.perf_counter()
    try:
        with span_or_null(spans, "request"):
            logits, logits_ct = step(dep.images[idx])
    except ReproError:
        phase.busy_s += time.perf_counter() - t0
        checker.fail(len(idx))
        phase.digests.append(None)
        return
    t1 = time.perf_counter()
    phase.busy_s += t1 - t0
    if checker.check(logits, dep.expected[idx]):
        phase.latencies_s.append(t1 - t0)
        phase.images += len(idx)
    phase.digests.append(digest(logits, logits_ct))


def interactive_step(dep: Deployment, spans=None):
    client, server = dep.client, dep.server
    if spans is None:
        def step(images):
            result = server.infer(client.request(MODEL, images))
            return client.decrypt_logits(result), result.logits_ct
        return step

    q = server.model(MODEL)
    weights = server.encoded_model(MODEL)

    def traced(images):
        with spans.span("client.encrypt"):
            request = client.request(MODEL, images)
        with spans.span("core.conv"):
            conv = he_conv2d(server.evaluator, server.encoder, request.ciphertext, weights.conv)
        with spans.span("sgx.crossing"):
            hidden = server.enclave.ecall(
                "activation_pool", conv, q.conv_output_scale, q.act_scale,
                q.pool_window, q.activation, q.pool,
            )
        with spans.span("core.fc"):
            logits_ct = he_dense(server.evaluator, server.encoder, hidden, weights.dense)
        with spans.span("client.decrypt"):
            logits = client.decrypt_logits(ServedResult(logits_ct=logits_ct, timing=None))
        return logits, logits_ct
    return traced


def pipeline_step(dep: Deployment, spans=None):
    """Offline-batch (hybrid) and pure-he (cryptonets) pipelines."""
    pipe = dep.pipe
    if spans is None:
        def step(images):
            result = pipe.infer(images)
            return result.logits, result.logits_ct
        return step

    q = pipe.quantized

    def traced(images):
        with spans.span("client.encrypt"):
            value = pipe.encrypt_images(images)
        with spans.span("core.conv"):
            value = he_conv2d(pipe.evaluator, pipe.encoder, value, pipe.conv_weights)
        if dep.kind == "hybrid":
            with spans.span("sgx.crossing"):
                value = pipe.enclave.ecall(
                    "activation_pool", value, q.conv_output_scale, q.act_scale,
                    q.pool_window, pipe.activation, q.pool,
                )
        else:
            with spans.span("core.square"):
                value = he_square(pipe.evaluator, value)
            with spans.span("core.relinearize"):
                # The pipeline keeps its relinearization keys private; the
                # graph executor reads the same attribute.
                value = pipe.evaluator.relinearize(value, pipe._relin_keys)
            with spans.span("core.pool"):
                value = he_scaled_mean_pool(pipe.evaluator, value, q.pool_window)
        with spans.span("core.fc"):
            logits_ct = he_dense(pipe.evaluator, pipe.encoder, value, pipe.dense_weights)
        with spans.span("client.decrypt"):
            # The pipeline reads the noise budget before decrypting.
            pipe.decryptor.invariant_noise_budget(logits_ct)
            logits = decrypt_scalar_values(pipe.decryptor, pipe.encoder, logits_ct)
        return logits, logits_ct
    return traced


@dataclass(frozen=True)
class ClosedLoop:
    kind: str
    batch: int
    warmup: int
    min_requests: int
    make_step: object

    def drive(self, lanes, inputs, seconds, checker) -> list[Phase]:
        """Serve the same requests on each ``(deployment, spans)`` lane,
        alternating lane by lane, so an untraced and a traced lane see the
        same machine conditions; returns one phase per lane."""
        steps = [self.make_step(dep, spans) for dep, spans in lanes]
        phases = []
        for (dep, spans), step in zip(lanes, steps):
            warm = Phase()
            for i in range(self.warmup):
                send(step, dep, inputs.indices(i, self.batch), checker, warm)
            if spans is not None:
                spans.reset()
            phases.append(Phase(digests=warm.digests))
        before = [snapshot(dep) for dep, _ in lanes]
        start = time.perf_counter()
        i = self.warmup
        while True:
            idx = inputs.indices(i, self.batch)
            for (dep, spans), step, phase in zip(lanes, steps, phases):
                send(step, dep, idx, checker, phase, spans)
            i += 1
            if i - self.warmup >= self.min_requests and time.perf_counter() - start >= seconds:
                break
        for (dep, _), phase, snap in zip(lanes, phases, before):
            phase.counts = delta(snapshot(dep), snap)
        return phases


# ----------------------------------------------------------------------
# served-stream: open-loop traffic replayed through the serving loop
# ----------------------------------------------------------------------
STEADY_RPS = 350.0
#: Virtual seconds of Poisson, then of 4x on/off bursts, in one round.
ROUND_S = (0.0625, 0.0625)
WARMUP_ROUND_S = (0.02, 0.02)
BURST_PERIOD_S = 0.05
IMAGE_POOL = 16
#: Admission never sheds on this load: every arrival is served.
LOOP_CONFIG = dict(window_s=0.010, max_queue_depth=4096, admit_wait_slo_s=60.0)


def traffic(inputs: Inputs, round_no: int, durations):
    steady_s, burst_s = durations
    seed = inputs.trace_seed(round_no)
    steady = poisson_trace(seed, rate_rps=STEADY_RPS, duration_s=steady_s, image_pool=IMAGE_POOL)
    burst = bursty_trace(
        seed + 1, base_rate_rps=STEADY_RPS, burst_factor=4.0, period_s=BURST_PERIOD_S,
        duration_s=burst_s, image_pool=IMAGE_POOL,
    ).shifted(steady_s)
    return merge(steady, burst)


class FlushTimer:
    """Wraps the scheduler instance's bound ``run_batch`` so each flush
    the loop makes is timed; the loop's code is not changed."""

    def __init__(self, scheduler) -> None:
        self._run_batch = scheduler.run_batch
        scheduler.run_batch = self
        self.spans = None
        self.flush_s: dict[int, float] = {}
        self.walls: list[float] = []

    def __call__(self, model_name, requests, **kwargs):
        t0 = time.perf_counter()
        outcomes = self._run_batch(model_name, requests, **kwargs)
        t1 = time.perf_counter()
        for r in requests:
            self.flush_s[r.request_id] = t1 - t0
        self.walls.append(t1 - t0)
        if self.spans is not None:
            self.spans.add("serve.flush", t0, t1, images=sum(r.batch for r in requests))
        return outcomes


def served_round(dep, inputs, round_no, durations, pool, checker, flushes,
                 phase, spans=None) -> None:
    client = dep.client
    trace = traffic(inputs, round_no, durations)
    loop = ServingLoop(dep.server, LoopConfig(**LOOP_CONFIG))
    flushes.flush_s.clear()
    flushes.spans = spans
    encrypt_s: dict[int, float] = {}
    with span_or_null(spans, "round"):
        start = time.perf_counter()
        for a in trace:
            image = pool[a.image_index]
            t0 = time.perf_counter()
            with span_or_null(spans, "client.encrypt"):
                request = client.request(MODEL, dep.images[image : image + 1], pack=True)
            t1 = time.perf_counter()
            ticket = loop.submit(
                a.model, request.ciphertext, at_s=a.t_s, priority=a.priority,
                user_id=a.user_id, image_index=int(image),
                slo_deadline_s=a.slo_deadline_s, context=request.context,
            )
            encrypt_s[ticket.request_id] = t1 - t0
        with span_or_null(spans, "serve.loop"):
            loop.run()
        for ticket in loop.tickets:
            if not ticket.served:
                checker.fail(1)
                phase.digests.append(None)
                continue
            result = ticket.result()
            t0 = time.perf_counter()
            with span_or_null(spans, "client.decrypt"):
                logits = client.decrypt_logits(result)
            t1 = time.perf_counter()
            expected = dep.expected[ticket.image_index : ticket.image_index + 1]
            if checker.check(logits, expected):
                phase.latencies_s.append(
                    encrypt_s[ticket.request_id] + flushes.flush_s[ticket.request_id] + t1 - t0
                )
                phase.images += 1
            phase.digests.append(digest(logits, result.logits_ct))
        phase.busy_s += time.perf_counter() - start
    stats = loop.stats
    serve = phase.serve
    serve["flushes"] = serve.get("flushes", 0) + stats.flushes
    serve["packed_images"] = serve.get("packed_images", 0) + stats.packed_images
    serve["shed"] = serve.get("shed", 0) + stats.shed_overload + stats.shed_queue_full
    serve["evicted"] = serve.get("evicted", 0) + stats.evicted
    serve["failed"] = serve.get("failed", 0) + stats.failed
    serve.setdefault("queue_waits_s", []).extend(
        t.queue_wait_s for t in loop.tickets if t.served
    )


@dataclass(frozen=True)
class ServedStream:
    kind: str = "served"

    def drive(self, lanes, inputs, seconds, checker) -> list[Phase]:
        """Replay the same rounds on each ``(deployment, spans)`` lane,
        alternating round by round; returns one phase per lane."""
        pool = inputs.image_pool(IMAGE_POOL)
        phases, before, walls = [], [], []
        for dep, _ in lanes:
            if dep.flush_timer is None:
                dep.flush_timer = FlushTimer(dep.server.scheduler)
            warm = Phase()
            served_round(dep, inputs, 0, WARMUP_ROUND_S, pool, checker, dep.flush_timer, warm)
            phases.append(Phase(digests=warm.digests))
            before.append(snapshot(dep))
            walls.append(len(dep.flush_timer.walls))
        start = time.perf_counter()
        round_no = 1
        while True:
            for (dep, spans), phase in zip(lanes, phases):
                served_round(dep, inputs, round_no, ROUND_S, pool, checker, dep.flush_timer, phase, spans)
            round_no += 1
            if time.perf_counter() - start >= seconds:
                break
        for (dep, _), phase, snap, first in zip(lanes, phases, before, walls):
            phase.counts = delta(snapshot(dep), snap)
            phase.serve["flush_walls_s"] = dep.flush_timer.walls[first:]
            dep.flush_timer.spans = None
        return phases


WORKLOADS = {
    "interactive": ClosedLoop("server", batch=1, warmup=3, min_requests=200, make_step=interactive_step),
    "offline-batch": ClosedLoop("hybrid", batch=32, warmup=1, min_requests=1, make_step=pipeline_step),
    "served-stream": ServedStream(),
    "pure-he": ClosedLoop("cryptonets", batch=2, warmup=1, min_requests=1, make_step=pipeline_step),
}
