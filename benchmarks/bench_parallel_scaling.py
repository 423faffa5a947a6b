#!/usr/bin/env python
"""Parallel flush scaling: images/sec at 1, 2 and 4 flush workers.

PR 8 moved the fused kernels' contraction loops onto a pool of forked
worker processes over a shared-memory ciphertext arena
(:mod:`repro.he.parallel`).  This bench asks the two questions that make
that safe to ship:

* *Does it scale?*  Replay one seeded saturating trace through the
  event-driven loop at ``workers`` = 1, 2 and 4 -- the worker-aware
  :class:`~repro.serve.ServiceTimeModel` divides the per-image half of the
  flush across workers (Amdahl: the ``base_s`` enclave/pack/serialize half
  does not split) on the loop's deterministic virtual timeline, while the
  *real* pool executes every flush underneath.  ``scaling.ratio_4x`` must
  clear the 1.5x floor (``invariants.speedup_floor`` -- a hard invariant,
  independent of ``--min-speedup``).
* *Is it invisible?*  A fixed identity batch runs through fresh same-seed
  deployments at each width: the serialized logits-ciphertext bytes must
  be identical across worker counts (``invariants.byte_identical``) and
  the decrypted logits must match the plaintext reference bit-for-bit
  (``invariants.bit_identical``).  A final chaos segment SIGKILLs a worker
  mid-flush (``parallel.worker`` site): the generation retires, every unit
  replays in-process, and the bytes still match
  (``invariants.chaos_byte_identical``).

Arrivals, service times and the fault plan are deterministic given
``--seed``.  Emits ``BENCH_parallel.json``; exits nonzero if an invariant
fails or ``ratio_4x`` falls below ``--min-speedup``.

Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import faults
from repro.client import AttestedClient
from repro.core import EdgeServer, PipelineSpec, PlaintextPipeline, train_paper_models
from repro.faults import FaultPlan, FaultRule
from repro.he import parallel
from repro.he import serialize as ser
from repro.serve import LoopConfig, ServiceTimeModel, ServingLoop, poisson_trace
from repro.sgx import AttestationVerificationService

#: The flush cost split: ``base_s`` (enclave crossings, pack, serialize)
#: stays serial; ``per_image_s`` (the kernel contractions) divides across
#: workers at ``dispatch_s`` per extra worker.
BASE_S, PER_IMAGE_S, DISPATCH_S = 4e-3, 5e-4, 1.5e-4

WORKER_COUNTS = (1, 2, 4)


def build_deployment(quantized, *, poly_degree, max_batch, workers, seed):
    """One deployment with ``workers`` flush processes, plus its attested
    client session -- built declaratively so ``PipelineSpec(workers=...)``
    is the configuration path under test."""
    spec = PipelineSpec(
        scheme="hybrid",
        poly_degree=poly_degree,
        batching=True,
        max_batch=max_batch,
        workers=workers,
    )
    server = EdgeServer.from_spec(spec, seed=seed, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    return server, client


def reset_pool():
    """Return the process to the in-process default between runs."""
    parallel.configure(None)
    parallel.shutdown()


def identity_batch(server, client, images):
    """Run the fixed identity batch as one packed flush of a fresh serving
    loop; returns the per-request serialized logits-ciphertext bytes and
    logits."""
    loop = ServingLoop(server)
    tickets = [
        loop.submit("digits", client.encrypt("digits", images[i : i + 1]))
        for i in range(len(images))
    ]
    loop.run()
    blobs = [ser.serialize_ciphertext(t.result().logits_ct) for t in tickets]
    logits = [client.decrypt_logits(t.result()) for t in tickets]
    return blobs, logits


def replay(server, client, trace, pool, expected, config):
    """Replay ``trace`` through a fresh loop; report + bit-identity verdict."""
    loop = ServingLoop(server, config)
    for arrival in trace:
        loop.offer(arrival, pool[arrival.image_index])
    loop.run()
    report = loop.report()
    bit_identical = all(
        np.array_equal(
            client.decrypt_logits(t.result()),
            expected[t.image_index : t.image_index + 1],
        )
        for t in loop.tickets
        if t.served
    )
    resolved = all(t.done() for t in loop.tickets)
    return report, bit_identical, resolved


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized model and trace"
    )
    parser.add_argument("--seed", type=int, default=42, help="trace + fault seed")
    parser.add_argument(
        "--out", default="BENCH_parallel.json", help="JSON results path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail below this 4-worker vs 1-worker images/sec ratio",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        train_kwargs = dict(
            train_size=300, test_size=60, epochs=2, image_size=10, channels=2,
            kernel_size=3,
        )
        poly_degree = 256
        # Deep flushes are where parallel execution pays: at 16 images the
        # divisible per-image half dominates the serial base_s half.
        max_batch = 16
        rate_rps, duration_s = 4500.0, 0.08
        users = 1000
        image_pool = 6
    else:
        train_kwargs = dict(train_size=1200, test_size=300, epochs=6)
        poly_degree = 1024
        max_batch = 16
        rate_rps, duration_s = 9000.0, 0.08
        users = 4000
        image_pool = 8

    print(f"training model ({'smoke' if args.smoke else 'full'} config)...")
    models = train_paper_models(**train_kwargs)
    quantized = models.quantized_sigmoid()
    pool_images = models.dataset.test_images[:image_pool]
    expected = PlaintextPipeline(quantized).infer(pool_images).logits

    trace = poisson_trace(
        args.seed,
        rate_rps=rate_rps,
        duration_s=duration_s,
        users=users,
        image_pool=image_pool,
    )
    print(
        f"trace: {len(trace)} arrivals over {trace.duration_s:.2f}s "
        f"({trace.rate_rps:.0f} rps realized, {trace.users} users)"
    )

    runs: dict[str, dict] = {}
    blobs_by_w: dict[int, list[bytes]] = {}
    bit_identical = True
    all_resolved = True
    for workers in WORKER_COUNTS:
        server, client = build_deployment(
            quantized,
            poly_degree=poly_degree,
            max_batch=max_batch,
            workers=workers,
            seed=13,
        )
        # Identity batch first: fixed composition, one flush -- the
        # serialized bytes must not know the worker count.
        blobs, logits = identity_batch(server, client, pool_images)
        blobs_by_w[workers] = blobs
        bit_identical = bit_identical and all(
            np.array_equal(lg, expected[i : i + 1]) for i, lg in enumerate(logits)
        )
        pool = [
            client.encrypt("digits", pool_images[i : i + 1])
            for i in range(image_pool)
        ]
        config = LoopConfig(
            window_s=0.010,
            max_queue_depth=4096,
            admit_wait_slo_s=30.0,
            service_model=ServiceTimeModel(
                base_s=BASE_S,
                per_image_s=PER_IMAGE_S,
                workers=workers,
                dispatch_s=DISPATCH_S,
            ),
        )
        print(f"replaying on {workers} worker(s)...")
        report, exact, resolved = replay(
            server, client, trace, pool, expected, config
        )
        bit_identical = bit_identical and exact
        all_resolved = all_resolved and resolved
        live_pool = parallel.active_pool()
        report["pool"] = {
            "dispatched_units": live_pool.dispatched_units if live_pool else 0,
            "stolen_units": live_pool.stolen_units if live_pool else 0,
            "deaths": live_pool.deaths if live_pool else 0,
        }
        runs[str(workers)] = report
        reset_pool()
        print(
            f"  workers {workers}: {report['images_per_s']:.0f} images/s, "
            f"{report['flushes']} flushes, "
            f"p99 wait {report['p99_queue_wait_s'] * 1e3:.1f} ms, "
            f"{report['pool']['dispatched_units']} pool units, "
            f"bit-identical {exact}"
        )

    byte_identical = all(
        blobs_by_w[w] == blobs_by_w[1] for w in WORKER_COUNTS[1:]
    )
    base_ips = runs["1"]["images_per_s"]
    scaling = {
        "ratio_2x": runs["2"]["images_per_s"] / base_ips if base_ips else 0.0,
        "ratio_4x": runs["4"]["images_per_s"] / base_ips if base_ips else 0.0,
        "min_speedup": args.min_speedup,
    }

    # Chaos segment: 2 workers, worker 0 SIGKILLed at its second dispatch
    # -- the generation retires, every unit replays in-process, and the
    # identity batch's bytes still match the single-process run.
    print("replaying chaos segment (2 workers, worker 0 killed mid-flush)...")
    server, client = build_deployment(
        quantized, poly_degree=poly_degree, max_batch=max_batch,
        workers=2, seed=13,
    )
    plan = FaultPlan(
        args.seed,
        rules=[FaultRule(site="parallel.worker", name="0", after=1, max_fires=1)],
    )
    with faults.armed(plan):
        chaos_blobs, chaos_logits = identity_batch(server, client, pool_images)
    live_pool = parallel.active_pool()
    chaos = {
        "fired": plan.fires("parallel.worker"),
        "deaths": live_pool.deaths if live_pool else 0,
        "replayed_units": live_pool.replayed_units if live_pool else 0,
    }
    chaos_byte_identical = chaos_blobs == blobs_by_w[1]
    chaos_bit_identical = all(
        np.array_equal(lg, expected[i : i + 1]) for i, lg in enumerate(chaos_logits)
    )
    reset_pool()
    print(
        f"  chaos: {chaos['fired']} fired, {chaos['deaths']} death(s), "
        f"{chaos['replayed_units']} unit(s) replayed, "
        f"byte-identical {chaos_byte_identical}"
    )

    invariants = {
        "speedup_floor": scaling["ratio_4x"] >= 1.5,
        "scaling_met": scaling["ratio_4x"] >= args.min_speedup,
        "byte_identical": byte_identical,
        "bit_identical": bit_identical,
        "all_tickets_resolved": all_resolved,
        "chaos_recovered": chaos["fired"] == 1
        and chaos["deaths"] == 1
        and chaos["replayed_units"] >= 1,
        "chaos_byte_identical": chaos_byte_identical and chaos_bit_identical,
    }
    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "poly_degree": poly_degree,
            "max_batch": max_batch,
            "rate_rps": rate_rps,
            "arrivals": len(trace),
            "users": trace.users,
            "window_s": 0.010,
            "service_base_s": BASE_S,
            "service_per_image_s": PER_IMAGE_S,
            "service_dispatch_s": DISPATCH_S,
            "min_speedup": args.min_speedup,
        },
        "runs": runs,
        "scaling": scaling,
        "chaos": chaos,
        "invariants": invariants,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"scaling: 2 workers {scaling['ratio_2x']:.2f}x, "
        f"4 workers {scaling['ratio_4x']:.2f}x "
        f"(floor {args.min_speedup}x)   byte-identical: {byte_identical}"
    )
    print(f"wrote {args.out}")

    failures = []
    if not invariants["byte_identical"]:
        failures.append("serialized logits ciphertexts differ across worker counts")
    if not invariants["bit_identical"]:
        failures.append("served logits diverge from the plaintext reference")
    if not invariants["all_tickets_resolved"]:
        failures.append("some tickets never resolved")
    if not invariants["speedup_floor"]:
        failures.append(
            f"4-worker scaling {scaling['ratio_4x']:.2f}x below the hard 1.5x floor"
        )
    if not invariants["scaling_met"]:
        failures.append(
            f"4-worker scaling {scaling['ratio_4x']:.2f}x below required "
            f"{args.min_speedup}x"
        )
    if not invariants["chaos_recovered"]:
        failures.append("worker-kill chaos segment did not retire and replay")
    if not invariants["chaos_byte_identical"]:
        failures.append("worker-kill chaos segment changed output bytes")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
