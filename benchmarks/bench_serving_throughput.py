#!/usr/bin/env python
"""Serving throughput: slot-packed serving vs sequential serving.

The paper predicts (Section VIII) that CRT/SIMD slot packing multiplies
throughput by up to the slot count.  The serving layer (:mod:`repro.serve`)
cashes that prediction in for the deployment story: N concurrent
single-image requests coalesce into ONE hybrid pipeline pass, so the
per-pixel HE cost is paid once instead of N times (plus two extra enclave
crossings for the slot re-layout).

This benchmark drives one :class:`~repro.core.EdgeServer` both ways --
``--requests`` single-image requests served one pipeline pass each, then
the same requests submitted concurrently to a
:class:`~repro.serve.ServingLoop`, which coalesces them into one packed
flush -- and reports simulated-clock throughput for each, along
with a bit-exactness check of every per-request decrypted prediction.

Emits ``BENCH_serving.json`` and exits nonzero if predictions diverge or
the packed speedup falls below ``--min-speedup`` (default 3x at 16
concurrent requests).

Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    PipelineSpec,
    PlaintextPipeline,
    train_paper_models,
)
from repro.serve import InferenceRequest, LoopConfig, ServingLoop
from repro.sgx import AttestationVerificationService


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized model and parameters"
    )
    parser.add_argument(
        "--requests", type=int, default=16, help="concurrent single-image requests"
    )
    parser.add_argument(
        "--out", default="BENCH_serving.json", help="JSON results path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail below this packed-vs-sequential speedup",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        train_kwargs = dict(
            train_size=300, test_size=60, epochs=2, image_size=10, channels=2,
            kernel_size=3,
        )
        poly_degree = 256
    else:
        train_kwargs = dict(train_size=1200, test_size=300, epochs=6)
        poly_degree = 1024

    print(f"training model ({'smoke' if args.smoke else 'full'} config)...")
    models = train_paper_models(**train_kwargs)
    quantized = models.quantized_sigmoid()
    spec = PipelineSpec(scheme="hybrid", poly_degree=poly_degree, batching=True)
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    params = server.params
    clock = server.platform.clock

    images = models.dataset.test_images[: args.requests]
    if len(images) < args.requests:
        raise SystemExit(
            f"test split has only {len(images)} images, need {args.requests}"
        )
    requests = [
        client.encrypt("digits", images[i : i + 1]) for i in range(args.requests)
    ]
    reference = PlaintextPipeline(quantized).infer(images).predictions

    print(f"serving {args.requests} requests sequentially...")
    start = clock.now_s
    sequential = [
        server.infer(InferenceRequest(model="digits", ciphertext=ct))
        for ct in requests
    ]
    sequential_s = clock.now_s - start
    sequential_preds = np.concatenate([client.decrypt(r) for r in sequential])

    print(f"serving {args.requests} requests slot-packed...")
    start = clock.now_s
    loop = ServingLoop(server, LoopConfig(max_queue_depth=args.requests))
    tickets = [loop.submit("digits", ct) for ct in requests]
    loop.run()
    packed_s = clock.now_s - start
    packed_preds = np.concatenate([client.decrypt(t.result()) for t in tickets])

    speedup = sequential_s / packed_s
    predictions_match = bool(
        np.array_equal(packed_preds, sequential_preds)
        and np.array_equal(packed_preds, reference)
    )
    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "requests": args.requests,
            "poly_degree": params.poly_degree,
            "slot_count": params.poly_degree,
            "plain_modulus": params.plain_modulus,
            "min_speedup": args.min_speedup,
        },
        "sequential": {
            "simulated_s": sequential_s,
            "images_per_s": args.requests / sequential_s,
        },
        "packed": {
            "simulated_s": packed_s,
            "images_per_s": args.requests / packed_s,
            "flushes": loop.stats.flushes,
            "enclave_crossings_per_flush": 3,
        },
        "speedup": speedup,
        "predictions_match": predictions_match,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"sequential: {sequential_s:.3f} simulated s "
        f"({report['sequential']['images_per_s']:.2f} images/s)"
    )
    print(
        f"packed:     {packed_s:.3f} simulated s "
        f"({report['packed']['images_per_s']:.2f} images/s) "
        f"in {loop.stats.flushes} flush(es)"
    )
    print(f"speedup: {speedup:.1f}x   predictions match: {predictions_match}")
    print(f"wrote {args.out}")

    if not predictions_match:
        print("FAIL: packed predictions diverge from sequential/plaintext", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
