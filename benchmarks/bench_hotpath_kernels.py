#!/usr/bin/env python
"""Fused hot-path kernels vs the reference kernels, in one process.

The kernel layer (:mod:`repro.he.kernels`) routes every pipeline through
prime-stacked NTTs, lazy/deferred reduction, tap-batched conv/dense
contractions and the probe-based constant decrypt.  This benchmark records
the *pre-change* behaviour by running the same deployment under the
reference profile (per-prime ``NttPlan`` loops, full ``%`` everywhere,
per-tap Python loops), then under the fused profile, and reports:

* an NTT microbenchmark (stacked vs per-prime transforms, both domains);
* a ct x ct row: multiply + relinearize at the cryptonets pipeline's
  parameters (the big-int tensor product and relinearization digits
  against their int64 RNS kernels), wall-clock;
* a fig8-style end-to-end hybrid (``EncryptSGX``) inference comparison on
  the simulated clock (real compute + modeled SGX overhead);
* a bit-identity audit -- encrypted input, conv output, FC logits,
  decrypted values and the relinearized ct x ct products must match the
  reference *bytes*, and the operation tallies must be identical.

Emits ``BENCH_hotpath.json`` and exits nonzero if any bit-identity check
fails or the end-to-end speedup falls below ``--min-speedup`` (default 3x).

Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import HybridPipeline, heops, parameters_for_pipeline, train_paper_models
from repro.he import (
    Context,
    Encryptor,
    Evaluator,
    KeyGenerator,
    ScalarEncoder,
    kernels,
)


def _time_ntt(ring, batch: tuple[int, ...], reps: int, rng) -> dict:
    """Median seconds per forward/inverse transform, both kernel modes."""
    x = ring.sample_uniform(rng, *batch)
    out: dict = {"batch": list(batch)}
    for name, profile in (("reference", kernels.REFERENCE), ("fused", kernels.FUSED)):
        with kernels.use(profile):
            ring.ntt(x)  # warm
            fwd, inv = [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                y = ring.ntt(x)
                fwd.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                ring.intt(y)
                inv.append(time.perf_counter() - t0)
        out[name] = {
            "forward_s": float(np.median(fwd)),
            "inverse_s": float(np.median(inv)),
        }
    out["forward_speedup"] = out["reference"]["forward_s"] / out["fused"]["forward_s"]
    out["inverse_speedup"] = out["reference"]["inverse_s"] / out["fused"]["inverse_s"]
    return out


def _time_tensor_product(params, batch: int, reps: int, rng) -> dict:
    """Median wall seconds of ``relinearize(multiply(ct0, ct1))`` over a
    batch of ciphertexts, both kernel modes, plus the bit-identity of the
    relinearized product and of the relinearized square."""
    context = Context(params)
    keygen = KeyGenerator(context, rng)
    keys = keygen.generate()
    relin = keygen.relin_keys(keys.secret)
    encryptor = Encryptor(context, keys.public, rng)
    encoder = ScalarEncoder(context)
    ct0, ct1 = (
        encryptor.encrypt(encoder.encode(rng.integers(-50, 50, size=batch)))
        for _ in range(2)
    )
    evaluator = Evaluator(context)

    def step():
        return evaluator.relinearize(evaluator.multiply(ct0, ct1), relin)

    out: dict = {"batch": batch}
    outputs = {}
    for name, profile in (("reference", kernels.REFERENCE), ("fused", kernels.FUSED)):
        with kernels.use(profile):
            step()  # warm: the fused path builds its auxiliary basis once
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                product = step()
                times.append(time.perf_counter() - t0)
            square = evaluator.relinearize(evaluator.square(ct0), relin)
        outputs[name] = (product.data, square.data)
        out[name] = {"multiply_relinearize_s": float(np.median(times))}
    out["speedup"] = (
        out["reference"]["multiply_relinearize_s"]
        / out["fused"]["multiply_relinearize_s"]
    )
    out["bit_identical"] = all(
        np.array_equal(r, f) for r, f in zip(outputs["reference"], outputs["fused"])
    )
    return out


def _run_pipeline(profile, quantized, params, images, reps: int):
    """Fig8-style hybrid inference under one kernel profile.

    Returns the median simulated-clock latency plus every intermediate the
    bit-identity audit compares.
    """
    prev = kernels.configure(profile)
    try:
        pipe = HybridPipeline(quantized, params, seed=13)
        pipe.infer(images)  # warm: first run pays lazy caches
        results = [pipe.infer(images) for _ in range(reps)]
        elapsed = sorted(r.total_elapsed_s for r in results)
        median = elapsed[len(elapsed) // 2]
        result = results[-1]
        ct = pipe.encrypt_images(images)
        conv = heops.he_conv2d(pipe.evaluator, pipe.encoder, ct, pipe.conv_weights)
        return {
            "pipe": pipe,
            "result": result,
            "median_s": median,
            "stage_s": {s.name: s.elapsed_s for s in result.stages},
            "input_ct": ct,
            "conv_ct": conv.to_ntt(),
            "counts": dict(pipe.counter.counts),
        }
    finally:
        kernels.configure(prev)


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized model and parameters"
    )
    parser.add_argument("--batch", type=int, default=4, help="images per inference")
    parser.add_argument("--reps", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", help="JSON results path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail below this fused-vs-reference end-to-end speedup",
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
    params = parameters_for_pipeline(quantized, poly_degree)
    images = models.dataset.test_images[: args.batch]

    ring = Context(params).ring
    rng = np.random.default_rng(99)
    print("NTT microbenchmark...")
    ntt_report = _time_ntt(ring, (512,), reps=max(3, args.reps), rng=rng)
    print("ct x ct multiply + relinearize at cryptonets parameters...")
    ct_mul_report = _time_tensor_product(
        parameters_for_pipeline(models.quantized_square(), poly_degree),
        batch=64,
        reps=args.reps,
        rng=rng,
    )

    print("end-to-end hybrid inference, reference kernels (pre-change baseline)...")
    ref = _run_pipeline(kernels.REFERENCE, quantized, params, images, args.reps)
    print("end-to-end hybrid inference, fused kernels...")
    fus = _run_pipeline(kernels.FUSED, quantized, params, images, args.reps)

    identity = {
        "logits": bool(np.array_equal(ref["result"].logits, fus["result"].logits)),
        "encrypted_input": bool(
            np.array_equal(ref["input_ct"].data, fus["input_ct"].data)
        ),
        "conv_ciphertext": bool(
            np.array_equal(ref["conv_ct"].data, fus["conv_ct"].data)
        ),
        "op_tallies": ref["counts"] == fus["counts"],
        "tensor_product": ct_mul_report.pop("bit_identical"),
    }
    bit_identical = all(identity.values())
    speedup = ref["median_s"] / fus["median_s"]

    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "batch": args.batch,
            "reps": args.reps,
            "poly_degree": params.poly_degree,
            "rns_primes": len(params.coeff_primes),
            "plain_modulus": params.plain_modulus,
            "min_speedup": args.min_speedup,
        },
        "ntt": ntt_report,
        "ct_mul": ct_mul_report,
        "baseline_reference": {
            "simulated_s": ref["median_s"],
            "stages_s": ref["stage_s"],
        },
        "fused": {
            "simulated_s": fus["median_s"],
            "stages_s": fus["stage_s"],
        },
        "speedup": speedup,
        "bit_identical": identity,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"NTT forward {ntt_report['forward_speedup']:.2f}x, "
        f"inverse {ntt_report['inverse_speedup']:.2f}x (batch {ntt_report['batch']})"
    )
    print(
        f"ct x ct multiply + relinearize {ct_mul_report['speedup']:.2f}x "
        f"(batch {ct_mul_report['batch']})"
    )
    print(f"reference: {ref['median_s']:.3f} simulated s/inference")
    print(f"fused:     {fus['median_s']:.3f} simulated s/inference")
    print(f"speedup: {speedup:.2f}x   bit-identical: {bit_identical}")
    print(f"wrote {args.out}")

    if not bit_identical:
        failed = [k for k, v in identity.items() if not v]
        print(f"FAIL: fused kernels diverge from reference: {failed}", file=sys.stderr)
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
