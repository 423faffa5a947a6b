"""The repository benchmark: measured wall-clock end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` sends each request (for ``served-stream``, each
round of traffic) first to an untraced deployment and then, traced, to a
second, identically built one, for the same total time; it checks that
both computed the same logits and logits ciphertext bytes and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object::

    {"correct": true, "attempted": 712, "failed": 0, "metrics": {...}}

Every decrypted output is checked against the plaintext integer model;
any mismatch, refusal or typed error counts as failed and the command
exits 1.  Usage errors, including any ``REPRO_*`` variable in the
environment, exit 2 without a result.  Metric definitions are in
``perfbench/README.md``; the workloads and bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Deployments built per run; ``setup_s`` reports the median.
SETUPS = 5
#: Where traced runs write their spans (relative to the working directory).
SPAN_DIR = Path(".perfbench")

#: End-to-end metric -> unit, in BENCHMARK.json order.
UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ips": "images/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: (metric, unit) in BENCHMARK.json order.  Time per image is a layer's
#: span self time over the traced run's verified images.
PER_LAYER = (
    ("client.encrypt_ms_per_image", "ms"),
    ("client.decrypt_ms_per_image", "ms"),
    ("client.establish_ms", "ms"),
    ("core.build_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("graph.compile_ms", "ms"),
    ("core.conv_ms_per_image", "ms"),
    ("core.fc_ms_per_image", "ms"),
    ("sgx.crossing_ms_per_image", "ms"),
    ("core.square_ms_per_image", "ms"),
    ("core.relinearize_ms_per_image", "ms"),
    ("core.pool_ms_per_image", "ms"),
    ("serve.flush_ms_p50", "ms"),
    ("serve.flush_ms_p95", "ms"),
    ("serve.loop_self_ms", "ms"),
    ("serve.images_per_flush", "images"),
    ("serve.flushes", "count"),
    ("serve.shed", "count"),
    ("serve.evicted", "count"),
    ("serve.failed", "count"),
    ("serve.retried", "count"),
    ("he.ct_plain_mul_per_image", "count"),
    ("he.ct_add_per_image", "count"),
    ("he.ct_mul_per_image", "count"),
    ("he.relinearize_per_image", "count"),
    ("sgx.ecalls_per_image", "count"),
    ("sgx.bytes_crossed_per_image", "B"),
    ("faults.kernel_degradations", "count"),
    ("graph.degradations", "count"),
    ("sgx.modeled_overhead_ms_per_image", "ms"),
    ("serve.modeled_queue_wait_p50_ms", "ms"),
    ("serve.modeled_queue_wait_p99_ms", "ms"),
    ("obs.unattributed_pct", "%"),
    ("obs.tracing_overhead_pct", "%"),
    ("fail_ratio", "ratio"),
    ("latency_samples", "count"),
)
#: Span names whose self time is reported per image.
LAYER_SPANS = (
    "client.encrypt",
    "client.decrypt",
    "core.conv",
    "core.fc",
    "sgx.crossing",
    "core.square",
    "core.relinearize",
    "core.pool",
)
#: Root spans: the benchmark's own glue, not a layer.
ROOT_SPANS = ("request", "round")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(phase, setup_s: float) -> dict:
    return {
        "latency_p50_ms": percentile(phase.latencies_s, 50) * 1e3,
        "latency_p95_ms": percentile(phase.latencies_s, 95) * 1e3,
        "throughput_ips": phase.images / phase.busy_s if phase.busy_s > 0 else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def registry_total(prefix: str) -> float:
    from repro.obs import metrics

    flat = metrics.registry().collect().flat()
    return sum(v for k, v in flat.items() if k == prefix or k.startswith(prefix + "{"))


def per_layer(untraced, traced, spans, setup_phases, checker) -> dict:
    images = max(1, traced.images)
    self_s = spans.self_seconds()
    out = {f"{name}_ms_per_image": self_s.get(name, 0.0) / images * 1e3 for name in LAYER_SPANS}
    for phase in ("client.establish", "core.build", "nn.train", "graph.compile"):
        out[f"{phase}_ms"] = statistics.median(p[phase] for p in setup_phases) * 1e3

    serve = traced.serve
    flush_walls = serve.get("flush_walls_s", [])
    out["serve.flush_ms_p50"] = percentile(flush_walls, 50) * 1e3
    out["serve.flush_ms_p95"] = percentile(flush_walls, 95) * 1e3
    out["serve.loop_self_ms"] = self_s.get("serve.loop", 0.0) / images * 1e3
    flushes = serve.get("flushes", 0)
    out["serve.images_per_flush"] = serve.get("packed_images", 0) / flushes if flushes else 0.0
    out["serve.flushes"] = flushes
    for key in ("shed", "evicted", "failed"):
        out[f"serve.{key}"] = serve.get(key, 0)
    out["serve.retried"] = traced.counts.get("serve.retried", 0)
    waits = serve.get("queue_waits_s", [])
    out["serve.modeled_queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
    out["serve.modeled_queue_wait_p99_ms"] = percentile(waits, 99) * 1e3

    counts = traced.counts
    for op in ("ct_plain_mul", "ct_add", "ct_mul", "relinearize"):
        out[f"he.{op}_per_image"] = counts.get(f"he.{op}", 0) / images
    out["sgx.ecalls_per_image"] = counts.get("sgx.ecalls", 0) / images
    out["sgx.bytes_crossed_per_image"] = counts.get("sgx.bytes_crossed", 0) / images
    out["sgx.modeled_overhead_ms_per_image"] = counts.get("sgx.modeled_overhead_s", 0.0) / images * 1e3
    out["faults.kernel_degradations"] = registry_total("repro_recovery_kernel_degradations_total")
    out["graph.degradations"] = registry_total("repro_graph_degradations_total")

    untraced_per_image = untraced.busy_s / max(1, untraced.images)
    traced_per_image = traced.busy_s / images
    attributed = sum(v for k, v in self_s.items() if k not in ROOT_SPANS) / images
    out["obs.unattributed_pct"] = 100.0 * (1.0 - attributed / untraced_per_image)
    out["obs.tracing_overhead_pct"] = 100.0 * (traced_per_image / untraced_per_image - 1.0)
    out["fail_ratio"] = checker.failed / max(1, checker.attempted)
    out["latency_samples"] = len(untraced.latencies_s)
    return out


def environment() -> dict:
    """What two runs must share to be compared."""
    from repro.graph import optimizer
    from repro.he import kernels, parallel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels.active().mode_name,
        "workers": parallel.active_workers(),
        "graph_opt": optimizer.active_level(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, checker=None) -> int:
    args = parse_args(argv)
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        print(f"perfbench: refusing to run with {', '.join(leaked)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    import deploy
    import workloads
    from spans import SpanRecorder

    import_s = time.perf_counter() - _IMPORT_START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    setups, walls, phases = [], [], []
    for _ in range(SETUPS):
        setups.append(deploy.set_up(workload.kind, deploy.Inputs(args.seed)))
        walls.append(setups[-1].wall_s)
        phases.append(setups[-1].phases_s)
        del setups[:-2]  # keep only the two deployments the runs use
    setup_s = import_s + statistics.median(walls)
    checker = checker if checker is not None else workloads.Checker()
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    inputs = deploy.Inputs(args.seed)
    if args.trace == 0:
        (phase,) = workload.drive([(setups[-1], None)], inputs, args.seconds, checker)
        metrics = end_to_end(phase, setup_s)
        print(f"end_to_end samples={len(phase.latencies_s)} images={phase.images} "
              + " ".join(f"{k}={v:.4f}{UNITS[k]}" for k, v in metrics.items()))
        units = UNITS
    else:
        spans = SpanRecorder()
        untraced, traced = workload.drive(
            [(setups[0], None), (setups[1], spans)], inputs, args.seconds, checker
        )
        # Both sides served the same requests in lockstep.
        diverged = sum(
            1 for a, b in zip(untraced.digests, traced.digests) if a is None or a != b
        )
        if diverged:
            print(f"perfbench: traced run diverged from untraced on {diverged} requests",
                  file=sys.stderr)
            checker.fail(diverged)
        print(f"equivalence requests={len(traced.digests)} diverged={diverged}")
        e2e = end_to_end(untraced, setup_s)
        print(f"end_to_end samples={len(untraced.latencies_s)} images={untraced.images} "
              + " ".join(f"{k}={v:.4f}{UNITS[k]}" for k, v in e2e.items()))
        measured = per_layer(untraced, traced, spans, phases, checker)
        metrics = {name: measured[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        print("per_layer " + " ".join(f"{k}={v:.4f}{units[k]}" for k, v in metrics.items() if v))
        SPAN_DIR.mkdir(exist_ok=True)
        spans.dump(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                   {"workload": args.workload, "seed": args.seed, "env": env})

    correct = checker.failed == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
