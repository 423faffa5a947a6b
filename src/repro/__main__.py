"""``python -m repro`` -- a self-contained demonstration run.

Trains the (dimensionally reduced) paper CNN, deploys it behind the hybrid
HE+SGX pipeline, runs one encrypted batch and prints the stage breakdown --
the same flow as ``examples/quickstart.py``, reachable without knowing the
repository layout.

Options:
    python -m repro                    # quick demo (reduced dimensions)
    python -m repro --paper            # the paper's 28x28 / 6-kernel dimensions
    python -m repro --smoke            # minimal dimensions/training (CI)
    python -m repro --trace-json PATH  # export the run's trace as JSON
                                       # (PATH of "-" writes to stdout)
    python -m repro --metrics          # run a short serving + fault-recovery
                                       # segment and print the process-wide
                                       # metrics in Prometheus exposition
    python -m repro --metrics-json PATH  # same, dumping the MetricsSnapshot
                                         # as JSON ("-" writes to stdout)
    python -m repro --serve-demo       # replay a seeded Poisson + 4x-burst
                                       # trace through the event-driven
                                       # continuous-batching serving loop and
                                       # print its SLO report
    python -m repro --serve-demo --fleet 2
                                       # same, on a 2-replica enclave fleet
                                       # (sealed-key migration + routing)
    python -m repro --flight-dump PATH # arm the flight recorder for the run
                                       # and write its ordered event log as
                                       # JSON ("-" writes to stdout); composes
                                       # with every mode above
"""

from __future__ import annotations

import sys

import numpy as np

def _parse(argv: list[str]) -> tuple[dict[str, object], int | None]:
    opts: dict[str, object] = {
        "paper": False,
        "smoke": False,
        "trace_json": None,
        "metrics": False,
        "metrics_json": None,
        "serve_demo": False,
        "fleet": 1,
        "flight_dump": None,
    }
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--fleet":
            if not args or not args[0].isdigit() or int(args[0]) < 1:
                print(__doc__)
                return opts, 2
            opts["fleet"] = int(args.pop(0))
        elif arg == "--trace-json":
            if not args:
                print(__doc__)
                return opts, 2
            opts["trace_json"] = args.pop(0)
        elif arg == "--metrics":
            opts["metrics"] = True
        elif arg == "--metrics-json":
            if not args:
                print(__doc__)
                return opts, 2
            opts["metrics_json"] = args.pop(0)
        elif arg == "--flight-dump":
            if not args:
                print(__doc__)
                return opts, 2
            opts["flight_dump"] = args.pop(0)
        elif arg == "--serve-demo":
            opts["serve_demo"] = True
        elif arg == "--paper":
            opts["paper"] = True
        elif arg == "--smoke":
            opts["smoke"] = True
        else:
            print(__doc__)
            return opts, 0 if arg in {"-h", "--help"} else 2
    if opts["paper"] and opts["smoke"]:
        print(__doc__)
        return opts, 2
    return opts, None


def _metrics_demo(models, quantized) -> None:
    """Exercise the serving loop under a benign armed fault plan.

    Populates the serve, fault/recovery, SGX and HE metric families in one
    short segment: a batching edge server flushes two packed batches while
    the plan crashes one ``activation_pool`` ECALL (recovered by the
    supervisor) and triggers one EPC eviction storm (results unchanged,
    paging costs accrue).
    """
    from repro import faults
    from repro.client import AttestedClient
    from repro.core import EdgeServer, PipelineSpec
    from repro.errors import EnclaveCrashed
    from repro.serve import ServingLoop
    from repro.sgx import AttestationVerificationService

    spec = PipelineSpec(scheme="hybrid", poly_degree=256, batching=True)
    plan = faults.FaultPlan(
        seed=5,
        rules=[
            faults.FaultRule(
                site="sgx.ecall", name="activation_pool*", error=EnclaveCrashed,
                max_fires=1,
            ),
            faults.FaultRule(site="sgx.epc.touch", action="evict_all", after=3,
                             max_fires=1),
        ],
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    images = models.dataset.test_images
    loop = ServingLoop(server)
    with faults.armed(plan):
        for round_start in (0, 2):
            for i in range(round_start, round_start + 2):
                loop.submit("digits", client.encrypt("digits", images[i : i + 1]))
            loop.run()
    print(f"serving segment: 4 requests in {loop.stats.flushes} packed flushes, "
          f"{plan.fires()} fault(s) fired, "
          f"{server.enclave.restarts} enclave restart(s)")


def _serve_demo(
    training: dict, dims: dict, fleet: int, trace_json: str | None = None
) -> int:
    """Replay a seeded open-loop trace through the serving loop.

    A steady Poisson phase followed by a 4x on/off burst, continuous
    batching on a CRT-batching edge server (optionally a multi-replica
    fleet); prints the deterministic SLO report (virtual-timeline waits,
    occupancy, shed rate) and verifies a served request's logits against
    the plaintext reference.  Built the declarative way: a
    :class:`~repro.core.PipelineSpec` describes the deployment and the
    :class:`~repro.client.AttestedClient` SDK establishes the session.
    """
    from repro.client import AttestedClient
    from repro.core import EdgeServer, PipelineSpec, PlaintextPipeline, train_paper_models
    from repro.serve import (
        LoopConfig,
        ServingLoop,
        bursty_trace,
        merge,
        poisson_trace,
    )
    from repro.sgx import AttestationVerificationService

    print("repro: serving-loop demo (continuous batching under open-loop traffic)")
    print(f"dimensions: {dims}   fleet: {fleet} replica(s)\n")
    models = train_paper_models(**training, **dims)
    quantized = models.quantized_sigmoid()
    spec = PipelineSpec(
        scheme="hybrid", poly_degree=256, batching=True,
        fleet_size=fleet, max_batch=8,
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    print(f"client session: {client.state.value} "
          f"(pinned key {client.pinned_fingerprint[:16]}...)")

    image_pool = 4
    pool_images = models.dataset.test_images[:image_pool]
    expected = PlaintextPipeline(quantized).infer(pool_images).logits
    pool = [
        client.encrypt("digits", pool_images[i : i + 1]) for i in range(image_pool)
    ]
    steady = poisson_trace(
        42, rate_rps=300.0, duration_s=0.15, users=1000, image_pool=image_pool
    )
    burst = bursty_trace(
        43, base_rate_rps=300.0, burst_factor=4.0, period_s=0.08,
        duration_s=0.15, users=1000, image_pool=image_pool,
    ).shifted(0.15)
    trace = merge(steady, burst)
    print(
        f"trace: {len(trace)} arrivals / {trace.users} users over "
        f"{trace.duration_s:.2f}s (4x burst in the second half)"
    )

    loop = ServingLoop(server, LoopConfig(admit_wait_slo_s=0.05))
    for arrival in trace:
        loop.offer(arrival, pool[arrival.image_index])
    loop.run()
    report = loop.report()
    print(
        f"served {report['served']}/{report['arrivals']} in "
        f"{report['flushes']} flushes: "
        f"{report['images_per_s']:.0f} images/s, "
        f"occupancy {report['occupancy_mean']:.2f}, "
        f"p50/p99 queue wait "
        f"{report['p50_queue_wait_s'] * 1e3:.1f}/"
        f"{report['p99_queue_wait_s'] * 1e3:.1f} ms, "
        f"shed rate {report['shed_rate']:.2%}"
    )
    served = next(t for t in loop.tickets if t.served)
    exact = bool(
        np.array_equal(
            client.decrypt_logits(served.result()),
            expected[served.image_index : served.image_index + 1],
        )
    )
    resolved = all(t.done() for t in loop.tickets)
    print(f"all tickets resolved: {resolved}   "
          f"served logits == plaintext: {exact}")
    if trace_json is not None:
        import json

        from repro.obs import trace_to_dict

        text = json.dumps(
            [trace_to_dict(t) for t in server.platform.tracer.traces], indent=2
        )
        if trace_json == "-":
            print(text)
        else:
            with open(str(trace_json), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"{len(server.platform.tracer.traces)} serving trace(s) "
                  f"written to {trace_json}")
    return 0 if resolved and exact else 1


def main(argv: list[str]) -> int:
    opts, early = _parse(argv)
    if early is not None:
        return early
    for opt_name, flag in (
        ("trace_json", "--trace-json"),
        ("metrics_json", "--metrics-json"),
        ("flight_dump", "--flight-dump"),
    ):
        path = opts[opt_name]
        if path is not None and path != "-":
            # Fail before the training run, not after it.
            try:
                with open(str(path), "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"error: cannot write {flag} path {path}: {exc}")
                return 2

    if opts["flight_dump"] is None:
        return _run(opts)
    from repro.obs import recorder as flight

    flight.enable(dump_on_error=True)
    try:
        return _run(opts)
    finally:
        text = flight.recorder().dump_json()
        if opts["flight_dump"] == "-":
            print(text)
        else:
            with open(str(opts["flight_dump"]), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"flight recorder dump written to {opts['flight_dump']}")
        flight.disable()


def _run(opts: dict[str, object]) -> int:
    from repro.bench import format_trace
    from repro.core import (
        HybridPipeline,
        PlaintextPipeline,
        parameters_for_pipeline,
        train_paper_models,
    )
    from repro.obs import reconcile, trace_to_json

    if opts["paper"]:
        dims = dict(image_size=28, channels=6, kernel_size=5)
        training = dict(train_size=600, test_size=150, epochs=6)
    elif opts["smoke"]:
        dims = dict(image_size=10, channels=2, kernel_size=3)
        training = dict(train_size=200, test_size=40, epochs=2)
    else:
        dims = dict(image_size=12, channels=2, kernel_size=3)
        training = dict(train_size=600, test_size=150, epochs=6)
    if opts["serve_demo"]:
        return _serve_demo(
            training, dims, int(opts["fleet"]), trace_json=opts["trace_json"]
        )
    print("repro: Privacy-Preserving NN Inference via HE + SGX (ICDCS 2021)")
    print(f"dimensions: {dims}\n")
    models = train_paper_models(**training, **dims)
    quantized = models.quantized_sigmoid()
    params = parameters_for_pipeline(quantized, poly_degree=1024)
    print(f"parameters: {params.describe()}")

    pipeline = HybridPipeline(quantized, params, seed=7)
    images = models.dataset.test_images[:4]
    result = pipeline.infer(images)
    print(result.describe())
    reconcile(result.trace)
    print()
    print(format_trace(result.trace))

    if opts["trace_json"] is not None:
        text = trace_to_json(result.trace)
        if opts["trace_json"] == "-":
            print(text)
        else:
            with open(str(opts["trace_json"]), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"\ntrace written to {opts['trace_json']}")

    plain = PlaintextPipeline(quantized).infer(images)
    exact = np.array_equal(result.logits, plain.logits)
    print(f"\nencrypted == plaintext logits: {exact}")
    print(f"predictions: {result.predictions.tolist()} "
          f"(labels: {models.dataset.test_labels[:4].tolist()})")

    if opts["metrics"] or opts["metrics_json"] is not None:
        from repro.obs import metrics

        print()
        _metrics_demo(models, quantized)
        if opts["metrics"]:
            print("\n== metrics (Prometheus exposition) ==")
            print(metrics.registry().render_prometheus())
        if opts["metrics_json"] is not None:
            text = metrics.registry().collect().to_json()
            if opts["metrics_json"] == "-":
                print(text)
            else:
                with open(str(opts["metrics_json"]), "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                print(f"metrics snapshot written to {opts['metrics_json']}")
    return 0 if exact else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
