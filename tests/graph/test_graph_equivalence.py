"""Differential equivalence harness for the graph optimizer.

The contract under test (DESIGN.md §16): for every pass, every pair-wise
pass composition, and both full portfolios, optimized execution is
*bit-identical* to the unoptimized reference — same logits, same
serialized ciphertext bytes for the encrypted logits, same homomorphic
op tallies.  Mirrors ``tests/core/test_kernel_equivalence.py``'s
recorder pattern at the pipeline level, and covers every path the
executor runs: the hybrid and CryptoNets pipelines, the SIMD and deep
pipelines, and the edge server's direct and packed-flush serving paths.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import CryptonetsPipeline, EdgeServer, HybridPipeline
from repro.graph import executor, ir, optimizer
from repro.graph.optimizer import PASS_PORTFOLIO, compile_graph
from repro.he.serialize import serialize_ciphertext

PASS_NAMES = PASS_PORTFOLIO["safe"]

#: Every single pass, every pair-wise composition, both full portfolios.
CONFIGS = (
    [("safe", (name,)) for name in PASS_NAMES]
    + [("safe", pair) for pair in itertools.combinations(PASS_NAMES, 2)]
    + [("safe", None), ("aggressive", None)]
)


def _run(factory, images):
    pipe = factory()
    res = pipe.infer(images)
    return pipe, res, dict(pipe.counter.counts)


@pytest.fixture(scope="module")
def hybrid_reference(q_hybrid, hybrid_params, images):
    with optimizer.use("off"):
        return _run(lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images)


@pytest.fixture(scope="module")
def he_reference(q_he, he_params, images):
    with optimizer.use("off"):
        return _run(lambda: CryptonetsPipeline(q_he, he_params, seed=7), images)


def _assert_bit_identical(reference, candidate):
    _, ref_res, ref_counts = reference
    _, res, counts = candidate
    assert np.array_equal(ref_res.logits, res.logits)
    assert serialize_ciphertext(ref_res.logits_ct) == serialize_ciphertext(
        res.logits_ct
    )
    assert ref_counts == counts


class TestHybridEquivalence:
    @pytest.mark.parametrize("level,passes", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, passes, hybrid_reference, q_hybrid, hybrid_params, images
    ):
        with optimizer.use(level, passes):
            candidate = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        _assert_bit_identical(hybrid_reference, candidate)

    def test_safe_applies_expected_passes(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            pipe, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        report = pipe.graph_report
        assert set(report.applied) >= {
            "zero_tap",
            "pack_crossing",
            "hoist_ntt",
            "scalar_encrypt",
        }
        assert not report.degraded
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_stage_names_unchanged(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "sgx_activation_pool",
            "fc",
            "decrypt",
        ]

    def test_single_crossing_preserved(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        assert res.enclave_crossings == 1

    def test_per_pixel_crossing_matches_batched(
        self, q_golden, golden_batching_params, golden_images
    ):
        images = golden_images[:1]
        batched = HybridPipeline(q_golden, golden_batching_params, seed=7)
        per_pixel = HybridPipeline(
            q_golden, golden_batching_params, mode="per_pixel", seed=7
        )
        res = per_pixel.infer(images)
        assert np.array_equal(res.logits, batched.infer(images).logits)
        # One sigmoid ECALL per conv-output value, then the pooling ECALL.
        assert res.enclave_crossings == 2 * 4 * 4 + 1

    def test_per_pixel_pack_refused(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params, mode="per_pixel")
        _, report = compile_graph(graph, level="safe")
        assert "pack_crossing" not in report.applied
        assert "one value" in report.refusal("pack_crossing")


class TestCryptonetsEquivalence:
    @pytest.mark.parametrize("level,passes", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, passes, he_reference, q_he, he_params, images
    ):
        with optimizer.use(level, passes):
            candidate = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        _assert_bit_identical(he_reference, candidate)

    def test_pack_crossing_refused_without_enclave(self, q_he, he_params, images):
        with optimizer.use("safe"):
            pipe, _, _ = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        report = pipe.graph_report
        assert "pure-HE" in report.refusal("pack_crossing")
        assert "hoist_ntt" in report.applied  # the square INTT hoist still fires

    def test_stage_names_unchanged(self, q_he, he_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "square",
            "relinearize",
            "pool",
            "fc",
            "decrypt",
        ]


#: The paths that run the executor from a slot layout, a multi-block
#: graph, or a client ciphertext (fixtures in conftest.py).
NEW_PATHS = ("simd", "deep", "direct", "packed")


@pytest.fixture(scope="module")
def path_references(golden_paths):
    with optimizer.use("off"):
        return {name: golden_paths[name]() for name in NEW_PATHS}


class TestNewPathEquivalence:
    @pytest.mark.parametrize("level,passes", CONFIGS)
    @pytest.mark.parametrize("path", NEW_PATHS)
    def test_bit_identical_to_reference(
        self, path, level, passes, golden_paths, path_references
    ):
        with optimizer.use(level, passes):
            run = golden_paths[path]()
        reference = path_references[path]
        assert np.array_equal(reference.logits, run.logits)
        assert reference.logits_ct == run.logits_ct
        assert reference.ops == run.ops
        assert reference.stages == run.stages
        assert reference.next_draw == run.next_draw


def _report(kind, model, params, level="safe"):
    return compile_graph(ir.build_graph(kind, model, params), level=level)[1]


class TestNewLayoutRefusals:
    """Passes refuse the graph shapes they are not proven exact on."""

    def test_simd(self, q_golden, golden_batching_params):
        report = _report("simd", q_golden, golden_batching_params, "aggressive")
        assert set(report.applied) == {"zero_tap", "fold_bias"}
        assert "slot-layout crossing" in report.refusal("pack_crossing")
        assert "slot-layout encrypt" in report.refusal("scalar_encrypt")
        assert "pack_crossing did not fire" in report.refusal("hoist_ntt")
        assert "batching plaintext modulus" in report.refusal("select_parameters")

    def test_deep(self, q_golden_deep, golden_deep_params):
        report = _report("deep", q_golden_deep, golden_deep_params, "aggressive")
        assert set(report.applied) == {"scalar_encrypt", "select_parameters"}
        for name in ("zero_tap", "fold_bias", "pack_crossing"):
            assert "multi-block graph" in report.refusal(name)
        assert "pack_crossing did not fire" in report.refusal("hoist_ntt")

    def test_direct_served(self, q_golden, golden_batching_params):
        report = _report("served", q_golden, golden_batching_params)
        assert set(report.applied) == {
            "zero_tap", "fold_bias", "pack_crossing", "hoist_ntt"
        }
        assert "client ciphertext" in report.refusal("scalar_encrypt")

    def test_packed_served(self, q_golden, golden_batching_params):
        report = _report("packed", q_golden, golden_batching_params, "aggressive")
        assert set(report.applied) == {"zero_tap", "fold_bias"}
        assert "slot-layout crossing" in report.refusal("pack_crossing")
        assert "client ciphertext" in report.refusal("scalar_encrypt")
        assert "pack_crossing did not fire" in report.refusal("hoist_ntt")
        assert "batching plaintext modulus" in report.refusal("select_parameters")

    def test_refusals_never_degrade(self, golden_paths):
        with optimizer.use("aggressive"):
            for path in NEW_PATHS:
                run = golden_paths[path]()
                trace = run.owner.platform.tracer.traces[-1]
                assert trace.attrs["graph_opt"] == "aggressive", path


class TestCompileCache:
    def test_keyed_by_kind_and_mode(self, q_hybrid, hybrid_params):
        pipe = HybridPipeline(q_hybrid, hybrid_params, seed=7)
        batched, _ = executor.compiled_for(pipe, "hybrid")
        per_pixel, _ = executor.compiled_for(pipe, "hybrid", mode="per_pixel")
        cryptonets, _ = executor.compiled_for(pipe, "cryptonets")
        assert batched.meta["mode"] == "batched"
        assert per_pixel.meta["mode"] == "per_pixel"
        assert cryptonets.kind == "cryptonets"
        assert executor.compiled_for(pipe, "hybrid")[0] is batched

    def test_keyed_by_model(self, q_golden, golden_batching_params):
        import dataclasses

        server = EdgeServer(golden_batching_params, seed=3)
        other = dataclasses.replace(q_golden, conv_bias=q_golden.conv_bias + 1)
        first, _ = executor.compiled_for(server, "served", model=q_golden)
        second, _ = executor.compiled_for(server, "served", model=other)
        assert first.meta["model"] is q_golden
        assert second.meta["model"] is other
        assert executor.compiled_for(server, "served", model=q_golden)[0] is first

    def test_invalidated_by_optimizer_level(self, q_golden, golden_batching_params):
        server = EdgeServer(golden_batching_params, seed=3)
        with optimizer.use("off"):
            off, _ = executor.compiled_for(server, "served", model=q_golden)
        with optimizer.use("safe"):
            safe, report = executor.compiled_for(server, "served", model=q_golden)
        assert safe is not off
        assert report.level == "safe"


class TestReportSurface:
    def test_off_is_reference(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params)
        compiled, report = compile_graph(graph, level="off")
        assert report.level == "off"
        assert report.label == "off"
        assert compiled.signature() == graph.signature()

    def test_aggressive_emits_parameter_advice(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params)
        _, report = compile_graph(graph, level="aggressive")
        advice = report.parameter_advice
        assert advice is not None
        assert advice.poly_degree <= hybrid_params.poly_degree
        assert len(advice.coeff_primes) <= len(hybrid_params.coeff_primes)

    def test_spec_knob_configures_process(self, q_hybrid, hybrid_params, images):
        from repro.core import PipelineSpec, build_pipeline

        spec = PipelineSpec(
            scheme="hybrid", params=hybrid_params, graph_optimizer="safe"
        )
        pipe = build_pipeline(spec, q_hybrid, seed=7)
        assert optimizer.active_level() == "safe"
        res = pipe.infer(images)
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_server_spec_knob_reaches_served_traffic(
        self, q_golden, golden_batching_params, golden_images
    ):
        from repro.core import PipelineSpec
        from repro.serve import InferenceRequest
        from repro.sgx import AttestationVerificationService

        spec = PipelineSpec(
            scheme="hybrid", params=golden_batching_params, graph_optimizer="safe"
        )
        server = EdgeServer.from_spec(spec, seed=7)
        server.provision_model("golden", q_golden)
        verifier = AttestationVerificationService()
        verifier.register_platform(server.quoting)
        session = server.enroll_user(entropy=b"\x01" * 32, verifier=verifier)
        ct = session.encrypt("golden", golden_images[:1])
        result = server.infer(InferenceRequest(model="golden", ciphertext=ct))
        trace = result.timing.trace
        assert trace.attrs["graph_opt"] == "safe"
        assert [s.name for s in trace.ecalls()] == ["activation_pool_packed"]
        expected = q_golden.forward_int(golden_images[:1])
        assert np.array_equal(session.decrypt_logits(result), expected)

    def test_spec_rejects_unknown_level(self, hybrid_params):
        from repro.core import PipelineSpec
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="graph_optimizer"):
            PipelineSpec(
                scheme="hybrid", params=hybrid_params, graph_optimizer="ludicrous"
            )

    def test_build_pipeline_kwarg_configures_process(
        self, q_hybrid, hybrid_params, images
    ):
        from repro.core import build_pipeline

        pipe = build_pipeline(
            "hybrid", q_hybrid, hybrid_params, seed=7, graph_optimizer="safe"
        )
        assert optimizer.active_level() == "safe"
        res = pipe.infer(images)
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_build_pipeline_kwarg_rejects_unknown_level(self, q_hybrid, hybrid_params):
        from repro.core import build_pipeline
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline(
                "hybrid", q_hybrid, hybrid_params, graph_optimizer="ludicrous"
            )
