"""Fused vs reference kernels: end-to-end bit-identity regression.

The acceptance bar for the hot-path kernel layer is not "same argmax" but
*bit-identical ciphertext bytes* at every pipeline boundary: encryption,
the homomorphic conv, the FC logits, and the decrypted values, plus
identical :class:`OperationCounter` tallies.  Any divergence means a fused
kernel silently changed the arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CryptonetsPipeline, HybridPipeline, heops
from repro.he import kernels
from repro.he.serialize import serialize_ciphertext


def _run_hybrid(profile, quantized, params, images):
    prev = kernels.configure(profile)
    try:
        pipe = HybridPipeline(quantized, params, seed=7)
        result = pipe.infer(images)
        ct = pipe.encrypt_images(images)
        conv = heops.he_conv2d(pipe.evaluator, pipe.encoder, ct, pipe.conv_weights)
        return pipe, result, ct, conv
    finally:
        kernels.configure(prev)


class TestHybridEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, q_sigmoid, hybrid_params, test_images):
        ref = _run_hybrid(kernels.REFERENCE, q_sigmoid, hybrid_params, test_images)
        fus = _run_hybrid(kernels.FUSED, q_sigmoid, hybrid_params, test_images)
        return ref, fus

    def test_logits_bit_identical(self, runs):
        (_, ref, _, _), (_, fus, _, _) = runs
        assert np.array_equal(ref.logits, fus.logits)

    def test_encrypted_input_bit_identical(self, runs):
        (_, _, ref_ct, _), (_, _, fus_ct, _) = runs
        assert ref_ct.is_ntt == fus_ct.is_ntt
        assert np.array_equal(ref_ct.data, fus_ct.data)

    def test_conv_output_bit_identical(self, runs):
        (_, _, _, ref_conv), (_, _, _, fus_conv) = runs
        assert np.array_equal(ref_conv.to_ntt().data, fus_conv.to_ntt().data)

    def test_operation_tallies_identical(self, runs):
        (ref_pipe, _, _, _), (fus_pipe, _, _, _) = runs
        assert dict(ref_pipe.counter.counts) == dict(fus_pipe.counter.counts)

    def test_kernel_mode_recorded_in_trace(self, runs):
        (_, ref, _, _), (_, fus, _, _) = runs
        assert ref.trace.attrs["kernel_mode"] == "reference"
        assert fus.trace.attrs["kernel_mode"] == "fused"


class TestDenseAndPoolEquivalence:
    def test_dense_bit_identical(self, q_sigmoid, hybrid_params, test_images):
        ref_pipe, _, ref_ct, ref_conv = _run_hybrid(
            kernels.REFERENCE, q_sigmoid, hybrid_params, test_images
        )
        with kernels.use(kernels.REFERENCE):
            pooled = heops.he_scaled_mean_pool(
                ref_pipe.evaluator, ref_conv, q_sigmoid.pool_window
            )
            ref_dense = heops.he_dense(
                ref_pipe.evaluator, ref_pipe.encoder, pooled, ref_pipe.dense_weights
            )
        with kernels.use(kernels.FUSED):
            pooled_f = heops.he_scaled_mean_pool(
                ref_pipe.evaluator, ref_conv, q_sigmoid.pool_window
            )
            fus_dense = heops.he_dense(
                ref_pipe.evaluator, ref_pipe.encoder, pooled_f, ref_pipe.dense_weights
            )
        assert np.array_equal(pooled.to_ntt().data, pooled_f.to_ntt().data)
        assert np.array_equal(ref_dense.to_ntt().data, fus_dense.to_ntt().data)

    def test_conv_scalar_kernel_recovered(self, q_sigmoid, hybrid_params, test_images):
        pipe, _, _, _ = _run_hybrid(
            kernels.FUSED, q_sigmoid, hybrid_params, test_images
        )
        # Quantized CNN weights are scalar encodings, so the fused layers
        # must have recovered the signed integer fast path.
        assert pipe.conv_weights.weight_taps is not None
        assert pipe.dense_weights.weight_matrix is not None
        f, c, kh, kw = q_sigmoid.conv_weight.shape
        assert pipe.conv_weights.weight_taps.shape == (f, c * kh * kw)


def _run_cryptonets(profile, quantized, params, images):
    """One pure-HE deployment under ``profile``: the inference, its op
    tallies and the encryptor's next draw, then the relinearized square of
    a fresh conv output, then the next draw again."""
    with kernels.use(profile):
        pipe = CryptonetsPipeline(quantized, params, seed=21)
        result = pipe.infer(images)
        counts = dict(pipe.counter.counts)
        draw_after_infer = int(pipe.encryptor.rng.integers(1 << 62))
        ct = pipe.encrypt_images(images)
        conv = heops.he_conv2d(pipe.evaluator, pipe.encoder, ct, pipe.conv_weights)
        relined = pipe.evaluator.relinearize(
            heops.he_square(pipe.evaluator, conv), pipe._relin_keys
        )
        draw_at_end = int(pipe.encryptor.rng.integers(1 << 62))
    return {
        "logits": result.logits,
        "logits_ct": serialize_ciphertext(result.logits_ct),
        "counts": counts,
        "relinearized": serialize_ciphertext(relined),
        "draws": (draw_after_infer, draw_at_end),
    }


class TestCryptonetsEquivalence:
    """The pure-HE path is where FUSED swaps the big-int tensor product and
    relinearization digits for int64 RNS kernels."""

    @pytest.fixture(scope="class")
    def runs(self, q_square, pure_he_params, test_images):
        return tuple(
            _run_cryptonets(profile, q_square, pure_he_params, test_images)
            for profile in (kernels.REFERENCE, kernels.FUSED)
        )

    def test_logits_and_tallies_match(self, runs):
        ref, fus = runs
        assert np.array_equal(ref["logits"], fus["logits"])
        assert ref["counts"] == fus["counts"]

    def test_logits_ciphertext_bytes_identical(self, runs):
        ref, fus = runs
        assert ref["logits_ct"] == fus["logits_ct"]

    def test_relinearized_intermediate_bytes_identical(self, runs):
        ref, fus = runs
        assert ref["relinearized"] == fus["relinearized"]

    def test_encryptor_next_draw_identical(self, runs):
        ref, fus = runs
        assert ref["draws"] == fus["draws"]
