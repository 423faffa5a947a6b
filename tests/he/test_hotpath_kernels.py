"""Property and regression tests for the fused hot-path kernel layer.

Everything the fused profile changes must be *bit-identical* to the
reference kernels: the stacked NTT against per-prime :class:`NttPlan`, the
lazy conditional-subtract arithmetic against full ``%``, the Garner int64
CRT lift against the object-dtype sum, the probe-based constant decrypt
against full decrypt + decode, and the fused multiply-reduce against the
composed primitives.  The overflow-bound regression pins the deferred
reduction's safety margin at the largest supported configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EncodingError, ParameterError
from repro.he import kernels, modmath
from repro.he.context import Context
from repro.he.decryptor import Decryptor, decrypt_scalar_values
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor, SymmetricEncryptor
from repro.he.evaluator import Evaluator
from repro.he.keys import KeyGenerator
from repro.he.ntt import NttPlan, StackedNttPlan
from repro.he.params import small_parameter_options
from repro.he.polyring import PolyContext

N = 64
PRIMES = modmath.ntt_primes(28, N, 2)


@pytest.fixture(scope="module")
def ring():
    return PolyContext(N, PRIMES)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def fused():
    prev = kernels.configure(kernels.FUSED)
    yield
    kernels.configure(prev)


@pytest.fixture()
def reference():
    prev = kernels.configure(kernels.REFERENCE)
    yield
    kernels.configure(prev)


class TestKernelProfile:
    def test_default_is_fused(self):
        assert kernels.FUSED.mode_name == "fused"
        assert kernels.REFERENCE.mode_name == "reference"

    def test_configure_returns_previous(self):
        prev = kernels.configure(kernels.REFERENCE)
        try:
            assert kernels.active() is kernels.REFERENCE
        finally:
            kernels.configure(prev)
        assert kernels.active() is prev

    def test_use_context_manager_restores(self):
        before = kernels.active()
        with kernels.use(kernels.REFERENCE):
            assert not kernels.active().stacked_ntt
        assert kernels.active() is before

    def test_custom_profile_name(self):
        mixed = kernels.KernelProfile(stacked_ntt=False)
        assert mixed.mode_name == "custom"


class TestStackedNttEquivalence:
    """Stacked (k, n) transforms == per-prime NttPlan, both domains."""

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4), (0, 3)])
    def test_forward_matches_per_prime(self, ring, rng, batch):
        x = ring.sample_uniform(rng, *batch)
        stacked = ring.stacked.forward(x)
        expected = np.empty_like(x)
        for i, plan in enumerate(ring.plans):
            expected[..., i, :] = plan.forward(x[..., i, :])
        assert np.array_equal(stacked, expected)

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4), (0, 3)])
    def test_inverse_matches_per_prime(self, ring, rng, batch):
        x = ring.sample_uniform(rng, *batch)
        stacked = ring.stacked.inverse(x)
        expected = np.empty_like(x)
        for i, plan in enumerate(ring.plans):
            expected[..., i, :] = plan.inverse(x[..., i, :])
        assert np.array_equal(stacked, expected)

    def test_roundtrip(self, ring, rng):
        x = ring.sample_uniform(rng, 7)
        assert np.array_equal(ring.stacked.inverse(ring.stacked.forward(x)), x)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_31_bit_primes_match_per_prime(self, rng, n):
        """Primes just below 2^31 (the documented limit): ``3 p_max``
        exceeds the multiplication-safe bound, so the inverse butterfly
        must lift fully reduced rows by one ``p``, not by a multiple of
        ``p_max``."""
        wide = PolyContext(n, modmath.ntt_primes(31, n, 3))
        x = wide.sample_uniform(rng, 4)
        for transform in ("forward", "inverse"):
            expected = np.empty_like(x)
            for i, plan in enumerate(wide.plans):
                expected[..., i, :] = getattr(plan, transform)(x[..., i, :])
            assert np.array_equal(getattr(wide.stacked, transform)(x), expected)

    def test_ring_dispatch_matches_both_modes(self, ring, rng):
        x = ring.sample_uniform(rng, 3)
        with kernels.use(kernels.FUSED):
            fast = ring.ntt(x)
            fast_inv = ring.intt(fast)
        with kernels.use(kernels.REFERENCE):
            slow = ring.ntt(x)
            slow_inv = ring.intt(slow)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_inv, slow_inv)

    def test_inverse_coeff_weights_match_full_intt(self, ring, rng):
        """Probe weights compute single coefficients of the inverse NTT."""
        x = ring.sample_uniform(rng, 4)
        full = ring.intt(x)
        for index in (0, 1, ring.n // 2, ring.n - 1):
            w = ring.stacked.inverse_coeff_weights(index)  # (k, n)
            prod = x * w
            for i, p in enumerate(ring.primes):
                prod[..., i, :] %= int(p)
            coeff = np.add.reduce(prod, axis=-1) % ring.primes
            assert np.array_equal(coeff, full[..., index])


class TestOverflowBounds:
    """Regression-pin the deferred-reduction safety analysis."""

    def test_largest_supported_config(self):
        """31-bit primes at n=8192: the stacked plan's multiply-safe bound
        must still admit at least one full butterfly stage (>= 2^32 lanes)."""
        n = 8192
        primes = modmath.ntt_primes(31, n, 3)
        plan = StackedNttPlan(n, np.array(primes, dtype=np.int64))
        p_max = max(primes)
        assert plan._mult_safe == ((1 << 63) - 1) // (p_max - 1)
        assert plan._mult_safe >= 1 << 32

    def test_reduce_sum_rejects_overflowing_axis(self, ring):
        terms = ring.max_sum_terms + 1
        fake = np.lib.stride_tricks.as_strided(
            np.zeros((1, ring.k, ring.n), dtype=np.int64),
            shape=(terms, ring.k, ring.n),
            strides=(0, ring.n * 8, 8),
        )
        with pytest.raises(ParameterError, match="deferred reduction overflow"):
            ring.reduce_sum(fake, axis=0)

    def test_pointwise_mul_sum_rejects_overflowing_axis(self, ring):
        terms = ring.max_sum_terms + 1
        fake = np.lib.stride_tricks.as_strided(
            np.zeros((1, ring.k, ring.n), dtype=np.int64),
            shape=(terms, ring.k, ring.n),
            strides=(0, ring.n * 8, 8),
        )
        with pytest.raises(ParameterError, match="deferred reduction overflow"):
            ring.pointwise_mul_sum(fake, fake, axis=0)

    def test_max_sum_terms_large_enough_for_layers(self, ring):
        # Any realistic conv/dense tap count is tiny next to the bound.
        assert ring.max_sum_terms >= 1 << 32


class TestLazyArithmetic:
    """Conditional-subtract add/sub and scalarized products == full ``%``."""

    def test_add_matches_reference(self, ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        with kernels.use(kernels.FUSED):
            fast = ring.add(a, b)
        with kernels.use(kernels.REFERENCE):
            slow = ring.add(a, b)
        assert np.array_equal(fast, slow)
        assert fast.max() < ring.primes.max()

    def test_sub_matches_reference(self, ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        with kernels.use(kernels.FUSED):
            fast = ring.sub(a, b)
        with kernels.use(kernels.REFERENCE):
            slow = ring.sub(a, b)
        assert np.array_equal(fast, slow)
        assert fast.min() >= 0

    def test_pointwise_mul_matches_reference(self, ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        with kernels.use(kernels.FUSED):
            fast = ring.pointwise_mul(a, b)
        with kernels.use(kernels.REFERENCE):
            slow = ring.pointwise_mul(a, b)
        assert np.array_equal(fast, slow)

    def test_from_signed_small_matches_reference(self, ring, rng):
        raw = rng.integers(-1000, 1000, size=(5, ring.n))
        with kernels.use(kernels.FUSED):
            fast = ring.from_signed_small(raw)
        with kernels.use(kernels.REFERENCE):
            slow = ring.from_signed_small(raw)
        assert np.array_equal(fast, slow)

    def test_reduce_sum_matches_folded_add(self, ring, rng):
        stack = ring.sample_uniform(rng, 500)
        folded = stack[0]
        for i in range(1, stack.shape[0]):
            folded = ring.add(folded, stack[i])
        assert np.array_equal(ring.reduce_sum(stack, axis=0), folded)


class TestScalarCache:
    def test_mul_scalar_uses_cached_residues(self, ring, rng):
        ring._scalar_cache.clear()
        a = ring.sample_uniform(rng, 3)
        first = ring.mul_scalar(a, 12345)
        assert 12345 in ring._scalar_cache
        cached = ring.scalar_residues(12345)
        assert cached is ring.scalar_residues(12345)
        assert not cached.flags.writeable
        assert np.array_equal(first, ring.mul_scalar(a, 12345))

    def test_mul_scalar_matches_reference(self, ring, rng):
        a = ring.sample_uniform(rng, 3)
        with kernels.use(kernels.FUSED):
            fast = ring.mul_scalar(a, -77)
        with kernels.use(kernels.REFERENCE):
            slow = ring.mul_scalar(a, -77)
        assert np.array_equal(fast, slow)


class TestPointwiseMulSum:
    def test_matches_composed_primitives(self, ring, rng):
        a = ring.sample_uniform(rng, 4, 9)
        b = ring.sample_uniform(rng, 9)
        fused_out = ring.pointwise_mul_sum(a, b, axis=1)
        composed = ring.reduce_sum(ring.pointwise_mul(a, b), axis=1)
        assert np.array_equal(fused_out, composed)

    def test_chunked_path_matches(self, ring, rng, monkeypatch):
        import repro.he.polyring as polyring_mod

        a = ring.sample_uniform(rng, 3, 17)
        b = ring.sample_uniform(rng, 17)
        expected = ring.pointwise_mul_sum(a, b, axis=1)
        monkeypatch.setattr(polyring_mod, "_MUL_SUM_CHUNK_ELEMS", 1)
        chunked = ring.pointwise_mul_sum(a, b, axis=1)
        assert np.array_equal(chunked, expected)

    def test_rejects_residue_axes(self, ring, rng):
        a = ring.sample_uniform(rng, 3)
        with pytest.raises(ParameterError, match="batch axis"):
            ring.pointwise_mul_sum(a, a, axis=-1)


class TestGarnerLift:
    def test_matches_bigint_centered(self, ring, rng):
        a = ring.sample_uniform(rng, 8)
        fast = ring.to_int64_centered(a)
        slow = ring.to_bigint_centered(a)
        assert np.array_equal(fast.astype(object), slow)

    def test_rejects_wide_modulus(self):
        n = 64
        primes = modmath.ntt_primes(31, n, 3)  # 93-bit q
        wide = PolyContext(n, primes)
        assert not wide.q_fits_int64
        with pytest.raises(ParameterError, match="int64 CRT lift"):
            wide.to_int64_centered(wide.zeros(1))


class TestFastDecrypt:
    @pytest.fixture(scope="class")
    def deployment(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(3)).generate()
        return {
            "context": context,
            "encoder": ScalarEncoder(context),
            "encryptor": Encryptor(context, keys.public, np.random.default_rng(5)),
            "decryptor": Decryptor(context, keys.secret),
        }

    def test_decrypt_constants_matches_decode(self, deployment):
        enc = deployment["encoder"]
        values = np.arange(-12, 12).reshape(4, 6)
        ct = deployment["encryptor"].encrypt(enc.encode(values))
        fast = deployment["decryptor"].decrypt_constants(ct)
        slow = enc.decode(deployment["decryptor"].decrypt(ct))
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, values)

    def test_decrypt_scalar_values_dispatches_both_modes(self, deployment):
        enc = deployment["encoder"]
        values = np.array([7, -3, 11])
        ct = deployment["encryptor"].encrypt(enc.encode(values))
        with kernels.use(kernels.FUSED):
            fast = decrypt_scalar_values(deployment["decryptor"], enc, ct)
        with kernels.use(kernels.REFERENCE):
            slow = decrypt_scalar_values(deployment["decryptor"], enc, ct)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, values)

    def test_decrypt_constants_rejects_non_scalar_plaintext(self, deployment):
        context = deployment["context"]
        coeffs = np.zeros((context.poly_degree,), dtype=np.int64)
        coeffs[0], coeffs[1] = 5, 9  # non-constant polynomial
        from repro.he.context import Plaintext

        ct = deployment["encryptor"].encrypt(Plaintext(context, coeffs))
        with pytest.raises(EncodingError, match="non-constant"):
            deployment["decryptor"].decrypt_constants(ct)

    def test_noise_budget_matches_reference(self, deployment):
        enc = deployment["encoder"]
        ct = deployment["encryptor"].encrypt(enc.encode(np.arange(5)))
        with kernels.use(kernels.FUSED):
            fast = deployment["decryptor"].invariant_noise_budget(ct)
        with kernels.use(kernels.REFERENCE):
            slow = deployment["decryptor"].invariant_noise_budget(ct)
        assert fast == slow


class TestEncryptorBitIdentity:
    """Merged-NTT encryption must emit bit-identical ciphertexts."""

    @pytest.fixture(scope="class")
    def setup(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(11)).generate()
        return context, keys

    def test_public_encrypt_matches(self, setup):
        context, keys = setup
        enc = ScalarEncoder(context)
        plain = enc.encode(np.arange(10))
        with kernels.use(kernels.FUSED):
            fast = Encryptor(context, keys.public, np.random.default_rng(9)).encrypt(plain)
        with kernels.use(kernels.REFERENCE):
            slow = Encryptor(context, keys.public, np.random.default_rng(9)).encrypt(plain)
        assert np.array_equal(fast.data, slow.data)

    def test_symmetric_encrypt_matches(self, setup):
        context, keys = setup
        enc = ScalarEncoder(context)
        plain = enc.encode(np.arange(6))
        with kernels.use(kernels.FUSED):
            fast = SymmetricEncryptor(
                context, keys.secret, np.random.default_rng(9)
            ).encrypt(plain)
        with kernels.use(kernels.REFERENCE):
            slow = SymmetricEncryptor(
                context, keys.secret, np.random.default_rng(9)
            ).encrypt(plain)
        assert np.array_equal(fast.data, slow.data)


class TestEvaluatorAddMany:
    @pytest.fixture(scope="class")
    def setup(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(17)).generate()
        encryptor = Encryptor(context, keys.public, np.random.default_rng(19))
        encoder = ScalarEncoder(context)
        decryptor = Decryptor(context, keys.secret)
        return context, encoder, encryptor, decryptor

    def test_uniform_operands_sum_matches_reference(self, setup):
        context, encoder, encryptor, decryptor = setup
        cts = [encryptor.encrypt(encoder.encode(np.full((3,), v))) for v in (1, 2, 3, 4)]
        with kernels.use(kernels.FUSED):
            fast = Evaluator(context).add_many(cts)
        with kernels.use(kernels.REFERENCE):
            slow = Evaluator(context).add_many(cts)
        assert np.array_equal(fast.data, slow.data)
        assert np.array_equal(encoder.decode(decryptor.decrypt(fast)), np.full((3,), 10))
