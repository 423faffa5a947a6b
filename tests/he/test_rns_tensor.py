"""Differential tests: the RNS tensor product against the big-int reference.

Under the FUSED profile ``Evaluator.multiply``/``square`` run the FV tensor
product in int64 residues (Garner base conversion into an auxiliary prime
basis) and ``relinearize`` cuts its base-``w`` digits from the same Garner
digits.  REFERENCE keeps the object-dtype path.  Every output must match it
byte for byte on ``Ciphertext.data``, across ring degrees, prime counts
(``q`` below and above ``2^62``), plaintext moduli, operand aliasing, batch
broadcasts and residues whose lifts sit on the centering boundary.

Examples are seeded: ``REPRO_CHAOS_SEED`` (the CI chaos sweep) picks the
seed, so each sweep job explores a different but reproducible set.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.he import kernels, modmath
from repro.he.context import Ciphertext, Context
from repro.he.evaluator import Evaluator
from repro.he.keys import KeyGenerator
from repro.he.params import EncryptionParams
from repro.he.polyring import PolyContext, RnsBasis

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20210610"))

#: 20-bit primes keep q below 2^62 up to three primes; 30- and 31-bit ones
#: (the largest the ring accepts) cross it from three primes on.
PRIME_BITS = (20, 30, 31)
DEGREES = (8, 16, 64, 256, 1024)
#: t = 2, an odd t, and t = 2^31.
PLAIN_MODULI = (2, 257, 1 << 31)
#: (ct0 batch, ct1 batch) pairs: unbatched, batched x unbatched both ways,
#: and a broadcast that grows both sides.
BATCHES = (((), ()), ((3,), ()), ((), (2,)), ((2, 1), (3,)))


@lru_cache(maxsize=None)
def _deployment(n: int, bits: int, k: int, t: int, decomposition_bits: int):
    primes = modmath.ntt_primes(bits, n, k)
    params = EncryptionParams(
        n, tuple(primes), t, decomposition_bits=decomposition_bits
    )
    context = Context(params)
    keygen = KeyGenerator(context, np.random.default_rng(n + k))
    return context, keygen.relin_keys(keygen.secret_key())


def _boundary_lifts(q: int) -> list[int]:
    return [0, q // 2, q // 2 + 1, q - 1]


def _coefficients(ring: PolyContext, rng, *batch: int) -> np.ndarray:
    """Uniform residues ``(*batch, k, n)`` whose first four coefficients
    lift to the centering boundary values."""
    data = ring.sample_uniform(rng, *batch)
    edges = np.array(_boundary_lifts(ring.q), dtype=object)
    data[..., :, : len(edges)] = np.stack(
        [(edges % int(p)).astype(np.int64) for p in ring.primes]
    )
    return data


def _ciphertext(context, rng, size, batch, ntt):
    ring = context.ring
    data = _coefficients(ring, rng, *batch, size)
    ct = Ciphertext(context, data, is_ntt=False)
    return ct.to_ntt() if ntt else ct


def _both_profiles(fn):
    out = {}
    for profile in (kernels.REFERENCE, kernels.FUSED):
        with kernels.use(profile):
            out[profile.mode_name] = fn()
    return out["reference"], out["fused"]


def _assert_same(ref: Ciphertext, fus: Ciphertext) -> None:
    assert ref.is_ntt == fus.is_ntt
    assert ref.data.dtype == fus.data.dtype == np.int64
    assert ref.data.shape == fus.data.shape
    assert ref.data.tobytes() == fus.data.tobytes()


@st.composite
def rings(draw):
    n = draw(st.sampled_from(DEGREES))
    bits = draw(st.sampled_from(PRIME_BITS))
    k = draw(st.integers(min_value=1, max_value=6))
    t = draw(st.sampled_from(PLAIN_MODULI))
    # t must stay below q (a single 20-bit prime is smaller than 2^31).
    if t >= modmath.product(modmath.ntt_primes(bits, n, k)):
        t = 257 if bits * k > 9 else 2
    decomposition_bits = draw(st.sampled_from((8, 16)))
    return n, bits, k, t, decomposition_bits


def _check_products(shape, batches, ntt, data_seed) -> None:
    """multiply, square (aliased and twin operands) and relinearize of the
    square: FUSED bytes == REFERENCE bytes."""
    context, relin = _deployment(*shape)
    rng = np.random.default_rng(data_seed)
    ct0 = _ciphertext(context, rng, 2, batches[0], ntt[0])
    ct1 = _ciphertext(context, rng, 2, batches[1], ntt[1])
    ev = Evaluator(context)

    ref, fus = _both_profiles(lambda: ev.multiply(ct0, ct1))
    _assert_same(ref, fus)
    ref, fus = _both_profiles(lambda: ev.square(ct0))
    _assert_same(ref, fus)
    # Identical values, distinct objects: the four-product path must agree
    # with the square path.
    twin = ct0.copy()
    ref_twin, fus_twin = _both_profiles(lambda: ev.multiply(ct0, twin))
    _assert_same(ref_twin, fus_twin)
    _assert_same(fus, fus_twin)
    ref_relin, fus_relin = _both_profiles(lambda: ev.relinearize(fus, relin))
    _assert_same(ref_relin, fus_relin)


class TestTensorProduct:
    @seed(SEED)
    @settings(max_examples=30, deadline=None)
    @given(
        shape=rings(),
        batches=st.sampled_from(BATCHES),
        ntt=st.tuples(st.booleans(), st.booleans()),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_multiply_square_relinearize_match_reference(
        self, shape, batches, ntt, data_seed
    ):
        _check_products(shape, batches, ntt, data_seed)

    @pytest.mark.parametrize(
        "shape",
        [
            (8, 30, 1, 2, 8),  # smallest ring, one prime
            (16, 20, 3, 1 << 31, 16),  # 60-bit q
            (64, 31, 2, 1 << 31, 8),  # two 31-bit primes: just below 2^62
            (64, 30, 3, 257, 16),  # 90-bit q: just above 2^62
            (256, 30, 5, 1 << 31, 16),  # the pure-he parameters
            (1024, 30, 6, 2, 16),  # largest ring, most primes
        ],
    )
    def test_corner_parameters(self, shape):
        _check_products(shape, ((2, 1), (3,)), (True, False), 7)

    @seed(SEED)
    @settings(max_examples=15, deadline=None)
    @given(
        shape=rings(),
        batch=st.sampled_from(((), (2,), (2, 3))),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_relinearize_random_size3_matches_reference(self, shape, batch, data_seed):
        context, relin = _deployment(*shape)
        ct = _ciphertext(context, np.random.default_rng(data_seed), 3, batch, True)
        ref, fus = _both_profiles(lambda: Evaluator(context).relinearize(ct, relin))
        _assert_same(ref, fus)

    def test_pure_he_sized_auxiliary_basis(self):
        """At the pure-he parameters (n=256, five 30-bit primes, t=2^31) the
        auxiliary basis is 7 primes disjoint from q's -- which are exactly
        the first five 30-bit NTT primes."""
        primes = modmath.ntt_primes(30, 256, 5)
        ring = PolyContext(256, primes)
        aux = ring._aux_basis(1 << 31)
        assert len(aux.primes) == 7
        assert not set(aux.primes) & set(primes)
        assert ring._aux_basis(1 << 31) is aux  # built once per context


class TestBaseConverter:
    @seed(SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from((8, 64)),
        bits=st.sampled_from(PRIME_BITS),
        k=st.integers(min_value=1, max_value=6),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_convert_and_limbs_match_bigint(self, n, bits, k, data_seed):
        ring = PolyContext(n, modmath.ntt_primes(bits, n, k))
        a = _coefficients(ring, np.random.default_rng(data_seed), 3)
        lifted = ring.to_bigint(a)
        centered = ring.to_bigint_centered(a)
        targets = [p for p in modmath.ntt_primes(30, n, k + 4) if p not in ring.primes]
        for lift, is_centered in ((lifted, False), (centered, True)):
            expected = np.stack(
                [(lift % p).astype(np.int64) for p in targets], axis=-2
            )
            got = ring.basis.convert(a, targets, centered=is_centered)
            assert np.array_equal(got, expected)
        if ring.q_fits_int64:
            assert np.array_equal(ring.to_int64_centered(a).astype(object), centered)
        for width in (1, 7, 16, 30):
            count = -(-ring.q.bit_length() // width)
            limbs = ring.basis.limbs(a, width, count)
            mask = (1 << width) - 1
            for i in range(count):
                expected = ((lifted >> (width * i)) & mask).astype(np.int64)
                assert np.array_equal(limbs[i], expected)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_boundary_lifts_center_like_bigint(self, k):
        basis = RnsBasis(modmath.ntt_primes(30, 8, k))
        m = basis.modulus
        values = np.array(_boundary_lifts(m), dtype=object)
        residues = np.stack(
            [(values % p).astype(np.int64) for p in basis.primes], axis=-2
        )[None]
        target = modmath.ntt_primes(20, 8, 1)[0]
        got = basis.convert(residues, [target], centered=True)[0, 0]
        centered = [v - m if v > m // 2 else v for v in _boundary_lifts(m)]
        assert got.tolist() == [c % target for c in centered]
