"""RNS arithmetic in the ciphertext ring ``R_q = Z_q[x] / (x^n + 1)``.

The coefficient modulus ``q`` is a product of word-size NTT-friendly primes.
A ring element is stored as an int64 numpy array of per-prime residues with
shape ``(..., k, n)`` where ``k = len(primes)``; leading axes batch many
polynomials so whole ciphertext images can be processed in single numpy
calls.  Elements exist in either *coefficient* or *NTT (evaluation)* domain;
the domain is tracked by the caller (see :class:`repro.he.context.Ciphertext`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.he import kernels, modmath
from repro.he.ntt import NttPlan, StackedNttPlan, negacyclic_convolve_exact

#: Elementwise cap on chunked fused multiply-reduce intermediates (~256 MB).
_MUL_SUM_CHUNK_ELEMS = 1 << 25


def _mod_inplace(x: np.ndarray, p: int) -> None:
    """``x %= p`` in place, as ``x -= (x // p) * p``: numpy's floor division
    by a scalar is several times faster than its remainder, and the floor
    makes the result the same nonnegative residue."""
    q = x // p
    q *= p
    x -= q


class RnsBasis:
    """Exact int64 conversion of residues out of one RNS basis.

    Residues ``r_i = x mod m_i`` (primes ``m_i < 2^31``, shape ``(..., k,
    n)``) determine Garner's mixed-radix digits of the lift
    ``x in [0, M)``::

        x = d_0 + d_1 m_0 + d_2 m_0 m_1 + ... ,   0 <= d_i < m_i

    Each digit is ``(r_i - [d_0 + ... + d_{i-1} m_0..m_{i-2}]_{m_i}) *
    (m_0..m_{i-1})^-1 mod m_i``, with the bracket evaluated by Horner's rule
    mod ``m_i``: every product is below ``2^62``, so no step leaves int64
    whatever the size of ``M``.  From the digits:

    * :meth:`convert` evaluates the lift modulo the primes of another basis
      (Horner again), optionally centered into ``(-M/2, M/2]`` -- the
      comparison with ``floor(M/2)`` runs on the digits, most significant
      first;
    * :meth:`PolyContext.to_int64_centered` is the one-word case
      ``M < 2^62``, where the plain Horner sum is the lift itself;
    * :meth:`limbs` cuts the lift into base-``2^bits`` digits.
    """

    def __init__(self, primes: Sequence[int]) -> None:
        self.primes = [int(p) for p in primes]
        self.k = len(self.primes)
        self.modulus = modmath.product(self.primes)
        # inv_i = (m_0 ... m_{i-1})^-1 mod m_i
        self._invs = [
            modmath.invert_mod(modmath.product(self.primes[:i]) % p, p)
            for i, p in enumerate(self.primes)
        ]
        half = self.modulus // 2
        self._half_digits = []
        for p in self.primes:
            half, digit = divmod(half, p)
            self._half_digits.append(digit)

    def digits(self, a: np.ndarray) -> list[np.ndarray]:
        """Mixed-radix digits ``[d_0, ..., d_{k-1}]`` (each ``(..., n)``) of
        the ``[0, M)`` lift of residues ``a`` of shape ``(..., k, n)``."""
        out = [a[..., 0, :].astype(np.int64)]
        for i in range(1, self.k):
            d = a[..., i, :] - self._horner(out, self.primes[i])
            d *= self._invs[i]  # |r_i - h| < 2^31, inverse < 2^31
            _mod_inplace(d, self.primes[i])
            out.append(d)
        return out

    def _horner(self, digits: list[np.ndarray], p: int) -> np.ndarray:
        """``sum_j d_j * m_0..m_{j-1}`` over ``digits``, reduced mod ``p``
        after every step; a single digit is returned as is (unreduced,
        < 2^31, and not a copy)."""
        acc = digits[-1]
        for j in range(len(digits) - 2, -1, -1):
            acc = acc * self.primes[j]
            acc += digits[j]
            _mod_inplace(acc, p)
        return acc

    def _above_half(self, digits: list[np.ndarray]) -> np.ndarray:
        """Mask of lifts ``> floor(M/2)``: digit-wise comparison, most
        significant digit first."""
        half = self._half_digits
        above = digits[-1] > half[-1]
        equal = digits[-1] == half[-1]
        for i in range(self.k - 2, -1, -1):
            above |= equal & (digits[i] > half[i])
            equal &= digits[i] == half[i]
        return above

    def convert(
        self, a: np.ndarray, primes: Sequence[int], centered: bool
    ) -> np.ndarray:
        """Residues of the exact lift of ``a`` modulo each of ``primes``.

        The lift is ``[0, M)`` or, if ``centered``, ``(-M/2, M/2]``; output
        shape ``(..., len(primes), n)``, residues in ``[0, p)``.
        """
        digits = self.digits(a)
        above = self._above_half(digits) if centered else None
        out = np.empty((*a.shape[:-2], len(primes), a.shape[-1]), dtype=np.int64)
        for j, p in enumerate(primes):
            acc = self._horner(digits, p)
            if self.k == 1:
                acc = acc % p
            if above is not None:
                np.subtract(acc, self.modulus % p, out=acc, where=above)
                acc += (acc >> 63) & p
            out[..., j, :] = acc
        return out

    def limbs(self, a: np.ndarray, bits: int, count: int) -> np.ndarray:
        """The lowest ``count`` base-``2^bits`` digits of the ``[0, M)``
        lift (``bits <= 30``), shape ``(count, ..., n)``.

        Horner's rule over the mixed-radix digits, on ``bits``-bit int64
        limbs with the carry propagated after every step: a normalized limb
        times a prime stays below ``2^61``.  Only limbs the partial lift
        can reach (its bound is the product of the primes consumed so far)
        are touched.
        """
        digits = self.digits(a)
        mask = (1 << bits) - 1
        total = max(count, -(-self.modulus.bit_length() // bits))
        out = np.zeros((total, *digits[0].shape), dtype=np.int64)
        out[0] = digits[-1]
        bound = self.primes[-1]
        active = 1
        for j in range(self.k - 1, -1, -1):
            if j < self.k - 1:
                out[:active] *= self.primes[j]
                out[0] += digits[j]
                bound *= self.primes[j]
            reach = -(-bound.bit_length() // bits)
            for limb in range(reach - 1):
                out[limb + 1] += out[limb] >> bits
                out[limb] &= mask
            active = reach
        return out[:count]


def _tensor(mul, add, x: np.ndarray, y: np.ndarray | None) -> np.ndarray:
    """``[x0 y0, x0 y1 + x1 y0, x1 y1]`` stacked on axis -3 for NTT-domain
    size-2 tensors ``(..., 2, k, n)``; ``y=None`` squares ``x``."""
    x0, x1 = x[..., 0, :, :], x[..., 1, :, :]
    if y is None:
        cross = mul(x0, x1)
        parts = [mul(x0, x0), add(cross, cross), mul(x1, x1)]
    else:
        y0, y1 = y[..., 0, :, :], y[..., 1, :, :]
        parts = [mul(x0, y0), add(mul(x0, y1), mul(x1, y0)), mul(x1, y1)]
    return np.stack(parts, axis=-3)


class PolyContext:
    """Vectorized RNS polynomial arithmetic for a fixed ``(n, primes)`` pair.

    Args:
        n: polynomial degree, a power of two.
        primes: distinct NTT-friendly primes (each ``≡ 1 mod 2n``, < 2^31)
            whose product is the coefficient modulus ``q``.
    """

    def __init__(self, n: int, primes: Sequence[int]) -> None:
        if len(set(primes)) != len(primes):
            raise ParameterError("coefficient primes must be distinct")
        self.n = n
        self.primes = np.array(sorted(primes), dtype=np.int64)
        self.k = len(primes)
        self.q = modmath.product(primes)
        self.plans = [NttPlan(n, int(p)) for p in self.primes]
        self.stacked = StackedNttPlan(n, self.primes, plans=self.plans)
        self._p_col = self.primes.reshape(self.k, 1)
        self._prime_list = [int(p) for p in self.primes]
        self._p_max = max(self._prime_list)
        # Deferred-reduction overflow bound: a sum of fully reduced residues
        # (each < p_max < 2^31) stays int64-exact for up to this many terms;
        # reduce_sum / pointwise_mul_sum enforce it.
        self.max_sum_terms = ((1 << 63) - 1) // (self._p_max - 1)
        # Per-value scalar residue cache (mul_scalar / from_scalar): weights,
        # Delta and bias constants recur across every inference.
        self._scalar_cache: dict[int, np.ndarray] = {}
        # CRT lift weights: w_i = (q / p_i) * inv(q / p_i, p_i), so that
        # value = sum(r_i * w_i) mod q.
        self._crt_weights = np.array(
            [
                (self.q // int(p)) * modmath.invert_mod(self.q // int(p), int(p))
                for p in self.primes
            ],
            dtype=object,
        )
        # Exact int64 conversions out of this basis (Garner digits), and the
        # lazily built auxiliary basis of the RNS tensor product, per t.
        self.basis = RnsBasis(self._prime_list)
        self.q_fits_int64 = self.q < (1 << 62)
        self._aux: dict[int, _AuxBasis] = {}

    # ------------------------------------------------------------------
    # construction / sampling
    # ------------------------------------------------------------------
    def zeros(self, *leading: int) -> np.ndarray:
        """A zero element (or batch of them) in RNS form."""
        return np.zeros((*leading, self.k, self.n), dtype=np.int64)

    def from_int_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Reduce integer coefficients (shape ``(..., n)``, possibly signed
        Python bigints) into RNS residues of shape ``(..., k, n)``."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.n:
            raise ParameterError(f"expected degree {self.n}, got {coeffs.shape[-1]}")
        out = np.empty((*coeffs.shape[:-1], self.k, self.n), dtype=np.int64)
        if coeffs.dtype == object:
            for i, p in enumerate(self.primes):
                out[..., i, :] = (coeffs % int(p)).astype(np.int64)
        else:
            coeffs = coeffs.astype(np.int64)
            for i, p in enumerate(self.primes):
                out[..., i, :] = coeffs % int(p)
        return out

    def scalar_residues(self, value: int) -> np.ndarray:
        """Cached, read-only ``(k, 1)`` residue column of an integer scalar."""
        value = int(value)
        cached = self._scalar_cache.get(value)
        if cached is None:
            if len(self._scalar_cache) > 4096:
                self._scalar_cache.clear()
            cached = np.array(
                [value % p for p in self._prime_list], dtype=np.int64
            ).reshape(self.k, 1)
            cached.flags.writeable = False
            self._scalar_cache[value] = cached
        return cached

    def from_scalar(self, value: int) -> np.ndarray:
        """Constant polynomial ``value`` in RNS form."""
        out = self.zeros()
        out[:, 0] = self.scalar_residues(value)[:, 0]
        return out

    def sample_uniform(self, rng: np.random.Generator, *leading: int) -> np.ndarray:
        """Uniform element of R_q (independent residue per prime)."""
        out = np.empty((*leading, self.k, self.n), dtype=np.int64)
        for i, p in enumerate(self.primes):
            out[..., i, :] = rng.integers(0, int(p), size=(*leading, self.n))
        return out

    def sample_noise(
        self, rng: np.random.Generator, stddev: float, *leading: int
    ) -> np.ndarray:
        """Truncated discrete Gaussian error polynomial (the scheme's chi)."""
        bound = int(6 * stddev)
        raw = np.rint(rng.normal(0.0, stddev, size=(*leading, self.n))).astype(np.int64)
        np.clip(raw, -bound, bound, out=raw)
        return self.from_signed_small(raw)

    def sample_ternary(self, rng: np.random.Generator, *leading: int) -> np.ndarray:
        """Uniform ternary polynomial with coefficients in {-1, 0, 1}."""
        raw = rng.integers(-1, 2, size=(*leading, self.n)).astype(np.int64)
        return self.from_signed_small(raw)

    def from_signed_small(self, coeffs: np.ndarray) -> np.ndarray:
        """RNS form of small signed int64 coefficients (|c| < min prime)."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if not kernels.active().lazy_reduction:
            return coeffs[..., None, :] % self._p_col
        # |c| < p, so one branch-free conditional add replaces the division:
        # (c >> 63) is an all-ones mask exactly for negative coefficients.
        out = np.empty((*coeffs.shape[:-1], self.k, self.n), dtype=np.int64)
        neg = (coeffs >> 63)
        for i, p in enumerate(self._prime_list):
            out[..., i, :] = coeffs + (neg & p)
        return out

    # ------------------------------------------------------------------
    # ring operations (domain-agnostic: valid in both coeff and NTT form)
    # ------------------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not kernels.active().lazy_reduction:
            return (a + b) % self._p_col
        # Conditional subtract: inputs are reduced residues in [0, p), so the
        # sum is in [0, 2p) and one subtract-and-fixup replaces the division
        # of a full ``%``.  (s >> 63) is an all-ones mask exactly when the
        # speculative subtraction went negative.
        s = a + b
        s -= self._p_col
        s += (s >> 63) & self._p_col
        return s

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not kernels.active().lazy_reduction:
            return (a - b) % self._p_col
        d = a - b  # in (-p, p); one conditional add restores [0, p)
        d += (d >> 63) & self._p_col
        return d

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (-a) % self._p_col

    def mul_scalar(self, a: np.ndarray, value: int) -> np.ndarray:
        out = a * self.scalar_residues(value)
        return self._reduce_product(out)

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise product; this is ring multiplication iff both
        operands are in NTT domain."""
        return self._reduce_product(a * b)

    def _reduce_product(self, prod: np.ndarray) -> np.ndarray:
        """Reduce a freshly materialized ``(..., k, n)`` product in place.

        Under lazy-reduction kernels each prime's plane is reduced with a
        scalar modulus (measurably faster than one broadcast array ``%``);
        the reference profile keeps the broadcast form.  Same values either
        way."""
        if not kernels.active().lazy_reduction:
            return prod % self._p_col
        for i, p in enumerate(self._prime_list):
            prod[..., i, :] %= p
        return prod

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Sum a batch of ring elements along one leading (batch) axis.

        Equivalent to folding :meth:`add` over that axis but performed as a
        single numpy reduction with one trailing ``%``: fully reduced
        residues are < 2^31, so up to :attr:`max_sum_terms` (>= 2^32) terms
        accumulate exactly in int64 before the deferred reduction.
        """
        axis = axis % a.ndim
        if axis >= a.ndim - 2:
            raise ParameterError(
                "reduce_sum operates on batch axes; the trailing two axes "
                "are the RNS residue and coefficient dimensions"
            )
        if a.shape[axis] > self.max_sum_terms:
            raise ParameterError(
                f"deferred reduction overflow: summing {a.shape[axis]} residues "
                f"< {self._p_max} exceeds int64 (max {self.max_sum_terms} terms)"
            )
        return np.add.reduce(a, axis=axis) % self._p_col

    def pointwise_mul_sum(self, a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
        """Fused ``reduce_sum(pointwise_mul(a, b), axis)`` with bounded memory.

        The broadcast product is materialized in chunks along ``axis``; each
        chunk's products are reduced mod p (products of two residues can
        reach ~2^62, so they cannot be accumulated lazily) and the reduced
        terms -- each < p_max < 2^31 -- are summed exactly in int64 with one
        trailing ``%`` per prime.  This is the conv/dense tap-batch kernel:
        one multiply pass + one reduction instead of a Python loop of
        ``multiply_plain`` / ``add`` allocations.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        out_shape = np.broadcast_shapes(a.shape, b.shape)
        axis = axis % len(out_shape)
        if axis >= len(out_shape) - 2:
            raise ParameterError(
                "pointwise_mul_sum reduces a batch axis; the trailing two "
                "axes are the RNS residue and coefficient dimensions"
            )
        terms = out_shape[axis]
        if terms > self.max_sum_terms:
            raise ParameterError(
                f"deferred reduction overflow: summing {terms} residues "
                f"< {self._p_max} exceeds int64 (max {self.max_sum_terms} terms)"
            )
        slice_elems = 1
        for i, dim in enumerate(out_shape):
            if i != axis:
                slice_elems *= dim
        chunk = max(1, _MUL_SUM_CHUNK_ELEMS // max(1, slice_elems))
        a_full = np.broadcast_to(a, out_shape)
        b_full = np.broadcast_to(b, out_shape)
        index: list = [slice(None)] * len(out_shape)
        acc: np.ndarray | None = None
        for start in range(0, terms, chunk):
            index[axis] = slice(start, start + chunk)
            prod = a_full[tuple(index)] * b_full[tuple(index)]
            for i, p in enumerate(self._prime_list):
                prod[..., i, :] %= p
            partial = np.add.reduce(prod, axis=axis)
            acc = partial if acc is None else acc + partial
        assert acc is not None  # terms >= 1 always holds for layer kernels
        return acc % self._p_col

    # ------------------------------------------------------------------
    # domain conversion
    # ------------------------------------------------------------------
    def ntt(self, a: np.ndarray) -> np.ndarray:
        if kernels.active().stacked_ntt:
            return self.stacked.forward(a)
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.forward(a[..., i, :])
        return out

    def intt(self, a: np.ndarray) -> np.ndarray:
        if kernels.active().stacked_ntt:
            return self.stacked.inverse(a)
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.inverse(a[..., i, :])
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ring multiplication of coefficient-domain operands."""
        return self.intt(self.pointwise_mul(self.ntt(a), self.ntt(b)))

    # ------------------------------------------------------------------
    # exact RNS tensor product (fused kernels)
    # ------------------------------------------------------------------
    def _aux_basis(self, t: int) -> "_AuxBasis":
        """The tensor product's auxiliary basis for plaintext modulus ``t``,
        built on first use."""
        aux = self._aux.get(t)
        if aux is None:
            aux = self._aux[t] = _AuxBasis(self, t)
        return aux

    def tensor_product(
        self,
        a: tuple[np.ndarray, np.ndarray],
        b: tuple[np.ndarray, np.ndarray] | None,
        t: int,
    ) -> np.ndarray:
        """FV tensor product ``round(t/q * (a (x) b))`` computed in RNS.

        ``a`` and ``b`` are size-2 ciphertext tensors given as ``(ntt,
        coeff)`` pairs of shape ``(..., 2, k, n)``; ``b=None`` squares
        ``a`` (three products instead of four, one auxiliary NTT).  Returns
        the size-3 coefficient-domain result, broadcast over the batch axes
        and bit-identical to :meth:`scale_and_round` of
        :meth:`convolve_exact` over the centered lifts.

        With ``h = (q-1)/2`` (``q`` is odd) the sign-symmetric rounding is
        ``Q = floor((t c + h) / q)``.  ``c mod q_i`` comes from NTT-domain
        products and ``c mod p_j`` from the centered lifts converted to the
        auxiliary basis.  ``R = [t c + h]_q`` is lifted exactly into that
        basis, where ``Q = (t c + h - R) q^-1``; ``Q``'s centered lift is
        converted back to the ``q`` basis.
        """
        aux = self._aux_basis(t)

        def to_aux(coeff: np.ndarray) -> np.ndarray:
            centered = self.basis.convert(coeff, aux.primes, centered=True)
            return aux.plan.forward(centered)

        a_aux = to_aux(a[1])
        b_aux = None if b is None else to_aux(b[1])
        c_aux = aux.plan.inverse(_tensor(aux.mul, aux.add, a_aux, b_aux))
        del a_aux, b_aux
        c_q = self.intt(
            _tensor(self.pointwise_mul, self.add, a[0], None if b is None else b[0])
        )
        h = self.q // 2
        r_q = self.add(self.mul_scalar(c_q, t), self.scalar_residues(h))
        del c_q
        r_aux = self.basis.convert(r_q, aux.primes, centered=False)
        # Q = (t c + h - R) q^-1 mod p_j, in place of c_aux: t c < p^2 and
        # |h - R| < p.
        for j, (p, t_j, h_j, q_inv_j) in enumerate(aux.constants):
            row = c_aux[..., j, :]
            row *= t_j
            row += h_j
            row -= r_aux[..., j, :]
            _mod_inplace(row, p)
            row *= q_inv_j
            _mod_inplace(row, p)
        return aux.basis.convert(c_aux, self._prime_list, centered=True)

    # ------------------------------------------------------------------
    # big-integer bridge (reference decrypt, tensor product, relin digits)
    # ------------------------------------------------------------------
    def to_bigint(self, a: np.ndarray) -> np.ndarray:
        """CRT-lift RNS residues to object-array coefficients in ``[0, q)``.

        Input shape ``(..., k, n)`` -> output shape ``(..., n)``.
        """
        acc = np.zeros((*a.shape[:-2], self.n), dtype=object)
        for i in range(self.k):
            acc = acc + a[..., i, :].astype(object) * self._crt_weights[i]
        return acc % self.q

    def to_bigint_centered(self, a: np.ndarray) -> np.ndarray:
        """Like :meth:`to_bigint` but mapped into ``(-q/2, q/2]``."""
        lifted = self.to_bigint(a)
        return np.where(lifted > self.q // 2, lifted - self.q, lifted)

    def to_int64_centered(self, a: np.ndarray) -> np.ndarray:
        """Exact centered CRT lift as int64 (requires ``q < 2^62``).

        The one-word case of :class:`RnsBasis` -- its Garner digits summed
        in int64, no object-dtype arithmetic.  Bit-identical (after
        ``astype(object)``) to :meth:`to_bigint_centered`.
        """
        if not self.q_fits_int64:
            raise ParameterError(
                f"q has {self.q.bit_length()} bits; the int64 CRT lift "
                "requires q < 2^62 (use to_bigint_centered)"
            )
        digits = self.basis.digits(a)
        acc = digits[-1]
        for j in range(self.k - 2, -1, -1):
            acc = acc * self._prime_list[j]  # partial lifts stay below q < 2^62
            acc += digits[j]
        return np.where(acc > self.q // 2, acc - self.q, acc)

    def convolve_exact(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact signed negacyclic convolution of centered bigint coefficient
        arrays (used by the FV tensor product)."""
        return negacyclic_convolve_exact(a, b, self.n, self.q // 2 + 1)

    def scale_and_round(self, coeffs: np.ndarray, numer: int, denom: int) -> np.ndarray:
        """Round ``coeffs * numer / denom`` to nearest integer and reduce to RNS.

        Implements FV's ``round(t/q * .)`` step on exact integer coefficients.
        """
        scaled = coeffs * numer
        half = denom // 2
        rounded = np.where(
            scaled >= 0, (scaled + half) // denom, -((-scaled + half) // denom)
        )
        return self.from_int_coeffs(rounded)


class _AuxBasis:
    """Auxiliary NTT primes of :meth:`PolyContext.tensor_product`.

    The primes are disjoint from ``q``'s and their product ``M`` exceeds
    ``2 (t max|c| / q + 1)``, where ``max|c| = 2n (q/2)^2`` bounds the
    ``c1`` cross term, so the centered lift of the rounded quotient is
    exact.  Holds their stacked NTT plan and the per-prime constants of
    the quotient step.
    """

    def __init__(self, ring: PolyContext, t: int) -> None:
        q = ring.q
        half = q // 2
        bound = 2 * (t * 2 * ring.n * half * half // q + 2)
        own = set(ring._prime_list)
        # Each 30-bit NTT prime exceeds 2^29; q's own primes may be skipped.
        wanted = bound.bit_length() // 29 + 1 + ring.k
        candidates = modmath.ntt_primes(30, ring.n, wanted)
        primes: list[int] = []
        for p in candidates:
            if p not in own:
                primes.append(p)
                if modmath.product(primes) > bound:
                    break
        self.primes = primes
        self.basis = RnsBasis(primes)
        self.plan = StackedNttPlan(ring.n, primes)
        self.col = np.array(primes, dtype=np.int64).reshape(-1, 1)
        #: Per prime: ``(p, t mod p, h mod p, q^-1 mod p)``.
        self.constants = [
            (p, t % p, half % p, modmath.invert_mod(q % p, p)) for p in primes
        ]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        prod = x * y
        for j, p in enumerate(self.primes):
            _mod_inplace(prod[..., j, :], p)
        return prod

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s = x + y
        s -= self.col
        s += (s >> 63) & self.col
        return s
