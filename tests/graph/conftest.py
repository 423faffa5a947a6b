"""Graph-optimizer suite fixtures.

The trained tiny models are shared session-wide; each gets a planted
all-zero conv tap column and a few all-zero FC input rows so the
``zero_tap`` bypass has something real to fire on (the stock trained
weights are dense).  Every test starts and ends with the process-wide
optimizer configuration restored to the environment default.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import parameters_for_pipeline, train_paper_models
from repro.graph import optimizer as graph_optimizer


@pytest.fixture(autouse=True)
def pristine_optimizer():
    """Restore the env-default optimizer level around every test here."""
    graph_optimizer.configure(None)
    yield
    graph_optimizer.configure(None)


@pytest.fixture(scope="session")
def models():
    return train_paper_models(
        train_size=300, test_size=60, epochs=4, image_size=10, channels=2, kernel_size=3
    )


def _plant_zeros(quantized):
    """Zero one conv tap column (all filters) and four FC input rows."""
    conv = np.array(quantized.conv_weight)
    conv[:, 0, 0, 0] = 0
    dense = np.array(quantized.dense_weight)
    dense[:4, :] = 0
    return dataclasses.replace(quantized, conv_weight=conv, dense_weight=dense)


@pytest.fixture(scope="session")
def q_hybrid(models):
    return _plant_zeros(models.quantized_sigmoid())


@pytest.fixture(scope="session")
def q_he(models):
    return _plant_zeros(models.quantized_square())


@pytest.fixture(scope="session")
def hybrid_params(q_hybrid):
    return parameters_for_pipeline(q_hybrid, 256)


@pytest.fixture(scope="session")
def he_params(q_he):
    return parameters_for_pipeline(q_he, 256)


@pytest.fixture(scope="session")
def images(models):
    return models.dataset.test_images[:2]


# ----------------------------------------------------------------------
# Synthetic integer models for the SIMD / deep / served paths.  Built from
# seeded integer weights (no training), so ciphertext digests recorded
# from them are reproducible on any machine.  Each plants zero operands
# so the zero_tap bypass has something to fire on.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def q_golden():
    from repro.nn.quantize import QuantizedCNN

    rng = np.random.default_rng(2021)
    conv = rng.integers(-8, 9, size=(2, 2, 3, 3))
    conv[:, 0, 0, 0] = 0
    dense = rng.integers(-8, 9, size=(8, 3))
    dense[:2, :] = 0
    return QuantizedCNN(
        conv_weight=conv,
        conv_bias=rng.integers(-20, 21, size=(2,)),
        dense_weight=dense,
        dense_bias=rng.integers(-20, 21, size=(3,)),
        input_scale=15,
        conv_weight_scale=4.0,
        dense_weight_scale=4.0,
        act_scale=15,
        activation="sigmoid",
        pool="mean",
        pool_window=2,
    )


@pytest.fixture(scope="session")
def q_golden_deep():
    from repro.nn.deep import DeepQuantizedCNN, QuantizedConvBlock

    rng = np.random.default_rng(2022)
    first = rng.integers(-8, 9, size=(2, 1, 3, 3))
    first[:, 0, 0, 0] = 0
    blocks = [
        QuantizedConvBlock(
            weight=first,
            bias=rng.integers(-20, 21, size=(2,)),
            weight_scale=4.0,
            stride=1,
            activation="sigmoid",
            pool="mean",
            pool_window=2,
            act_scale=15,
        ),
        QuantizedConvBlock(
            weight=rng.integers(-8, 9, size=(2, 2, 3, 3)),
            bias=rng.integers(-20, 21, size=(2,)),
            weight_scale=4.0,
            stride=1,
            activation="tanh",
            pool="max",
            pool_window=2,
            act_scale=15,
        ),
    ]
    return DeepQuantizedCNN(
        blocks=blocks,
        dense_weight=rng.integers(-8, 9, size=(2, 3)),
        dense_bias=rng.integers(-20, 21, size=(3,)),
        dense_weight_scale=4.0,
        input_scale=15,
    )


@pytest.fixture(scope="session")
def golden_images():
    """Three 2-channel 6x6 images for ``q_golden``."""
    return np.random.default_rng(2023).integers(0, 256, size=(3, 2, 6, 6), dtype=np.uint8)


@pytest.fixture(scope="session")
def golden_deep_images():
    """Two 1-channel 10x10 images for ``q_golden_deep``."""
    return np.random.default_rng(2024).integers(0, 256, size=(2, 1, 10, 10), dtype=np.uint8)


@pytest.fixture(scope="session")
def golden_batching_params(q_golden):
    return parameters_for_pipeline(q_golden, 256, batching=True)


@pytest.fixture(scope="session")
def golden_deep_params(q_golden_deep):
    return parameters_for_pipeline(q_golden_deep, 256)


@dataclasses.dataclass
class PathRun:
    """What one inference path produced, in comparable form."""

    logits: np.ndarray
    logits_ct: list  # serialized logits ciphertext(s), one per response
    ops: dict  # op tallies of this inference alone
    stages: list  # stage span names of the inference's pipeline trace
    next_draw: int  # the client encryptor's next RNG draw afterwards
    owner: object = None


def _ops_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def _run_pipeline(pipe, images) -> PathRun:
    from repro.he.serialize import serialize_ciphertext

    seen = []
    budget = pipe.decryptor.invariant_noise_budget

    def capture(ct):
        seen.append(ct)
        return budget(ct)

    pipe.decryptor.invariant_noise_budget = capture
    before = dict(pipe.counter.counts)
    res = pipe.infer(images)
    return PathRun(
        logits=res.logits,
        logits_ct=[serialize_ciphertext(seen[-1])],
        ops=_ops_delta(before, pipe.counter.counts),
        stages=[s.name for s in res.stages],
        next_draw=int(pipe.encryptor.rng.integers(2**62)),
        owner=pipe,
    )


def _enrolled(server, model_name, quantized):
    from repro.sgx import AttestationVerificationService

    server.provision_model(model_name, quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    session = server.enroll_user(entropy=b"\x07" * 32, verifier=verifier)
    session.encryptor.rng = np.random.default_rng(43)
    return session


@pytest.fixture(scope="session")
def golden_paths(
    q_golden,
    q_golden_deep,
    golden_images,
    golden_deep_images,
    golden_batching_params,
    golden_deep_params,
):
    """name -> zero-argument runner for the SIMD, deep, direct-served and
    packed-served (``ServingLoop``) paths at fixed seeds."""
    from repro.core import DeepHybridPipeline, EdgeServer, SimdHybridPipeline
    from repro.he.serialize import serialize_ciphertext
    from repro.serve import InferenceRequest, LoopConfig, ServingLoop

    def simd():
        pipe = SimdHybridPipeline(q_golden, golden_batching_params, seed=31)
        return _run_pipeline(pipe, golden_images)

    def deep():
        pipe = DeepHybridPipeline(q_golden_deep, golden_deep_params, seed=37)
        return _run_pipeline(pipe, golden_deep_images)

    def direct():
        server = EdgeServer(golden_batching_params, seed=41)
        session = _enrolled(server, "golden", q_golden)
        ct = session.encrypt("golden", golden_images[:2])
        before = dict(server.counter.counts)
        result = server.infer(InferenceRequest(model="golden", ciphertext=ct))
        return PathRun(
            logits=session.decrypt_logits(result),
            logits_ct=[serialize_ciphertext(result.logits_ct)],
            ops=_ops_delta(before, server.counter.counts),
            stages=[s.name for s in result.timing.stages],
            next_draw=int(session.encryptor.rng.integers(2**62)),
            owner=server,
        )

    def packed():
        server = EdgeServer(golden_batching_params, seed=47)
        session = _enrolled(server, "golden", q_golden)
        loop = ServingLoop(server, LoopConfig())
        tickets = [
            loop.submit(
                "golden", session.encrypt("golden", golden_images[i : i + 1]),
                at_s=0.001 * i,
            )
            for i in range(3)
        ]
        before = dict(server.counter.counts)
        loop.run()
        results = [t.result() for t in tickets]
        assert {r.packed_batch for r in results} == {3}
        return PathRun(
            logits=np.concatenate([session.decrypt_logits(r) for r in results]),
            logits_ct=[serialize_ciphertext(r.logits_ct) for r in results],
            ops=_ops_delta(before, server.counter.counts),
            stages=[s.name for s in results[0].timing.stages],
            next_draw=int(session.encryptor.rng.integers(2**62)),
            owner=server,
        )

    return {"simd": simd, "deep": deep, "direct": direct, "packed": packed}
