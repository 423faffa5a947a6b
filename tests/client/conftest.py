"""Client-SDK fixtures: a fleet-backed edge deployment plus a trusting
verifier, mirroring the serving-layer fixtures (batching-capable params,
dimensionally reduced models)."""

from __future__ import annotations

import pytest

from repro.core import EdgeServer, parameters_for_pipeline, train_paper_models
from repro.sgx import AttestationVerificationService


@pytest.fixture(scope="session")
def models():
    return train_paper_models(
        train_size=300, test_size=60, epochs=4, image_size=10, channels=2, kernel_size=3
    )


@pytest.fixture(scope="session")
def q_sigmoid(models):
    return models.quantized_sigmoid()


@pytest.fixture(scope="session")
def batching_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256, batching=True)


@pytest.fixture()
def verifier_for():
    def make(srv):
        service = AttestationVerificationService()
        service.register_platform(srv.quoting)
        return service

    return make


@pytest.fixture()
def make_server(batching_params, q_sigmoid):
    def build(fleet_size=1, seed=13, max_batch=None):
        srv = EdgeServer(
            batching_params, seed=seed, max_batch=max_batch, fleet_size=fleet_size
        )
        srv.provision_model("digits", q_sigmoid)
        return srv

    return build
