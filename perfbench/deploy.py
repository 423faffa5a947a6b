"""The benchmark's deployment: one small model, built the way a user would.

Every workload uses the same grounding deployment: the CNN that
``benchmarks/bench_graph_optimizer.py --smoke`` trains (10x10x2 images,
3x3 kernels), quantized, with FV parameters auto-sized at n = 256 by
``parameters_for_pipeline`` inside ``build_pipeline`` /
``EdgeServer.from_spec``.  The deployment seed is fixed, so every run
serves the same model under the same server keys; the workload seed only
chooses the inputs and the client's randomness (see :class:`Inputs`).

:func:`set_up` is what ``setup_s`` times.  It returns the ready
deployment together with the wall time of each of its phases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.client import AttestedClient
from repro.core import EdgeServer, PipelineSpec, PlaintextPipeline, build_pipeline, train_paper_models
from repro.graph import executor as graph_executor
from repro.sgx import AttestationVerificationService

TRAIN = dict(train_size=300, test_size=60, epochs=2, image_size=10, channels=2, kernel_size=3)
POLY_DEGREE = 256
DEPLOY_SEED = 13
MODEL = "digits"
#: Slot-group size of the served-stream server's packed flushes.
MAX_BATCH = 8


@dataclass
class Deployment:
    kind: str
    quantized: object
    images: np.ndarray
    expected: np.ndarray
    pipe: object = None
    server: EdgeServer | None = None
    client: AttestedClient | None = None
    phases_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    #: The served-stream workload's timing wrapper around ``run_batch``.
    flush_timer: object = None

    @property
    def clock(self):
        return self.server.platform.clock if self.server is not None else self.pipe.clock

    @property
    def counter(self):
        return self.server.counter if self.server is not None else self.pipe.counter

    @property
    def side_channel(self):
        if self.server is not None:
            return self.server.enclave.side_channel
        enclave = getattr(self.pipe, "enclave", None)
        return enclave.side_channel if enclave is not None else None


class Inputs:
    """Everything the workload seed decides, as independent streams.

    Two ``Inputs`` built from one seed produce identical draws, so an
    untraced and a traced phase can replay the same requests.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.n_images = TRAIN["test_size"]
        self._pick = np.random.default_rng([seed, 1])
        self._drawn: list[np.ndarray] = []

    def indices(self, i: int, batch: int) -> np.ndarray:
        """Test-set indices of request ``i`` (``batch`` distinct images)."""
        while len(self._drawn) <= i:
            self._drawn.append(self._pick.choice(self.n_images, size=batch, replace=False))
        return self._drawn[i]

    def entropy(self) -> bytes:
        """The client's key-exchange entropy."""
        return np.random.default_rng([self.seed, 2]).bytes(32)

    def encryption_rng(self) -> np.random.Generator:
        """The client's encryption randomness."""
        return np.random.default_rng([self.seed, 3])

    def trace_seed(self, round_no: int) -> int:
        return int(np.random.default_rng([self.seed, 4, round_no]).integers(2**31))

    def image_pool(self, size: int) -> np.ndarray:
        return np.random.default_rng([self.seed, 5]).choice(self.n_images, size=size, replace=False)


def set_up(kind: str, inputs: Inputs) -> Deployment:
    """Train, quantize, size, build and (where a client enrolls) establish
    one deployment; the graph is compiled ahead of the first request.

    ``kind`` is ``"server"`` (direct ``EdgeServer``), ``"served"`` (with a
    packing scheduler), ``"hybrid"`` or ``"cryptonets"`` (pipelines).
    """
    phases: dict[str, float] = {}
    start = time.perf_counter()

    t = time.perf_counter()
    models = train_paper_models(**TRAIN)
    quantized = models.quantized_square() if kind == "cryptonets" else models.quantized_sigmoid()
    phases["nn.train"] = time.perf_counter() - t

    t = time.perf_counter()
    pipe = server = None
    if kind in ("server", "served"):
        spec = PipelineSpec(
            scheme="hybrid",
            poly_degree=POLY_DEGREE,
            max_batch=MAX_BATCH if kind == "served" else None,
        )
        server = EdgeServer.from_spec(spec, seed=DEPLOY_SEED, sizing_model=quantized)
        server.provision_model(MODEL, quantized)
    else:
        pipe = build_pipeline(kind, quantized, poly_degree=POLY_DEGREE, seed=DEPLOY_SEED)
    phases["core.build"] = time.perf_counter() - t

    client = None
    t = time.perf_counter()
    if server is not None:
        verifier = AttestationVerificationService()
        verifier.register_platform(server.quoting)
        client = AttestedClient(server, verifier, inputs.entropy()).establish()
        client.session.encryptor.rng = inputs.encryption_rng()
    else:
        # The pipeline plays the user too; its encryptor is the client's.
        pipe.encryptor.rng = inputs.encryption_rng()
    phases["client.establish"] = time.perf_counter() - t

    t = time.perf_counter()
    if pipe is not None:
        graph_executor.compiled_for(pipe, kind)
    phases["graph.compile"] = time.perf_counter() - t

    wall = time.perf_counter() - start
    images = models.dataset.test_images
    return Deployment(
        kind=kind,
        quantized=quantized,
        images=images,
        expected=PlaintextPipeline(quantized).infer(images).logits,
        pipe=pipe,
        server=server,
        client=client,
        phases_s=phases,
        wall_s=wall,
    )
