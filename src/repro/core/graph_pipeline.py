"""The encrypted pipelines' shared inference step: compile, run, report.

Every encrypted pipeline's inference is one compiled graph (see
:mod:`repro.graph`).  :class:`GraphPipeline` owns the part they all
share: fetch the cached compile, open the pipeline span, walk the graph
with :func:`repro.graph.executor.run`, and package the
:class:`~repro.core.results.InferenceResult` -- under the FUSED ->
REFERENCE kernel degradation every pipeline runs under.
"""

from __future__ import annotations

import numpy as np

from repro.core.enclave_service import InferenceEnclave
from repro.core.keyflow import establish_user_keys
from repro.core.results import InferenceResult, stages_from_trace
from repro.faults import EnclaveSupervisor, run_with_kernel_degradation
from repro.graph import executor as graph_executor
from repro.he import kernels
from repro.he.context import Context
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor
from repro.he.evaluator import Evaluator, OperationCounter
from repro.sgx.attestation import AttestationVerificationService, QuotingService
from repro.sgx.enclave import SgxPlatform


class GraphPipeline:
    """Base for pipelines whose inference is one compiled graph.

    Subclasses set ``scheme`` and ``graph_kind`` and provide
    ``quantized``, ``context``, ``tracer``, ``counter``, ``evaluator``,
    ``encoder``, ``encryptor``, ``decryptor``, ``conv_weights`` (or
    :meth:`_conv_blocks`) and ``dense_weights``, plus ``enclave`` when the
    graph crosses; they override :meth:`_runtime` to hand the executor
    anything more.
    """

    scheme = ""
    graph_kind = "hybrid"
    mode = "batched"
    enclave = None

    def _deploy(self, quantized, params, platform, seed, trusted: bool = True) -> None:
        """Stand up the hybrid deployment on one simulated edge server.

        Loads the trusted service under crash supervision (``trusted=False``
        runs the same code, and the same recovery path, with no enclave),
        runs the full Fig. 2 key delivery -- the simulated user attests the
        enclave and receives the key pair over the secure channel -- and
        builds the HE endpoints both sides use.
        """
        self.quantized = quantized
        self.params = params
        self.platform = platform if platform is not None else SgxPlatform()
        self.clock = self.platform.clock
        self.tracer = self.platform.tracer
        self.context = Context(params)
        self.enclave = EnclaveSupervisor(
            self.platform, InferenceEnclave, params, seed, trusted=trusted
        )
        self.enclave.ecall("generate_keys")
        self.quoting = QuotingService(self.platform)
        self.verifier = AttestationVerificationService()
        self.verifier.register_platform(self.quoting)
        entropy = np.random.default_rng(seed).bytes(32)
        user_keys = establish_user_keys(
            self.platform, self.enclave, self.quoting, self.verifier, params, entropy
        )
        self.counter = OperationCounter()
        self.evaluator = Evaluator(self.context, self.counter)
        self.encoder = ScalarEncoder(self.context)
        self.encryptor = Encryptor(
            self.context, user_keys.public, np.random.default_rng(seed)
        )
        self.decryptor = Decryptor(self.context, user_keys.secret)

    def encrypt_images(self, images: np.ndarray):
        """User side: one ciphertext per pixel (the paper's non-SIMD encoding)."""
        pixels = self.quantized.quantize_images(images)
        return self.encryptor.encrypt(self.encoder.encode(pixels))

    def _conv_blocks(self) -> tuple:
        """Encoded conv weights, one entry per conv block."""
        return (self.conv_weights,)

    def _runtime(self, **extra) -> graph_executor.Runtime:
        """The executor's inputs; ``extra`` adds pipeline-specific ones."""
        return graph_executor.Runtime(
            evaluator=self.evaluator,
            encoder=self.encoder,
            conv_weights=self._conv_blocks(),
            dense_weights=self.dense_weights,
            enclave=self.enclave,
            stage=self._stage,
            encryptor=self.encryptor,
            decryptor=self.decryptor,
            scratch=self.__dict__.setdefault("_graph_scratch", {}),
            **extra,
        )

    def _span_attrs(self) -> dict:
        """Extra attributes stamped on the pipeline span."""
        return {}

    @property
    def _side_channel(self):
        return self.enclave.side_channel if self.enclave is not None else None

    def _stage(self, name: str):
        return self.tracer.stage(
            name, counter=self.counter, side_channel=self._side_channel
        )

    def infer(self, images: np.ndarray) -> InferenceResult:
        """One inference; degrades FUSED -> REFERENCE kernels and retries
        once if the runtime equivalence guard trips (identical logits)."""
        return run_with_kernel_degradation(
            self.tracer, self.scheme, lambda: self._infer_once(images)
        )

    def _infer_once(self, images: np.ndarray) -> InferenceResult:
        graph, report = graph_executor.compiled_for(
            self, self.graph_kind, mode=self.mode
        )
        self.graph_report = report
        with self.tracer.span(
            self.scheme,
            kind="pipeline",
            counter=self.counter,
            side_channel=self._side_channel,
            kernel_mode=kernels.active().mode_name,
            graph_opt=report.label,
            batch=int(images.shape[0]),
            **self._span_attrs(),
        ) as trace:
            logits, budget, logits_ct = graph_executor.run(
                graph, self._runtime(), images
            )
        return InferenceResult(
            logits=logits,
            stages=stages_from_trace(trace),
            scheme=self.scheme,
            noise_budget_bits=budget,
            op_counts=dict(self.counter.counts),
            enclave_crossings=trace.crossings,
            trace=trace,
            logits_ct=logits_ct,
        )
