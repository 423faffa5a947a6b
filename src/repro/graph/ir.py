"""Inference-graph IR over ``repro.core.heops``.

The paper's pipelines are short linear chains, so the IR is deliberately
small: a list of :class:`GraphNode` objects (encrypt, pack, conv, enclave
crossing, square/relinearize/pool, fc, unpack, decrypt) plus a ``meta``
dict holding the model and the model-derived constants every pass needs
(tap matrices, weight norms, the plaintext bound, the largest coefficient
prime).  Edges are implicit — node ``i`` feeds node ``i + 1`` — and each
node carries the multiplicative level plus noise annotations
(:func:`annotate`) derived from :class:`repro.he.noise.NoiseEstimator`,
which is what lets passes reason about headroom (e.g. how many
coefficients a packed crossing may fold) without touching ciphertexts.

Besides the pass-owned rewrite knobs, two structural attrs are set by the
builders and never rewritten: ``layout="slots"`` marks encrypt, crossing
and decrypt nodes that work on CRT slot-packed ciphertexts (absent means
one value per ciphertext), and ``block=i`` ties a conv/crossing node of a
multi-block graph to the model's ``i``-th conv block.  A graph without an
``encrypt`` node starts from a client ciphertext (the served paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import PipelineError
from repro.he.noise import NoiseEstimator
from repro.he.params import EncryptionParams


@dataclass
class GraphNode:
    """One operation in the linear inference chain.

    Attributes:
        op: semantic opcode (``encrypt``/``pack``/``conv``/``crossing``/
            ``square``/``relinearize``/``pool``/``fc``/``unpack``/``decrypt``).
        stage: trace stage name the executor emits for this node (kept
            equal to the pre-IR pipelines so traces stay comparable).
        attrs: pass-owned rewrite knobs, every one defaulting to the
            reference (do-nothing) behaviour, plus the builder-set
            structural ``layout`` / ``block`` attrs.
        level: multiplicative depth entering the *output* of this node.
        budget_bits: estimated invariant-noise budget after this node.
        noise_cost_bits: estimated budget this node consumes.
    """

    op: str
    stage: str
    attrs: dict[str, Any] = field(default_factory=dict)
    level: int = 0
    budget_bits: float = 0.0
    noise_cost_bits: float = 0.0

    def clone(self) -> "GraphNode":
        return GraphNode(
            self.op,
            self.stage,
            dict(self.attrs),
            self.level,
            self.budget_bits,
            self.noise_cost_bits,
        )

    def signature(self) -> tuple:
        """Hashable fingerprint used by the idempotence property tests."""
        return (
            self.op,
            self.stage,
            self.level,
            round(self.budget_bits, 6),
            round(self.noise_cost_bits, 6),
            tuple(sorted(self.attrs.items())),
        )


@dataclass
class InferenceGraph:
    """A linear chain of :class:`GraphNode` plus model metadata."""

    kind: str
    params: EncryptionParams
    nodes: list[GraphNode]
    meta: dict[str, Any]

    def clone(self) -> "InferenceGraph":
        return InferenceGraph(
            self.kind,
            self.params,
            [node.clone() for node in self.nodes],
            dict(self.meta),
        )

    def node(self, op: str) -> GraphNode:
        for node in self.nodes:
            if node.op == op:
                return node
        raise PipelineError(f"graph has no {op!r} node")

    def has_node(self, op: str) -> bool:
        return any(node.op == op for node in self.nodes)

    @property
    def multi_block(self) -> bool:
        """Whether conv/crossing nodes index per-block model constants."""
        return "blocks" in self.meta

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def he_noise_consumption(self) -> float:
        """Total estimated budget (bits) the HE compute nodes consume."""
        return float(sum(node.noise_cost_bits for node in self.nodes))

    def signature(self) -> tuple:
        advice = self.meta.get("parameter_advice")
        return (
            self.kind,
            self.params.name,
            tuple(node.signature() for node in self.nodes),
            advice,
        )


#: Ops whose output is a fresh encryption -- the client's, or the enclave's
#: re-encryption on the trusted side of a crossing or slot re-layout -- so
#: the noise budget resets there.
REFRESH_OPS = ("encrypt", "pack", "crossing", "unpack")


def node_noise_cost(node: GraphNode, graph: InferenceGraph, estimator: NoiseEstimator) -> float:
    """Estimated budget cost of one node, honouring pass rewrites.

    Matches :meth:`NoiseEstimator.layer_headroom`'s per-layer convention:
    a contraction costs one plaintext multiply at the layer's weight norm
    plus the additions over its (surviving) fan-in.
    """
    meta = graph.meta
    if node.op == "conv":
        block = node.attrs.get("block")
        conv = meta if block is None else meta["blocks"][block]
        keep = node.attrs.get("keep_taps")
        terms = len(keep) if keep is not None else conv["conv_taps"]
        return estimator.plain_multiply_cost(conv["conv_norm"]) + estimator.add_cost(
            max(1, terms)
        )
    if node.op == "fc":
        keep = node.attrs.get("keep_taps")
        terms = len(keep) if keep is not None else meta["fc_terms"]
        return estimator.plain_multiply_cost(meta["fc_norm"]) + estimator.add_cost(
            max(1, terms)
        )
    if node.op == "square":
        return estimator.multiply_cost()
    if node.op == "relinearize":
        return estimator.relinearize_cost()
    if node.op == "pool":
        return estimator.add_cost(meta["pool_window"] ** 2)
    return 0.0


def annotate(graph: InferenceGraph) -> InferenceGraph:
    """(Re)derive level and noise annotations for every node.

    Deterministic in the node attrs + meta, so passes call this after a
    rewrite instead of hand-patching budgets; running it twice is a no-op,
    which is what makes pass idempotence cheap to guarantee.
    """
    estimator = NoiseEstimator(graph.params)
    fresh = estimator.fresh_budget()
    budget = fresh
    level = 0
    for node in graph.nodes:
        if node.op in REFRESH_OPS:
            budget = fresh
            node.noise_cost_bits = 0.0
        elif node.op == "decrypt":
            node.noise_cost_bits = 0.0
        else:
            cost = node_noise_cost(node, graph, estimator)
            node.noise_cost_bits = cost
            budget -= cost
            if node.op == "square":
                level += 1
        node.budget_bits = budget
        node.level = level
    return graph


def _conv_meta(weight) -> dict[str, Any]:
    conv = np.asarray(weight, dtype=np.int64)
    tap_matrix = conv.reshape(conv.shape[0], -1)
    return {
        "conv_tap_matrix": tap_matrix,
        "conv_taps": int(tap_matrix.shape[1]),
        "conv_norm": float(max(1, np.abs(conv).max())),
    }


def _model_meta(quantized, params: EncryptionParams, mode: str) -> dict[str, Any]:
    dense = np.asarray(quantized.dense_weight, dtype=np.int64)
    meta = {
        "model": quantized,
        "mode": mode,
        "fc_matrix": dense,
        "fc_terms": int(dense.shape[0]),
        "fc_norm": float(max(1, np.abs(dense).max())),
        "p_max": int(max(params.coeff_primes)),
        "plain_bound": int(quantized.required_plain_modulus()),
        "pure_he": getattr(quantized, "activation", None) == "square",
        "parameter_advice": None,
    }
    if hasattr(quantized, "blocks"):
        meta["blocks"] = [_conv_meta(block.weight) for block in quantized.blocks]
    else:
        meta.update(_conv_meta(quantized.conv_weight))
        meta["pool_window"] = int(quantized.pool_window)
    return meta


def _encrypt(**structure) -> GraphNode:
    return GraphNode("encrypt", "encrypt", {"scalar_encrypt": False, **structure})


def _conv(stage: str = "conv", **structure) -> GraphNode:
    knobs = {"keep_taps": None, "fold_bias": False}
    return GraphNode("conv", stage, {**knobs, **structure})


def _crossing(stage: str = "sgx_activation_pool", **structure) -> GraphNode:
    knobs = {"packed": False, "pack_max_batch": 0, "hoist_pack_operand": False}
    return GraphNode("crossing", stage, {**knobs, **structure})


def _fc() -> GraphNode:
    return GraphNode("fc", "fc", {"keep_taps": None, "fold_bias": False})


def build_hybrid_graph(
    quantized, params: EncryptionParams, mode: str = "batched"
) -> InferenceGraph:
    """IR for the paper's EncryptSGX pipeline (conv -> enclave -> fc)."""
    nodes = [_encrypt(), _conv(), _crossing(), _fc(), GraphNode("decrypt", "decrypt")]
    meta = _model_meta(quantized, params, mode)
    return annotate(InferenceGraph("hybrid", params, nodes, meta))


def build_cryptonets_graph(quantized, params: EncryptionParams) -> InferenceGraph:
    """IR for the pure-HE CryptoNets pipeline (square activation)."""
    nodes = [
        _encrypt(),
        _conv(),
        GraphNode("square", "square", {"hoist_coeff": False}),
        GraphNode("relinearize", "relinearize"),
        GraphNode("pool", "pool"),
        _fc(),
        GraphNode("decrypt", "decrypt"),
    ]
    meta = _model_meta(quantized, params, "batched")
    return annotate(InferenceGraph("cryptonets", params, nodes, meta))


def build_graph(
    kind: str, quantized, params: EncryptionParams, mode: str = "batched"
) -> InferenceGraph:
    """The reference graph of ``kind`` for ``quantized``.

    ``hybrid`` and ``cryptonets`` are the two builders above; the rest:

    * ``simd``: the hybrid chain with a user batch in the CRT slots from
      client encrypt to client decrypt;
    * ``deep``: one conv + enclave block per model block, then fc;
    * ``served``: the edge server's conv -> crossing -> fc, from the
      client's ciphertext to the encrypted logits;
    * ``packed``: the scheduler's flush -- stacked requests re-laid into
      CRT slots for the HE layers, then split back into one scalar
      ciphertext per request.
    """
    if kind == "hybrid":
        return build_hybrid_graph(quantized, params, mode=mode)
    if kind == "cryptonets":
        return build_cryptonets_graph(quantized, params)
    if kind == "deep":
        nodes = [_encrypt()]
        for i in range(len(quantized.blocks)):
            nodes += [_conv(f"conv_{i}", block=i), _crossing(f"sgx_block_{i}", block=i)]
        nodes += [_fc(), GraphNode("decrypt", "decrypt")]
    elif kind == "simd":
        nodes = [
            _encrypt(layout="slots"),
            _conv(),
            _crossing(layout="slots"),
            _fc(),
            GraphNode("decrypt", "decrypt", {"layout": "slots"}),
        ]
    elif kind == "served":
        nodes = [_conv(), _crossing(), _fc()]
    elif kind == "packed":
        nodes = [
            GraphNode("pack", "pack"),
            _conv(),
            _crossing(layout="slots"),
            _fc(),
            GraphNode("unpack", "unpack"),
        ]
    else:
        raise PipelineError(f"unknown graph kind {kind!r}")
    meta = _model_meta(quantized, params, mode)
    return annotate(InferenceGraph(kind, params, nodes, meta))
