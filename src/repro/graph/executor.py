"""Execute a compiled inference graph: the library's only inference runner.

Every encrypted inference -- the hybrid, CryptoNets, SIMD and deep
pipelines, and the edge server's direct and packed-flush serving paths --
is a graph from :mod:`repro.graph.ir` walked by :func:`run` against an
explicit :class:`Runtime`.  The executor emits exactly the stage spans the
pre-IR pipelines emitted, so traces, metrics, and op tallies stay
comparable across optimizer levels.  Every rewrite the passes may have
applied has a reference fallback here, and the reference ("off") walk
reproduces the original layer-by-layer execution op for op — that is what
makes the differential equivalence suite meaningful.

Bit-identity notes per rewrite:

* ``keep_taps`` / ``fold_bias`` ride into :mod:`repro.core.heops` via
  :class:`repro.core.heops.LayerPlan`; the fused kernels apply them only
  where they are exact (see heops).
* ``packed`` crossings flatten the whole feature-map tensor and fold
  runs of ``chunk`` values into polynomial coefficients
  (:func:`repro.he.batching.pack_coefficients`, RNG-free) before one
  ``activation_pool_packed`` ECALL whose trusted side re-encrypts the
  same values with the same per-element RNG draws as the unpacked ECALL,
  so the post-crossing ciphertext bytes are identical.
* ``hoist_coeff`` squares via one shared coefficient-domain transform
  (``Ciphertext.to_coeff`` returns the argument when already
  transformed), saving an INTT without changing a single residue.
* ``scalar_encrypt`` uses :meth:`repro.he.encryptor.Encryptor.encrypt_scalar`
  (same RNG draws, same arithmetic on scalar encodings).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import heops
from repro.errors import PipelineError
from repro.graph import ir, optimizer
from repro.he.batching import pack_coefficients
from repro.he.context import Ciphertext
from repro.he.decryptor import decrypt_scalar_values
from repro.he.evaluator import Evaluator


@dataclass
class Runtime:
    """Everything a graph runs against, handed to :func:`run` explicitly.

    Attributes:
        evaluator: HE evaluator; its counter tallies every HE op the graph
            runs (the served flush's packing included).
        encoder: scalar encoder for the weights and scalar-layout decrypts.
        conv_weights: encoded conv weights, one per conv block.
        dense_weights: encoded FC weights.
        enclave: handle crossings ECALL into (a pipeline's supervised
            enclave, or the flush's fleet replica on the served path).
        stage: opens a stage span by name.
        encryptor / decryptor: client endpoints for graphs with
            ``encrypt`` / ``decrypt`` nodes.
        slots: slot codec (``encode(values)`` / ``decode(plain, batch)``)
            for slot-layout ``encrypt`` / ``decrypt`` nodes.
        relin_keys: relinearization keys for pure-HE graphs.
        scratch: the owner's cache the packed crossing keeps across runs
            (its untallied packing evaluator and hoisted operands).
    """

    evaluator: Evaluator
    encoder: Any
    conv_weights: Sequence[heops.EncodedConvWeights]
    dense_weights: heops.EncodedDenseWeights
    enclave: Any
    stage: Callable[[str], Any]
    encryptor: Any = None
    decryptor: Any = None
    slots: Any = None
    relin_keys: Any = None
    scratch: dict = field(default_factory=dict)


def compiled_for(owner, kind: str, mode: str = "batched", model=None):
    """Return ``(graph, report)`` for ``owner`` running a ``kind`` graph of
    ``model`` (``owner.quantized`` when None) in ``mode``.

    Cached on ``owner`` per ``(kind, mode, model)`` until the optimizer
    configuration changes, so one server compiles each hosted model once.
    """
    model = owner.quantized if model is None else model
    key = optimizer.cache_key()
    cache = getattr(owner, "_graph_cache", None)
    if cache is None:
        cache = owner._graph_cache = {}
    entry = (kind, mode, id(model))
    cached = cache.get(entry)
    if cached is not None and cached[0] == key and cached[1] is model:
        return cached[2], cached[3]
    graph = ir.build_graph(kind, model, owner.context.params, mode=mode)
    compiled, report = optimizer.compile_graph(graph)
    cache[entry] = (key, model, compiled, report)
    return compiled, report


def _layer_plan(node: ir.GraphNode) -> heops.LayerPlan | None:
    keep = node.attrs.get("keep_taps")
    fold = bool(node.attrs.get("fold_bias"))
    if keep is None and not fold:
        return None
    return heops.LayerPlan(keep_taps=keep, fold_bias=fold)


def _encrypt(graph: ir.InferenceGraph, node: ir.GraphNode, rt: Runtime, images):
    pixels = graph.meta["model"].quantize_images(images)
    if node.attrs.get("layout") == "slots":
        return rt.encryptor.encrypt(rt.slots.encode(pixels))
    plain = rt.encoder.encode(pixels)
    if node.attrs.get("scalar_encrypt"):
        return rt.encryptor.encrypt_scalar(plain)
    return rt.encryptor.encrypt(plain)


def _crossing_args(graph: ir.InferenceGraph, node: ir.GraphNode) -> tuple:
    """``(input_scale, output_scale, window, activation, pool)`` of the
    enclave step a crossing node runs."""
    model = graph.meta["model"]
    block = node.attrs.get("block")
    if block is None:
        return (
            model.conv_output_scale,
            model.act_scale,
            model.pool_window,
            model.activation,
            model.pool,
        )
    spec = model.blocks[block]
    scale = model.block_input_scale(block) * spec.weight_scale
    return (scale, spec.act_scale, spec.pool_window, spec.activation, spec.pool)


def _per_pixel_crossing(rt: Runtime, conv: Ciphertext, args: tuple) -> Ciphertext:
    """EncryptSGX (single): every feature value crosses the boundary alone."""
    scale, out_scale, window = args[:3]
    shape = conv.batch_shape
    pieces = [
        rt.enclave.ecall(
            "sigmoid", conv[tuple(slice(i, i + 1) for i in index)], scale, out_scale
        ).data[0, 0, 0, 0]
        for index in np.ndindex(*shape)
    ]
    stacked = np.stack(pieces).reshape(*shape, *pieces[0].shape)
    activated = Ciphertext(conv.context, stacked, is_ntt=True)
    return rt.enclave.ecall("mean_pool", activated, window)


def _crossing(graph: ir.InferenceGraph, node: ir.GraphNode, rt: Runtime, conv):
    args = _crossing_args(graph, node)
    if node.attrs.get("layout") == "slots":
        return rt.enclave.ecall("activation_pool_simd", conv, *args)
    if graph.meta["mode"] == "per_pixel":
        return _per_pixel_crossing(rt, conv, args)
    shape = conv.batch_shape
    total = int(np.prod(shape)) if shape else 0
    cap = int(node.attrs.get("pack_max_batch", 0))
    if not node.attrs.get("packed") or cap < 2 or total < 2:
        return rt.enclave.ecall("activation_pool", conv, *args)
    # This folding is a pass rewrite, not part of the reference op
    # structure, so it runs on an untallied evaluator: op tallies stay
    # identical across optimizer levels.  (The served flush's ``pack``
    # node is reference structure and is tallied on ``rt.evaluator``.)
    pack_evaluator = rt.scratch.get("pack_evaluator")
    if pack_evaluator is None:
        pack_evaluator = rt.scratch["pack_evaluator"] = Evaluator(conv.context)
    cache = None
    if node.attrs.get("hoist_pack_operand"):
        cache = rt.scratch.setdefault("pack_operands", {})
    # Flatten the whole feature-map tensor and fold runs of ``chunk``
    # values into single ciphertexts' coefficients: ciphertext ``j``
    # carries flat values ``j * chunk ..`` (tail ciphertext shorter).
    tail = conv.data.shape[-3:]
    flat = conv.data.reshape(total, *tail)
    chunk = min(cap, conv.context.poly_degree, total)
    full, remainder = divmod(total, chunk)
    parts = []
    if full:
        main = np.ascontiguousarray(
            np.moveaxis(flat[: full * chunk].reshape(full, chunk, *tail), 1, 0)
        )
        packed = pack_coefficients(
            pack_evaluator,
            Ciphertext(conv.context, main, is_ntt=True),
            operand_cache=cache,
        )
        parts.append(packed.data)
    if remainder:
        packed = pack_coefficients(
            pack_evaluator,
            Ciphertext(conv.context, flat[full * chunk :], is_ntt=True),
            operand_cache=cache,
        )
        parts.append(packed.data.reshape(1, *tail))
    payload = Ciphertext(
        conv.context,
        parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0),
        is_ntt=True,
    )
    return rt.enclave.ecall(
        "activation_pool_packed", payload, tuple(int(s) for s in shape), chunk, *args
    )


@contextmanager
def _node_stage(stage, node: ir.GraphNode):
    """Open the node's stage span and stamp its graph identity onto it.

    The stamped attrs are what :mod:`repro.obs.profile` keys measured
    costs by: the full node signature (op + stage + level + noise
    annotations + rewrite knobs), so two optimizer configurations of the
    same stage profile as distinct nodes.
    """
    with stage(node.stage) as span:
        span.attrs["node_signature"] = str(node.signature())
        span.attrs["node_op"] = node.op
        span.attrs["node_level"] = node.level
        span.attrs["node_headroom_bits"] = float(node.budget_bits)
        yield span


def run(graph: ir.InferenceGraph, rt: Runtime, inputs):
    """Walk ``graph`` against ``rt``; returns ``(logits, budget, logits_ct)``.

    ``inputs`` are raw images when the graph starts with ``encrypt``, else
    the client's ciphertext.  ``logits_ct`` is the ciphertext that reaches
    ``decrypt`` (or the graph's last value when it has none); ``logits``
    and ``budget`` are None for graphs that end encrypted.
    """
    value = inputs
    batch = len(inputs) if graph.has_node("encrypt") else None
    logits = None
    budget = None
    for node in graph.nodes:
        op = node.op
        if op == "decrypt":
            budget = rt.decryptor.invariant_noise_budget(value)
            with _node_stage(rt.stage, node) as span:
                span.attrs["noise_budget_bits"] = float(budget)
                if node.attrs.get("layout") == "slots":
                    logits = rt.slots.decode(rt.decryptor.decrypt(value), batch)
                else:
                    logits = decrypt_scalar_values(rt.decryptor, rt.encoder, value)
            continue
        # The stage span measures host wall time *exclusively*, so e.g. the
        # per-pixel crossing's slicing/reassembly around its ECALLs is
        # charged to it without double-counting the in-enclave compute.
        with _node_stage(rt.stage, node):
            if op == "encrypt":
                value = _encrypt(graph, node, rt, value)
            elif op == "pack":
                # Fold the stacked requests into polynomial coefficients on
                # the host, so the enclave decrypts one ciphertext per pixel
                # position instead of one per request.
                batch = value.batch_shape[0]
                folded = pack_coefficients(rt.evaluator, value)
                value = rt.enclave.ecall("pack_slots", folded, batch)
            elif op == "conv":
                weights = rt.conv_weights[node.attrs.get("block", 0)]
                value = heops.he_conv2d(
                    rt.evaluator, rt.encoder, value, weights, plan=_layer_plan(node)
                )
            elif op == "crossing":
                value = _crossing(graph, node, rt, value)
            elif op == "square":
                if node.attrs.get("hoist_coeff"):
                    hoisted = value.to_coeff()
                    value = rt.evaluator.multiply(hoisted, hoisted)
                else:
                    value = heops.he_square(rt.evaluator, value)
            elif op == "relinearize":
                value = rt.evaluator.relinearize(value, rt.relin_keys)
            elif op == "pool":
                value = heops.he_scaled_mean_pool(
                    rt.evaluator, value, graph.meta["pool_window"]
                )
            elif op == "fc":
                value = heops.he_dense(
                    rt.evaluator,
                    rt.encoder,
                    value,
                    rt.dense_weights,
                    plan=_layer_plan(node),
                )
            elif op == "unpack":
                value = rt.enclave.ecall("unpack_slots", value, batch)
            else:
                raise PipelineError(f"graph executor cannot run node {op!r}")
    return logits, budget, value
