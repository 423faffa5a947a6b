"""Graph-level HE optimizer (nGraph-HE2 direction).

``repro.graph`` compiles the paper's fixed layer-by-layer pipelines into a
small inference-graph IR annotated with multiplicative levels and noise
budgets from :class:`repro.he.noise.NoiseEstimator`, rewrites the graph
through a pass pipeline (plaintext bypass of zero operands, bias folding
into the fused contractions, enclave-crossing coefficient packing, shared
NTT hoisting, scalar-encoding encrypt, depth-aware FV parameter advice),
and executes the compiled graph bit-identically to the unoptimized
reference — the same contract the FUSED/REFERENCE kernel split enforces.

Modules:
    ir: the :class:`InferenceGraph` IR and its builders (``build_graph``
        for every inference path: hybrid, CryptoNets, SIMD, deep, and the
        edge server's direct and packed serving).
    passes: the rewrite passes and their refusal conditions.
    optimizer: level configuration (off/safe/aggressive, ``REPRO_GRAPH_OPT``),
        the compiler with fault-site degradation, and compile reports.
    executor: the only inference runner -- walks a compiled graph against
        an explicit ``Runtime`` (evaluator, weights, enclave, stage opener).
"""

from repro.graph.ir import (
    GraphNode,
    InferenceGraph,
    build_cryptonets_graph,
    build_hybrid_graph,
)
from repro.graph.optimizer import (
    LEVELS,
    PASS_PORTFOLIO,
    CompileReport,
    active_level,
    compile_graph,
    configure,
    use,
)

__all__ = [
    "GraphNode",
    "InferenceGraph",
    "build_cryptonets_graph",
    "build_hybrid_graph",
    "LEVELS",
    "PASS_PORTFOLIO",
    "CompileReport",
    "active_level",
    "compile_graph",
    "configure",
    "use",
]
