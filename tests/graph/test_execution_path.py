"""Structure check: the graph executor is the only code that walks an
inference chain.

Scans ``src/repro`` for calls to the HE layer kernels (``he_conv2d``,
``he_dense``) and the enclave's activation/pool step (an
``activation_pool*`` ECALL, or a direct call of such a method).  Only
``repro.graph.executor`` and the layers beneath it may make them; a
hand-written conv -> crossing -> fc sequence anywhere else fails here.
Likewise ``ServingLoop`` is the one serving front end: the packed-flush
engine under it may not grow its own request queue back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: The executor and the layers it calls into.
ALLOWED = {
    "graph/executor.py",
    "core/heops.py",
    "he/parallel.py",
    "core/enclave_service.py",
}

LAYER_KERNELS = {"he_conv2d", "he_dense"}


def _chain_calls(source: str):
    """``(line, call)`` for every chain-step call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in LAYER_KERNELS or name.startswith("activation_pool"):
            yield node.lineno, name
        elif name == "ecall" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and str(first.value).startswith(
                "activation_pool"
            ):
                yield node.lineno, f"ecall({first.value!r})"


def test_only_the_executor_runs_the_chain():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ALLOWED:
            continue
        for line, call in _chain_calls(path.read_text(encoding="utf-8")):
            offenders.append(f"{rel}:{line}: {call}")
    assert not offenders, "chain steps outside repro.graph.executor:\n" + "\n".join(
        offenders
    )


def test_scanner_flags_hand_written_chains():
    source = (
        "conv = heops.he_conv2d(ev, enc, ct, w)\n"
        "hidden = enclave.ecall('activation_pool_simd', conv, 1.0, 1, 2)\n"
        "direct = enclave.activation_pool(conv, 1.0, 1, 2)\n"
        "logits = he_dense(ev, enc, hidden, d)\n"
        "other = enclave.ecall('pack_slots', conv, 3)\n"
    )
    assert [call for _, call in _chain_calls(source)] == [
        "he_conv2d",
        "ecall('activation_pool_simd')",
        "activation_pool",
        "he_dense",
    ]


def test_executor_is_scanned_and_makes_the_calls():
    executor = (SRC / "graph" / "executor.py").read_text(encoding="utf-8")
    calls = {call for _, call in _chain_calls(executor)}
    assert {"he_conv2d", "he_dense", "ecall('activation_pool')"} <= calls


def test_scheduler_is_only_the_flush_engine():
    """``ServingLoop`` is the one serving front end: the packed-flush engine
    underneath it must not grow a second, manually cranked queue."""
    from repro.serve import RequestScheduler

    grown = {"submit", "pump", "drain"} & set(dir(RequestScheduler))
    assert not grown, f"RequestScheduler grew a front end again: {sorted(grown)}"
