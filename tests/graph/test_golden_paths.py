"""Golden digests for the SIMD, deep and served inference paths.

Recorded at fixed seeds from the hand-written stage chains these paths
ran before they moved onto the graph executor; the executor must
reproduce every one of them exactly: the SHA-256 of the serialized
logits ciphertext(s), the op tallies of the inference, the stage span
names, and the client encryptor's next RNG draw (which pins how many
draws the inference made).  The plaintext integer forward pass checks
the logits themselves.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

GOLDEN = {
    "simd": {
        "ct_sha256": "a3fa4999e6f54e2cf81c2a47cd7a3d93123e670d7842eb538d187942c32aaa2b",
        "ops": {"ct_plain_mul": 600, "ct_add": 565, "plain_add": 35},
        "stages": ["encrypt", "conv", "sgx_activation_pool", "fc", "decrypt"],
        "next_draw": 3576804641517209147,
    },
    "deep": {
        "ct_sha256": "a6c9b8a0c8ae1fd408b4b191ba0c34701cb9d71f5730906e085214baee9a3696",
        "ops": {"ct_plain_mul": 2604, "ct_add": 2326, "plain_add": 278},
        "stages": [
            "encrypt", "conv_0", "sgx_block_0", "conv_1", "sgx_block_1", "fc", "decrypt",
        ],
        "next_draw": 3511345247424870582,
    },
    "direct": {
        "ct_sha256": "7747bb9e68755049a208e49876aecd284dd0cb322ac49534c2209c5794d7dbad",
        "ops": {"ct_plain_mul": 1200, "ct_add": 1130, "plain_add": 70},
        "stages": ["conv", "sgx_activation_pool", "fc"],
        "next_draw": 1815327745259819082,
    },
    "packed": {
        "ct_sha256": "07b8ee1335b1c913e496ad3039e3c4306b96cfa2ab9ed04807b639267934653b",
        "ops": {"ct_plain_mul": 816, "ct_add": 709, "plain_add": 35},
        "stages": ["pack", "conv", "sgx_activation_pool", "fc", "unpack"],
        "next_draw": 3652241164637893621,
    },
}


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("path", ["simd", "deep", "direct", "packed"])
def test_path_matches_golden(path, golden_paths):
    run = golden_paths[path]()
    expected = GOLDEN[path]
    assert _digest(run.logits_ct) == expected["ct_sha256"]
    assert run.ops == expected["ops"]
    assert run.stages == expected["stages"]
    assert run.next_draw == expected["next_draw"]


@pytest.mark.parametrize("path", ["simd", "direct", "packed"])
def test_logits_match_plaintext(path, golden_paths, q_golden, golden_images):
    run = golden_paths[path]()
    count = run.logits.shape[0]
    assert np.array_equal(run.logits, q_golden.forward_int(golden_images[:count]))


def test_deep_logits_match_plaintext(golden_paths, q_golden_deep, golden_deep_images):
    run = golden_paths["deep"]()
    assert np.array_equal(run.logits, q_golden_deep.forward_int(golden_deep_images))
