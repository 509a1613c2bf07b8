"""Pinned artifact bytes: a fixed config must keep producing the same files.

The digests were recorded from the sampler these tests guard.  A change to
the sampler, the random-stream layout or the serialization that alters any
byte fails here; such a change is a behaviour change and must re-pin the
digests on purpose.
"""

import hashlib
import math

import numpy as np
import pytest

from scqkd.protocol import SessionConfig, run_session

UPSILONS = {"none": None, "zero": 0.0, "pi/4": math.pi / 4, "pi/2": math.pi / 2}

# (upsilon, check_fraction) -> (sha256 of to_json(include_rounds=True), of to_csv())
PINNED = {
    ("none", 0.0): (
        "3a106e4d0e25d0ce19fa9c5a21488a93d327f99f9b8e48ced150dbdded13f6b2",
        "cc5ed3857f22a2b5add3f203d4d58941ae2e88a00198375a33717e25c99ce23c",
    ),
    ("none", 1.0): (
        "07ad31547aca6405afaa30d59afa6475ffd59f95bc72f2761acba3dd1f3d725c",
        "6103722972e5b31df1d863fb128b2a99a1cab54416fc3025f3c1a546be02493f",
    ),
    ("zero", 0.0): (
        "70655835e7df5504ea47983f96547f1d600b153e4b9eef3f95a75fddf608a4b5",
        "cc5ed3857f22a2b5add3f203d4d58941ae2e88a00198375a33717e25c99ce23c",
    ),
    ("zero", 1.0): (
        "1e486e17e2bb6773745d78c2c492c79853233a251d2471fcc55e82faa575704d",
        "6103722972e5b31df1d863fb128b2a99a1cab54416fc3025f3c1a546be02493f",
    ),
    ("pi/4", 0.0): (
        "0c23c627f693a2736b21d271cddacc1b66abd211a1f3751692ae8c520fb7858e",
        "8293234a2439064aa874eac0b1e1350225c3da75745904216f13971066cba58d",
    ),
    ("pi/4", 1.0): (
        "224bf42996a15b9060a9088cce6466a7925d6c4c0801b3bdab2d5409f0a4b55f",
        "9e6cd911eae41ab51015be45f868167abd7d4d23854b8e591abac711dde9c1eb",
    ),
    ("pi/2", 0.0): (
        "6fc3d91a7638838cb0148953212b7ff90a4133b51e95270888cbcd83c9066753",
        "501332bcf4e670472ae128b8279ac4f98f60e2288e42e041b981108d7c66e4b1",
    ),
    ("pi/2", 1.0): (
        "26a62bee1ba471619951f6b69480dad33d99018bbac6b9fc4b66b42bbc5b9229",
        "62d322734a93797bc09fa9f04861e0587dde60ea698577a3bf848a7976ea64dd",
    ),
}

# Columns of a session spanning several 2^16-round blocks plus a ragged tail.
LONG_CONFIG = SessionConfig(n_rounds=3 * 2**16 + 5, upsilon=math.pi / 6, seed=31)
LONG_COLUMNS_SHA256 = "ea44f96614b2cfeaf2cf5335616f726423455ffb4a7bc8a6101846210e9c8966"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", sorted(PINNED))
def test_json_and_csv_bytes_are_pinned(key, workers):
    name, check_fraction = key
    config = SessionConfig(
        n_rounds=1_500, upsilon=UPSILONS[name], seed=2718, check_fraction=check_fraction
    )
    log = run_session(config, workers=workers)
    assert (sha256(log.to_json(include_rounds=True)), sha256(log.to_csv())) == PINNED[key]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_multi_block_columns_are_pinned(workers):
    log = run_session(LONG_CONFIG, workers=workers)
    digest = hashlib.sha256()
    for column in (log.alice, log.bob, log.outcome, log.eve_result, log.disclosed):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert digest.hexdigest() == LONG_COLUMNS_SHA256
