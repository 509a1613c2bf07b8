"""Counter-based random streams for reproducible, shardable simulation.

Streams are Philox generators keyed by (seed, stream_id).  Distinct pairs
give statistically independent streams; identical pairs reproduce identical
draws on every platform; and a stream's output never depends on how many
other streams exist.  Sessions take per-round randomness from stream
``ROUND_STREAM`` and check-subset disclosure from ``DISCLOSE_STREAM``, so
results cannot depend on how the work is sharded across workers.

Philox is counter-addressed (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): each counter step yields four 64-bit words, one
per double, so a stream can be entered at any counter step without
drawing what comes before it.
"""

from __future__ import annotations

import numpy as np

ROUND_STREAM = 0
DISCLOSE_STREAM = 1

_UINT64_MAX = 2**64 - 1


def philox_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the counter-based generator for (seed, stream_id)."""
    if not 0 <= int(seed) <= _UINT64_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0 <= int(stream_id) <= _UINT64_MAX:
        raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
    return _philox_at(seed, stream_id, 0)


def _philox_at(seed: int, stream_id: int, counter: int) -> np.random.Generator:
    """The (seed, stream_id) generator entered at Philox counter step ``counter``.

    Its first double is double ``4 * counter`` of ``philox_stream(seed,
    stream_id)``.  The arguments are not checked.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
