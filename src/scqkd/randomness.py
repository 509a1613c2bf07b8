"""Counter-based random streams for reproducible, shardable simulation.

Streams are Philox generators keyed by (seed, stream_id).  Distinct pairs
give statistically independent streams; identical pairs reproduce identical
draws on every platform; and a stream's output never depends on how many
other streams exist.  Sessions take per-round randomness from stream
``ROUND_STREAM`` and check-subset disclosure from ``DISCLOSE_STREAM``, so
results cannot depend on how the work is sharded across workers.

Philox is counter-addressed (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): each counter step yields four 64-bit words, so a
stream can be entered at any counter step without drawing what comes
before it.  A stream's ``random()`` turns word w into exactly
(w >> 11) * 2**-53, so the session kernel reads the round stream's words
and compares their top 53 bits with integer thresholds, making no doubles.
"""

from __future__ import annotations

import numpy as np

ROUND_STREAM = 0
DISCLOSE_STREAM = 1

_UINT64_MAX = 2**64 - 1


def _is_integer(value) -> bool:
    """True for int and numpy integers; bool is a flag, not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def philox_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the counter-based generator for (seed, stream_id), two 64-bit unsigned integers."""
    for name, value in (("seed", seed), ("stream_id", stream_id)):
        if not _is_integer(value) or not 0 <= value <= _UINT64_MAX:
            raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return np.random.Generator(_philox(seed, stream_id))


def _philox(seed: int, stream_id: int, counter: int = 0) -> np.random.Philox:
    return np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64), counter=counter)


def _philox_words(seed: int, stream_id: int, lo: int, m: int) -> np.ndarray:
    """The (m, 4) uint64 words of counter steps ``lo`` to ``lo + m``, one row per step."""
    return _philox(seed, stream_id, lo).random_raw(4 * m).reshape(m, 4)
