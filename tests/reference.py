"""The session's random-stream layout, written down apart from numpy and the kernel.

Python integers only.  Philox4x64-10 (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) maps a 256-bit
counter and a 128-bit key to four 64-bit words in ten rounds.  A stream's
key is (seed, stream id).  Its counter starts at 0 and is bumped before
each block, so counter step s of a stream is the block of counter s + 1.

- Round i's four words are step i of stream ``ROUND_STREAM``.
- Round i's disclosure word is word i mod 4 of step i // 4 of stream
  ``DISCLOSE_STREAM``; its uniform is the word's top 53 bits times 2**-53.
"""

ROUND_STREAM = 0
DISCLOSE_STREAM = 1

_MASK = 2**64 - 1
#: Round multipliers and key increments of Philox4x64.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def philox_block(seed: int, stream: int, step: int) -> tuple[int, int, int, int]:
    """The four words of counter step ``step`` of stream (``seed``, ``stream``)."""
    counter = (step + 1) % 2**256
    x = [counter >> (64 * j) & _MASK for j in range(4)]
    k0, k1 = seed, stream
    for r in range(10):
        if r:
            k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
        p0, p1 = _M0 * x[0], _M1 * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _MASK, (p0 >> 64) ^ x[3] ^ k1, p0 & _MASK]
    return tuple(x)


def disclosure_word(seed: int, i: int) -> int:
    """Round ``i``'s disclosure word: word i mod 4 of step i // 4 of the disclosure stream."""
    return philox_block(seed, DISCLOSE_STREAM, i // 4)[i % 4]
