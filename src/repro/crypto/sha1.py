"""SHA-1 message digest (FIPS 180-2), instrumented.

SHA-1 runs 80 steps over a 16-word message schedule expanded to 80 words.
The schedule expansion (``W[i] = rol1(W[i-3]^W[i-8]^W[i-14]^W[i-16])``) is
independent work that the out-of-order core overlaps with the step chain,
which is why the paper measures SHA-1 at CPI 0.52 -- the *lowest* of all the
studied kernels -- despite a path length twice MD5's (24 vs 12 instructions
per byte, Table 11).
"""

from __future__ import annotations

import hashlib
import struct

from ..perf import charge, mix
from ..runtime import fastpath_enabled

_MASK = 0xFFFFFFFF
_K = (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6)

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------

#: One 64-byte block through sha1_block_data_order.  Derivation:
#:   * 16 big-endian message loads: movl + bswap each.
#:   * 64 schedule expansions: 2 movl (load/store W), 3 xorl, 1 roll.
#:   * 80 steps: e += rol5(a) + f(b,c,d) + W[i] + K.  f averages 2 xorl +
#:     0.6 andl + 0.35 orl across Ch/Parity/Maj rounds; rol5 and the b
#:     rotation give 1 roll + 1 rorl (compilers emit ror for rol30); the
#:     three additions are 2 addl + 1 leal; ~2.7 movl of register traffic.
#:   * state load/store and frame overhead.
SHA1_BLOCK = mix(
    movl=16 + 64 * 2.5 + 80 * 3.0 + 16,  # 432 (spills: only 8 x86 registers
    #                                       for a 5-word state + schedule)
    bswap=16,
    xorl=64 * 3 + 80 * 2.2,             # 368
    roll=64 * 1 + 80 * 1.0,             # 144
    rorl=80 * 1.0,                      # 80
    addl=80 * 2.3,                      # 184
    leal=80 * 1.1,                      # 88
    andl=80 * 0.7,                      # 56
    orl=80 * 0.4,                       # 32
    movb=44,                            # input copy path, amortized
    pushl=5, popl=5, call=1, ret=1, cmpl=2, jnz=2,
)

#: SHA1_Init: store 5 state words + length, zero buffer count.
SHA1_INIT = mix(movl=14, xorl=2, pushl=1, popl=1, call=1, ret=1)

#: SHA1_Update bookkeeping per call.
SHA1_UPDATE_CALL = mix(movl=14, addl=4, adcl=1, cmpl=3, jnz=3, shrl=2,
                       andl=2, pushl=3, popl=3, call=1, ret=1)

#: SHA1_Final bookkeeping (padding assembly, big-endian digest stores).
SHA1_FINAL = mix(movl=24, movb=10, bswap=5, addl=4, shrl=4, andl=3, cmpl=3,
                 jnz=3, pushl=3, popl=3, call=2, ret=2)

#: Dependency-stall factor: the schedule expansion and the five-register
#: step rotation expose independent operations, so SHA-1 runs close to the
#: throughput limit of the mix (~0.47 CPI); measured CPI is 0.52.
SHA1_STALL = 1.10


def _compress(state: tuple, block: bytes) -> tuple:
    """One application of the SHA-1 compression function (uncharged)."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, 80):
        t = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
        w.append(((t << 1) | (t >> 31)) & _MASK)
    a, b, c, d, e = state
    for i in range(80):
        if i < 20:
            f = (b & c) | ((~b & _MASK) & d)
            k = _K[0]
        elif i < 40:
            f = b ^ c ^ d
            k = _K[1]
        elif i < 60:
            f = (b & c) | (b & d) | (c & d)
            k = _K[2]
        else:
            f = b ^ c ^ d
            k = _K[3]
        t = (((a << 5) | (a >> 27)) + f + e + k + w[i]) & _MASK
        a, b, c, d, e = t, a, ((b << 30) | (b >> 2)) & _MASK, c, d
    return ((state[0] + a) & _MASK, (state[1] + b) & _MASK,
            (state[2] + c) & _MASK, (state[3] + d) & _MASK,
            (state[4] + e) & _MASK)


class SHA1:
    """Incremental SHA-1 with the standard init/update/final API.

    The compute half is fixed at construction.  On the fast path a
    ``hashlib`` object does the hashing for the context's whole life (its
    copies included); otherwise :func:`_compress` runs over ``_state`` and
    ``_buffer`` and charges the blocks it compresses.  The fast half
    charges the same counts from byte lengths alone: ``(length % 64 +
    len(data)) // 64`` blocks per update, and one block for the final
    padding, or two once 56 or more bytes of the last block are taken.
    """

    digest_size = 20
    block_size = 64
    name = "sha1"

    def __init__(self, data: bytes = b""):
        self._hash = (hashlib.sha1(usedforsecurity=False)
                      if fastpath_enabled() else None)
        self._state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                       0xC3D2E1F0)
        self._buffer = b""
        self._length = 0
        charge(SHA1_INIT, function="SHA1_Init")
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA1.update requires bytes-like data")
        data = bytes(data)
        charge(SHA1_UPDATE_CALL, function="SHA1_Update")
        if self._hash is not None:
            nblocks = (self._length % 64 + len(data)) // 64
            self._hash.update(data)
        else:
            buf = self._buffer + data
            nblocks = len(buf) // 64
            state = self._state
            for i in range(nblocks):
                state = _compress(state, buf[i * 64:(i + 1) * 64])
            self._state = state
            self._buffer = buf[nblocks * 64:]
        self._length += len(data)
        if nblocks:
            charge(SHA1_BLOCK, times=nblocks, function="SHA1_Update",
                   stall=SHA1_STALL)

    def copy(self) -> "SHA1":
        """Snapshot the running context (used for SSLv3 finished hashes)."""
        clone = SHA1.__new__(SHA1)
        clone._hash = None if self._hash is None else self._hash.copy()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        charge(SHA1_INIT, function="SHA1_Init")
        return clone

    def digest(self) -> bytes:
        charge(SHA1_FINAL, function="SHA1_Final")
        if self._hash is not None:
            out = self._hash.digest()
            nblocks = 1 if self._length % 64 < 56 else 2
        else:
            bitlen = self._length * 8
            pad = b"\x80" + b"\x00" * ((55 - self._length) % 64)
            tail = (self._buffer + pad
                    + struct.pack(">Q", bitlen & (2**64 - 1)))
            nblocks = len(tail) // 64
            state = self._state
            for i in range(nblocks):
                state = _compress(state, tail[i * 64:(i + 1) * 64])
            out = struct.pack(">5I", *state)
        charge(SHA1_BLOCK, times=nblocks, function="SHA1_Final",
               stall=SHA1_STALL)
        return out

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha1(data: bytes = b"") -> SHA1:
    """Convenience constructor mirroring ``hashlib.sha1``."""
    return SHA1(data)
