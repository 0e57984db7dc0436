"""MD5 message digest (RFC 1321), instrumented.

MD5 processes 64-byte blocks through 64 steps of ``a += F(b,c,d) + X[k] +
T[i]; a <<<= s; a += b``.  The paper's Table 10 splits hashing into
init / update / final phases (update is ~91% on 1 KB inputs) and Table 11/12
report a path length of ~12 instructions per byte dominated by
``movl/addl/xorl`` with a comparatively high CPI of 0.72 -- every step of
MD5 consumes the previous step's output, so the dependency chain defeats the
superscalar core.  The instruction-mix constants below are derived from that
structure; the derivation is spelled out inline.

The faithful path computes with :func:`_compress`.  On the fast path an
:class:`MD5` context hashes with ``hashlib``, and :func:`compress`, the
raw chain :class:`~repro.crypto.rand.PseudoRandom` needs, runs in
libcrypto (:mod:`.native`).  Both backends charge the same blocks.
"""

from __future__ import annotations

import hashlib
import math
import struct

from ..perf import charge, mix
from ..runtime import fastpath_enabled
from . import native

#: Per-step shift amounts, by round.
_SHIFTS = (
    (7, 12, 17, 22), (5, 9, 14, 20), (4, 11, 16, 23), (6, 10, 15, 21),
)

#: T[i] = floor(abs(sin(i+1)) * 2^32) (RFC 1321).
_T = tuple(int(abs(math.sin(i + 1)) * (1 << 32)) & 0xFFFFFFFF
           for i in range(64))

#: Message-word index per step.
_X_INDEX = tuple(
    [i for i in range(16)]
    + [(1 + 5 * i) % 16 for i in range(16)]
    + [(5 + 3 * i) % 16 for i in range(16)]
    + [(7 * i) % 16 for i in range(16)]
)

_MASK = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------

#: One 64-byte block through md5_block_data_order.  Derivation:
#:   * 64 steps.  Boolean function via the xor trick (F = ((c^d)&b)^d):
#:     rounds 1-2 use 2 xorl + 1 andl, round 3 uses 2 xorl, round 4 uses
#:     notl + orl + xorl -> averages 2.19 xorl, 0.5 andl, 0.27 orl,
#:     0.25 notl per step.
#:   * additions: +X[k] (from memory), +T[i] (immediate) and the final +b;
#:     one is typically folded into a leal -> 2.3 addl + 1.1 leal per step.
#:   * one roll per step; ~2.6 movl per step (X[k] load, register traffic
#:     forced by the 8-register ISA -- the paper's point about x86 register
#:     pressure).
#:   * block overhead: 16 message-word loads, state load/store (8 movl),
#:     input byte handling in the copy path (movb/addb), frame setup.
MD5_BLOCK = mix(
    movl=64 * 2.6 + 24,   # 190.4
    addl=64 * 2.3,        # 147.2
    xorl=64 * 2.19,       # 140.2
    leal=64 * 1.1,        # 70.4
    roll=64 * 1.05,       # 67.2
    andl=64 * 0.5,        # 32
    orl=64 * 0.27,        # 17.3
    notl=64 * 0.25,       # 16
    movb=30,              # unaligned-input copy path, amortized
    addb=12,
    xorb=2,
    pushl=5, popl=5, call=1, ret=1, cmpl=2, jnz=2,
)

#: MD5_Init: store 4 state words + length, zero the buffer count.
MD5_INIT = mix(movl=12, xorl=2, pushl=1, popl=1, call=1, ret=1)

#: MD5_Update bookkeeping per call (length arithmetic, buffer management),
#: excluding the block compression charged separately.
MD5_UPDATE_CALL = mix(movl=14, addl=4, adcl=1, cmpl=3, jnz=3, shrl=2,
                      andl=2, pushl=3, popl=3, call=1, ret=1)

#: MD5_Final bookkeeping: append padding + length, emit digest (the extra
#: compressions themselves are charged as blocks).
MD5_FINAL = mix(movl=22, movb=10, addl=4, shrl=4, andl=3, cmpl=3, jnz=3,
                pushl=3, popl=3, call=2, ret=2)

#: Dependency-stall factor.  Every MD5 step is a serial chain (the rotate
#: input is the sum just computed; the next step needs the rotated value),
#: so the 3-wide core cannot fill its issue slots: measured CPI 0.72 versus
#: a throughput-limited ~0.45 for this mix.
MD5_STALL = 1.52


def _compress(state: tuple, block: bytes) -> tuple:
    """One application of the MD5 compression function (uncharged)."""
    a, b, c, d = state
    x = struct.unpack("<16I", block)
    for i in range(64):
        if i < 16:
            f = ((c ^ d) & b) ^ d
        elif i < 32:
            f = ((b ^ c) & d) ^ c
        elif i < 48:
            f = b ^ c ^ d
        else:
            f = c ^ (b | (~d & _MASK))
        t = (a + f + x[_X_INDEX[i]] + _T[i]) & _MASK
        s = _SHIFTS[i >> 4][i & 3]
        t = ((t << s) | (t >> (32 - s))) & _MASK
        a, d, c, b = d, c, b, (b + t) & _MASK
    return ((state[0] + a) & _MASK, (state[1] + b) & _MASK,
            (state[2] + c) & _MASK, (state[3] + d) & _MASK)


def compress(state: tuple, data: bytes) -> tuple:
    """MD5's compression of each 64-byte block of ``data`` in turn, from
    ``state``, with no padding (uncharged).

    :class:`~repro.crypto.rand.PseudoRandom` chains raw compressions from
    the IV, which ``hashlib`` cannot express; on the fast path libcrypto
    runs them (:mod:`.native`), and :func:`_compress` runs them where
    that binding did not load and on the faithful path."""
    if len(data) % 64:
        raise ValueError("MD5 compresses whole 64-byte blocks")
    if fastpath_enabled() and native.available:
        return native.md5_compress(state, data)
    for i in range(0, len(data), 64):
        state = _compress(state, data[i:i + 64])
    return state


class MD5:
    """Incremental MD5 with the standard init/update/final API.

    The compute half is fixed at construction.  On the fast path a
    ``hashlib`` object does the hashing for the context's whole life (its
    copies included); otherwise :func:`_compress` runs over ``_state`` and
    ``_buffer`` and charges the blocks it compresses.  The fast half
    charges the same counts from byte lengths alone: ``(length % 64 +
    len(data)) // 64`` blocks per update, and one block for the final
    padding, or two once 56 or more bytes of the last block are taken.
    """

    digest_size = 16
    block_size = 64
    name = "md5"

    def __init__(self, data: bytes = b""):
        self._hash = (hashlib.md5(usedforsecurity=False)
                      if fastpath_enabled() else None)
        self._state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
        self._buffer = b""
        self._length = 0
        charge(MD5_INIT, function="MD5_Init")
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("MD5.update requires bytes-like data")
        data = bytes(data)
        charge(MD5_UPDATE_CALL, function="MD5_Update")
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
            charge(MD5_BLOCK, times=nblocks, function="MD5_Update",
                   stall=MD5_STALL)

    def copy(self) -> "MD5":
        """Snapshot the running context (used for SSLv3 finished hashes)."""
        clone = MD5.__new__(MD5)
        clone._hash = None if self._hash is None else self._hash.copy()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        charge(MD5_INIT, function="MD5_Init")
        return clone

    def digest(self) -> bytes:
        charge(MD5_FINAL, function="MD5_Final")
        if self._hash is not None:
            out = self._hash.digest()
            nblocks = 1 if self._length % 64 < 56 else 2
        else:
            bitlen = self._length * 8
            pad = b"\x80" + b"\x00" * ((55 - self._length) % 64)
            tail = (self._buffer + pad
                    + struct.pack("<Q", bitlen & (2**64 - 1)))
            nblocks = len(tail) // 64
            state = self._state
            for i in range(nblocks):
                state = _compress(state, tail[i * 64:(i + 1) * 64])
            out = struct.pack("<4I", *state)
        charge(MD5_BLOCK, times=nblocks, function="MD5_Final",
               stall=MD5_STALL)
        return out

    def hexdigest(self) -> str:
        return self.digest().hex()


def md5(data: bytes = b"") -> MD5:
    """Convenience constructor mirroring ``hashlib.md5``."""
    return MD5(data)
