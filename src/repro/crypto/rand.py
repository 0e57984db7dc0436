"""Deterministic pseudo-random byte generator (``rand_pseudo_bytes``).

OpenSSL 0.9.7's ``md_rand`` mixes entropy through MD5 over a 1 KB state
pool; every extraction stirs pool state through the hash, which is why the
paper's hello steps spend tens of thousands of cycles in
``rand_pseudo_bytes`` for a few dozen output bytes (Table 2), and why
random-number generation shows up in the "other" crypto category of
Table 3 / Figure 2.

This reproduction keeps that shape -- a hash-feedback generator whose cost
is real MD5 compression work over the pool -- but is deliberately
deterministic and seedable, because experiments must be reproducible.  No
security claim is attached; do not use outside the simulation.

The MD5 work is performed via the raw compression function
(:func:`~repro.crypto.md5.compress`, which the fast path runs in
libcrypto) and charged under the ``rand_pseudo_bytes`` name (module
``libcrypto``) so that the crypto-category accounting of Figure 2
classifies it as "other", exactly as the paper does.
"""

from __future__ import annotations

import struct

from ..perf import charge, mix
from .md5 import MD5, MD5_BLOCK, MD5_STALL, compress

#: Bookkeeping per rand_pseudo_bytes call (pool index arithmetic, locking).
RAND_CALL = mix(movl=16, addl=4, andl=2, cmpl=4, jnz=4, pushl=3, popl=3,
                call=2, ret=2)

_POOL_SIZE = 1024
_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
#: The pool's index ramp, byte ``i`` = ``i & 0xFF``, as one integer.
_RAMP = int.from_bytes(bytes(range(256)) * (_POOL_SIZE // 256), "big")


class PseudoRandom:
    """MD5-feedback PRNG over a 1 KB state pool (md_rand equivalent)."""

    def __init__(self, seed: bytes = b"repro-ssl-anatomy"):
        self.seed(seed)

    def seed(self, material: bytes) -> None:
        """Mix seed material through the pool: byte ``i`` is
        ``digest[i % 16] ^ (i & 0xFF)``, made as one integer XOR."""
        digest = MD5(material).digest()
        self._pool = bytearray(
            (int.from_bytes(digest * (_POOL_SIZE // 16), "big") ^ _RAMP)
            .to_bytes(_POOL_SIZE, "big"))
        self._counter = 0

    def _stir(self) -> bytes:
        """Hash the whole pool twice (in and out passes, like md_rand's
        per-extraction state walk); xor the digest back into the head."""
        pool = bytes(self._pool)
        state = compress(_IV, pool + pool)
        charge(MD5_BLOCK, times=2 * (_POOL_SIZE // 64),
               function="rand_pseudo_bytes", stall=MD5_STALL)
        digest = struct.pack("<4I", *state)
        for i, b in enumerate(digest):
            self._pool[i] ^= b
        return digest

    def bytes(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes (rand_pseudo_bytes).

        After one stir, each 16 output bytes are one raw MD5 compression
        from the IV of a 64-byte block: the counter (8 bytes, big-endian),
        the pool's first 48 bytes, 0x80, six zero bytes and 0xC0.  That
        last byte is the low half of ``struct.pack("<H", 448)``; the
        ``[:64]`` slice drops its high half (0x01).  Every key and wire
        transcript in the reproduction depends on this layout, so it
        stays as it is."""
        if n < 0:
            raise ValueError("cannot generate a negative number of bytes")
        charge(RAND_CALL, function="rand_pseudo_bytes")
        self._stir()
        out = bytearray()
        while len(out) < n:
            self._counter += 1
            block = (struct.pack(">Q", self._counter)
                     + bytes(self._pool[:48])
                     + b"\x80" + bytes(6) + struct.pack("<H", 448))
            state = compress(_IV, block[:64])
            charge(MD5_BLOCK, function="rand_pseudo_bytes", stall=MD5_STALL)
            digest = struct.pack("<4I", *state)
            # Feed the digest back into the pool (state update).
            base = (self._counter * 16) % (_POOL_SIZE - 16)
            for i, b in enumerate(digest):
                self._pool[base + i] ^= b
            out += digest
        return bytes(out[:n])

    def int_below(self, bound: int) -> int:
        """A pseudo-random integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        nbytes = (bits + 7) // 8
        excess = nbytes * 8 - bits
        while True:  # rejection sampling: accepts with probability >= 1/2
            v = int.from_bytes(self.bytes(nbytes), "big") >> excess
            if v < bound:
                return v

    def odd_int(self, bits: int) -> int:
        """A pseudo-random odd integer with exactly ``bits`` bits."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        v = int.from_bytes(self.bytes((bits + 7) // 8), "big")
        v |= 1 | (1 << (bits - 1)) | (1 << (bits - 2))
        v &= (1 << bits) - 1
        return v


#: Process-wide default generator, reseedable by tests/benchmarks.
_DEFAULT = PseudoRandom()


def rand_pseudo_bytes(n: int) -> bytes:
    """Module-level convenience mirroring OpenSSL's call."""
    return _DEFAULT.bytes(n)


def reseed(material: bytes) -> None:
    """Reseed the default generator (used to make experiments reproducible)."""
    _DEFAULT.seed(material)
