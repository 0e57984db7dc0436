"""Cipher modes of operation.

The paper's cipher suites use block ciphers in CBC mode ("one of the most
popular modes", Section 2), where each plaintext block is XORed with the
previous ciphertext block -- deliberately serializing the blocks of a
message -- and RC4 as a stream cipher.  :class:`CBC` keeps the running IV
across calls because SSLv3 chains the IV from record to record.

On the fast path :class:`CBC` hands every input to the cipher's
``encrypt_cbc``/``decrypt_cbc``, which run the whole input in one call
(in libcrypto where :mod:`~repro.crypto.native` loaded) and charge one
block plan per block before CBC's own charges, the order of the
per-block loop.  The faithful path keeps that loop, one
``encrypt_block``/``decrypt_block`` call per block, as the charge
oracle.  Only encryption is serial: every ciphertext block is known
before decryption starts, so decryption decrypts the blocks
independently and XORs them with the ciphertext shifted by one block.
"""

from __future__ import annotations

from typing import Protocol

from ..perf import charge, mix
from ..runtime import fastpath_enabled
from .util import cbc_unchain


class BlockCipher(Protocol):
    """Structural interface implemented by AES, DES and TripleDES."""

    name: str
    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...

    def encrypt_cbc(self, iv: bytes, data: bytes) -> bytes: ...

    def decrypt_cbc(self, iv: bytes, data: bytes) -> bytes: ...


#: Per-block CBC overhead: load previous ciphertext, XOR four words (or two
#: for 64-bit blocks; the difference is noise), pointer bookkeeping.
CBC_BLOCK = mix(movl=8, xorl=4, addl=2, cmpl=1, jnz=1)

#: Per-call overhead of the mode wrapper (the EVP-style dispatch the
#: throughput numbers of Table 11 include).
MODE_CALL = mix(pushl=4, movl=10, popl=4, call=2, ret=2, cmpl=2, jnz=2)


class CBC:
    """Cipher-block chaining with persistent IV state."""

    def __init__(self, cipher: BlockCipher, iv: bytes):
        if len(iv) != cipher.block_size:
            raise ValueError(
                f"IV must be {cipher.block_size} bytes for {cipher.name}")
        self.cipher = cipher
        self.block_size = cipher.block_size
        self._iv = iv

    @property
    def iv(self) -> bytes:
        """The current chaining value."""
        return self._iv

    def encrypt(self, data: bytes) -> bytes:
        bs = self.block_size
        if len(data) % bs:
            raise ValueError("CBC input must be a whole number of blocks")
        cipher = self.cipher
        if fastpath_enabled():
            out = cipher.encrypt_cbc(self._iv, data)
        else:
            chained = bytearray()
            prev = self._iv
            enc = cipher.encrypt_block
            from_bytes = int.from_bytes
            for i in range(0, len(data), bs):
                prev = enc((from_bytes(data[i:i + bs], "big")
                            ^ from_bytes(prev, "big")).to_bytes(bs, "big"))
                chained += prev
            out = bytes(chained)
        if out:
            self._iv = out[-bs:]
        nblocks = len(data) // bs
        if nblocks:
            charge(CBC_BLOCK, times=nblocks, function="cbc_encrypt")
        charge(MODE_CALL, function="cbc_encrypt")
        return out

    def decrypt(self, data: bytes) -> bytes:
        bs = self.block_size
        if len(data) % bs:
            raise ValueError("CBC input must be a whole number of blocks")
        cipher = self.cipher
        if fastpath_enabled():
            plain = cipher.decrypt_cbc(self._iv, data)
        else:
            dec = cipher.decrypt_block
            plain = cbc_unchain(self._iv, data, b"".join(
                [dec(data[i:i + bs]) for i in range(0, len(data), bs)]))
        if data:
            self._iv = bytes(data[-bs:])
        nblocks = len(data) // bs
        if nblocks:
            charge(CBC_BLOCK, times=nblocks, function="cbc_decrypt")
        charge(MODE_CALL, function="cbc_decrypt")
        return plain


def cbc_encrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC encryption."""
    return CBC(cipher, iv).encrypt(data)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC decryption."""
    return CBC(cipher, iv).decrypt(data)
