"""Cipher modes of operation.

The paper's cipher suites use block ciphers in CBC mode ("one of the most
popular modes", Section 2), where each plaintext block is XORed with the
previous ciphertext block -- deliberately serializing the blocks of a
message -- and RC4 as a stream cipher.  :class:`CBC` keeps the running IV
across calls because SSLv3 chains the IV from record to record.

Only encryption is serial: every ciphertext block is known before
decryption starts, so :meth:`CBC.decrypt` decrypts the blocks
independently and XORs them with the ciphertext shifted by one block.
On the fast path a long AES input is decrypted all at once by
:meth:`~repro.crypto.aes.AES.decrypt_blocks`, and every AES input is
encrypted by :meth:`~repro.crypto.aes.AES.encrypt_cbc`, one loop over
the record that still chains block to block.  Both are charged exactly
as the per-block calls.
"""

from __future__ import annotations

from typing import Protocol

from ..perf import charge, mix
from ..runtime import fastpath_enabled
from .aes import AES


class BlockCipher(Protocol):
    """Structural interface implemented by AES, DES and TripleDES."""

    name: str
    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...


#: Per-block CBC overhead: load previous ciphertext, XOR four words (or two
#: for 64-bit blocks; the difference is noise), pointer bookkeeping.
CBC_BLOCK = mix(movl=8, xorl=4, addl=2, cmpl=1, jnz=1)

#: Per-call overhead of the mode wrapper (the EVP-style dispatch the
#: throughput numbers of Table 11 include).
MODE_CALL = mix(pushl=4, movl=10, popl=4, call=2, ret=2, cmpl=2, jnz=2)

#: Fewest blocks at which :meth:`CBC.decrypt` on the fast path hands an
#: AES input to the byte-sliced :meth:`AES.decrypt_blocks`; shorter inputs
#: (Finished messages, session tickets) keep the per-block calls.
BATCH_MIN_BLOCKS = 16


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
        if isinstance(cipher, AES) and fastpath_enabled():
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
        size = len(data)
        if size % bs:
            raise ValueError("CBC input must be a whole number of blocks")
        nblocks = size // bs
        cipher = self.cipher
        if (nblocks >= BATCH_MIN_BLOCKS and isinstance(cipher, AES)
                and fastpath_enabled()):
            plain = cipher.decrypt_blocks(data)
        else:
            dec = cipher.decrypt_block
            plain = b"".join([dec(data[i:i + bs]) for i in range(0, size, bs)])
        # Block i of the plaintext is D(C_i) ^ C_(i-1), with the IV as C_-1.
        chain = self._iv + data
        self._iv = chain[-bs:]
        if nblocks:
            charge(CBC_BLOCK, times=nblocks, function="cbc_decrypt")
        charge(MODE_CALL, function="cbc_decrypt")
        return (int.from_bytes(plain, "big")
                ^ int.from_bytes(chain[:size], "big")).to_bytes(size, "big")


def cbc_encrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC encryption."""
    return CBC(cipher, iv).encrypt(data)


def cbc_decrypt(cipher: BlockCipher, iv: bytes, data: bytes) -> bytes:
    """One-shot CBC decryption."""
    return CBC(cipher, iv).decrypt(data)
