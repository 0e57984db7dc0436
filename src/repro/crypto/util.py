"""Small shared crypto utilities."""

from __future__ import annotations

from ..perf import charge, mix

#: Constant-time comparison: one pass over both buffers regardless of
#: where they differ (the discipline the Brumley-Boneh attack the paper
#: cites taught implementations to adopt for MAC/padding checks).
CT_COMPARE_BYTE = mix(movb=2, xorl=1, orl=1, incl=1, cmpl=0.5, jnz=0.5)


def ct_equal(a: bytes, b: bytes) -> bool:
    """Compare byte strings in constant time (length leaks, content not)."""
    charge(CT_COMPARE_BYTE, times=max(len(a), len(b), 1),
           function="CRYPTO_memcmp")
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0


def cbc_blocks(cipher, iv: bytes, data: bytes) -> int:
    """The block count of a CBC input to ``cipher``; ``ValueError``
    unless ``iv`` is one block and ``data`` whole blocks."""
    size = cipher.block_size
    if len(iv) != size:
        raise ValueError(f"{cipher.name.upper()} IV must be {size} bytes")
    if len(data) % size:
        raise ValueError(f"{cipher.name.upper()} input must be a whole "
                         "number of blocks")
    return len(data) // size


def cbc_unchain(iv: bytes, data: bytes, decrypted: bytes) -> bytes:
    """CBC plaintext from the block decryptions of ``data``:
    ``P[i] = D(C[i]) ^ C[i-1]`` with ``iv`` as ``C[-1]``, as one int XOR."""
    size = len(data)
    return (int.from_bytes(decrypted, "big")
            ^ int.from_bytes((iv + data)[:size], "big")).to_bytes(size, "big")
