"""RC4 stream cipher, instrumented.

RC4 is the paper's stream-cipher representative: a 256-byte state table, a
key setup that initializes and then key-mixes the whole table, and a
per-byte generation kernel that reads the table three times and updates it
twice (Section 5.1.3).  Two characteristics the paper highlights:

* the key setup is a *large* fraction of small-message encryption -- 28.5%
  at 1 KB (Figure 3) -- because the kernel is so cheap that initializing the
  256-entry table rivals the data pass;
* the kernel's path length is only ~14 instructions/byte with CPI 0.57,
  giving the highest throughput of all studied ciphers (Table 11).
"""

from __future__ import annotations

from ..perf import charge, mix

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------

#: One byte of keystream generation + XOR with the input.  Derivation from
#: the kernel ``i++; j += S[i]; swap(S[i], S[j]); out = S[(S[i]+S[j]) & 255]
#: ^ in``: three table loads and two stores plus the index arithmetic.  The
#: unrolled x86 loop pads with ``nop`` for alignment (visible at 5.96% in
#: Table 12); byte values travel via ``movb``/``movzbl`` pairs counted here
#: as movl/movb, matching the paper's accounting.
RC4_BYTE = mix(
    movl=5.33, andl=2.54, addl=1.91, movb=0.89, incl=0.87, nop=0.83,
    xorl=0.25, cmpl=0.20, popl=0.16, pushl=0.15, xorb=0.45, jnz=0.42,
)

#: One iteration of the table-initialization loop (S[i] = i).
RC4_INIT_ITER = mix(movb=1.5, movl=2, incl=1, cmpl=0.5, jnz=0.5, addl=0.5)

#: One iteration of the key-mixing loop
#: (j = (j + S[i] + key[i % klen]) & 255; swap(S[i], S[j])).  The x86 loop
#: also carries the key-index modulo arithmetic (compare/reset against the
#: key length) and byte<->word conversions around the swap, which is why
#: Figure 3 shows the 256-entry setup costing 28.5% of a 1 KB encryption.
RC4_MIX_ITER = mix(movl=7, movb=3.5, addl=3.5, andl=2.5, incl=1.5, cmpl=2,
                   jnz=1.5)

#: Per-call overhead of RC4_set_key / RC4.
RC4_CALL = mix(pushl=4, movl=8, popl=4, call=1, ret=1, cmpl=2, jnz=1)

#: RC4's kernel carries a serial chain through ``j`` and the swapped table
#: entries, partially hidden by the store-to-load forwarding of the small
#: hot table: measured CPI 0.57 versus ~0.49 at the throughput limit.
RC4_STALL = 1.17


class RC4:
    """RC4 with incremental :meth:`process` (encryption == decryption)."""

    name = "rc4"
    key_size = 16  # SSL's RC4-128 default; any 1..256-byte key is accepted

    def __init__(self, key: bytes):
        if not 1 <= len(key) <= 256:
            raise ValueError("RC4 key must be 1..256 bytes")
        s = list(range(256))
        j = 0
        klen = len(key)
        for i in range(256):
            j = (j + s[i] + key[i % klen]) & 0xFF
            s[i], s[j] = s[j], s[i]
        self._s = s
        self._i = 0
        self._j = 0
        charge(RC4_INIT_ITER, times=256, function="RC4_set_key")
        charge(RC4_MIX_ITER, times=256, function="RC4_set_key",
               stall=RC4_STALL)
        charge(RC4_CALL, function="RC4_set_key")

    def process(self, data: bytes) -> bytes:
        """Encrypt/decrypt ``data``, advancing the keystream."""
        s = self._s
        i, j = self._i, self._j
        out = bytearray(len(data))
        for pos, byte in enumerate(data):
            i = (i + 1) & 0xFF
            j = (j + s[i]) & 0xFF
            s[i], s[j] = s[j], s[i]
            out[pos] = byte ^ s[(s[i] + s[j]) & 0xFF]
        self._i, self._j = i, j
        if data:
            charge(RC4_BYTE, times=len(data), function="RC4",
                   stall=RC4_STALL)
        charge(RC4_CALL, function="RC4")
        return bytes(out)
