"""AES / Rijndael (FIPS 197), table-based, instrumented.

This is the 32-bit table implementation the paper profiles (Section 5.1.1):
four 256-entry tables ``Te0..Te3`` fold SubBytes, ShiftRows and MixColumns
into four lookups per output word, so one main round is sixteen table
lookups XORed with the round keys (Table 4).  The paper's Table 5 splits a
block operation into (1) state load + initial AddRoundKey, (2) the main
rounds -- 9 for a 128-bit key, 13 for a 256-bit key, ~71%/78% of the time --
and (3) the last round (which uses the plain S-box) plus the state store.
The decryption path uses the inverse tables ``Td0..Td3`` over an
InvMixColumns-transformed key schedule (the standard equivalent inverse
cipher), making decryption cost symmetric with encryption.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..perf import LIBCRYPTO, ChargePlan, charge, charge_plans, mix
from ..runtime import fastpath_enabled

_M32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# S-box generation (from GF(2^8) arithmetic, not a pasted table)
# ---------------------------------------------------------------------------

def _gf_mul(a: int, b: int) -> int:
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return p


def _build_sbox() -> tuple:
    # Multiplicative inverses in GF(2^8) via exponentiation tables on the
    # generator 3, then the affine transform of FIPS 197 section 5.1.1.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]
    sbox = [0] * 256
    for v in range(256):
        inv = 0 if v == 0 else exp[255 - log[v]]
        s = inv
        for shift in (1, 2, 3, 4):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[v] = s ^ 0x63
    inv_sbox = [0] * 256
    for v, s in enumerate(sbox):
        inv_sbox[s] = v
    return tuple(sbox), tuple(inv_sbox)


SBOX, INV_SBOX = _build_sbox()


def _build_enc_tables() -> List[tuple]:
    te0 = []
    for x in range(256):
        s = SBOX[x]
        w = (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
        te0.append(w)
    te = [tuple(te0)]
    for r in (8, 16, 24):
        te.append(tuple(((w >> r) | (w << (32 - r))) & _M32 for w in te0))
    return te


def _build_dec_tables() -> List[tuple]:
    td0 = []
    for x in range(256):
        s = INV_SBOX[x]
        w = ((_gf_mul(s, 14) << 24) | (_gf_mul(s, 9) << 16)
             | (_gf_mul(s, 13) << 8) | _gf_mul(s, 11))
        td0.append(w)
    td = [tuple(td0)]
    for r in (8, 16, 24):
        td.append(tuple(((w >> r) | (w << (32 - r))) & _M32 for w in td0))
    return td


TE0, TE1, TE2, TE3 = _build_enc_tables()
TD0, TD1, TD2, TD3 = _build_dec_tables()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------
# Target structure (Tables 5, 11, 12): ~800 instructions per 16-byte block
# for AES-128 (path length 50/byte), split ~12% init / 71% main rounds /
# 17% last round+store; CPI 0.66 with movl/xorl dominating.

#: Phase 1: load the 16-byte block into the four state words and XOR the
#: initial round key (shift/XOR per the paper).
AES_INIT = mix(movl=36, xorl=14, movb=16, shll=8, orl=8, pushl=5, popl=2,
               cmpl=1, addl=2)

#: One main round: 4 basic operations x (4 byte extractions via shrl/andl/
#: movb, 4 table loads, 4 XORs) + round-key load/XOR + loop control.
AES_ROUND = mix(movl=23.5, xorl=16.5, movb=7.0, andl=4.5, shrl=3.0,
                decl=1.5, jnz=1.4, incl=1.1, xorb=1.0, addl=0.8,
                leal=0.5, pushl=0.2, popl=0.2)

#: Phase 3: the last round (S-box bytes, no MixColumns) and the store of the
#: cipher state back to the byte array.
AES_FINAL = mix(movl=42, xorl=20, movb=24, andl=12, shrl=10, shll=8, orl=6,
                xorb=4, popl=3, ret=1, call=1)

#: One word of key expansion (S-box substitutions, rcon XOR, stores).
AES_KEXP_WORD = mix(movl=4, movb=2, xorl=2, shrl=1, andl=1, shll=0.5,
                    orl=0.5, cmpl=0.5, jnz=0.5)

#: Per-call overhead of AES_set_encrypt_key / AES_encrypt.
AES_CALL = mix(pushl=4, movl=8, popl=4, call=1, ret=1, cmpl=1, jnz=1)

#: Each round's sixteen lookups are mutually independent, but the paper's
#: P4 pays L1 load-use latency on every lookup of the round-to-round chain:
#: measured CPI 0.66 versus ~0.50 at the throughput limit.
AES_STALL = 1.32


def _block_plans(function: str) -> Dict[int, Tuple[ChargePlan]]:
    """The faithful loop's per-block charges, for the fast path, by
    round count."""
    return {rounds: (ChargePlan([
        (AES_INIT, 1.0, function, LIBCRYPTO, AES_STALL),
        (AES_ROUND, rounds - 1, function, LIBCRYPTO, AES_STALL),
        (AES_FINAL, 1.0, function, LIBCRYPTO, AES_STALL),
        (AES_CALL, 1.0, function, LIBCRYPTO, 1.0),
    ]),) for rounds in (10, 12, 14)}


_ENCRYPT_PLANS = _block_plans("AES_encrypt")
_DECRYPT_PLANS = _block_plans("AES_decrypt")


# ---------------------------------------------------------------------------
# Key expansion
# ---------------------------------------------------------------------------

def _expand_key(key: bytes) -> List[int]:
    nk = len(key) // 4
    nr = nk + 6
    w = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        t = w[i - 1]
        if i % nk == 0:
            t = ((t << 8) | (t >> 24)) & _M32  # RotWord
            t = ((SBOX[(t >> 24) & 0xFF] << 24) | (SBOX[(t >> 16) & 0xFF] << 16)
                 | (SBOX[(t >> 8) & 0xFF] << 8) | SBOX[t & 0xFF])
            t ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            t = ((SBOX[(t >> 24) & 0xFF] << 24) | (SBOX[(t >> 16) & 0xFF] << 16)
                 | (SBOX[(t >> 8) & 0xFF] << 8) | SBOX[t & 0xFF])
        w.append(w[i - nk] ^ t)
    return w


def _inv_mix_key(w: Sequence[int], nr: int) -> List[int]:
    """Equivalent-inverse-cipher key schedule: reverse round order and apply
    InvMixColumns to the inner round keys."""
    dw = list(w)
    # Reverse in round-sized chunks.
    out: List[int] = []
    for r in range(nr, -1, -1):
        out.extend(dw[4 * r:4 * r + 4])
    for i in range(4, 4 * nr):
        v = out[i]
        out[i] = (TD0[SBOX[(v >> 24) & 0xFF]] ^ TD1[SBOX[(v >> 16) & 0xFF]]
                  ^ TD2[SBOX[(v >> 8) & 0xFF]] ^ TD3[SBOX[v & 0xFF]])
    return out


#: Expanded-schedule memo for the fast path.  Key expansion is deterministic
#: in the key bytes, so contexts for a repeated key can share the schedule
#: lists; the modeled expansion cost is still charged per context.
_SCHEDULE_CACHE: Dict[bytes, Tuple[List[int], List[int]]] = {}
_SCHEDULE_CACHE_MAX = 512


def _schedules(key: bytes) -> Tuple[List[int], List[int]]:
    cached = _SCHEDULE_CACHE.get(key)
    if cached is None:
        ek = _expand_key(key)
        cached = (ek, _inv_mix_key(ek, len(key) // 4 + 6))
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
            _SCHEDULE_CACHE.clear()
        _SCHEDULE_CACHE[key] = cached
    return cached


def _encrypt_core(ek: Sequence[int], rounds: int, block: bytes) -> bytes:
    """Uncharged fast encryption core (tables bound to locals)."""
    te0, te1, te2, te3 = TE0, TE1, TE2, TE3
    s0 = int.from_bytes(block[0:4], "big") ^ ek[0]
    s1 = int.from_bytes(block[4:8], "big") ^ ek[1]
    s2 = int.from_bytes(block[8:12], "big") ^ ek[2]
    s3 = int.from_bytes(block[12:16], "big") ^ ek[3]
    k = 4
    for _ in range(rounds - 1):
        t0 = (te0[(s0 >> 24) & 0xFF] ^ te1[(s1 >> 16) & 0xFF]
              ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ ek[k])
        t1 = (te0[(s1 >> 24) & 0xFF] ^ te1[(s2 >> 16) & 0xFF]
              ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ ek[k + 1])
        t2 = (te0[(s2 >> 24) & 0xFF] ^ te1[(s3 >> 16) & 0xFF]
              ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ ek[k + 2])
        t3 = (te0[(s3 >> 24) & 0xFF] ^ te1[(s0 >> 16) & 0xFF]
              ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ ek[k + 3])
        s0, s1, s2, s3 = t0, t1, t2, t3
        k += 4
    sb = SBOX
    t0 = ((sb[(s0 >> 24) & 0xFF] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
          | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ ek[k]
    t1 = ((sb[(s1 >> 24) & 0xFF] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
          | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ ek[k + 1]
    t2 = ((sb[(s2 >> 24) & 0xFF] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
          | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ ek[k + 2]
    t3 = ((sb[(s3 >> 24) & 0xFF] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
          | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ ek[k + 3]
    return ((t0 << 96) | (t1 << 64) | (t2 << 32) | t3).to_bytes(16, "big")


def _decrypt_core(dk: Sequence[int], rounds: int, block: bytes) -> bytes:
    """Uncharged fast decryption core (tables bound to locals)."""
    td0, td1, td2, td3 = TD0, TD1, TD2, TD3
    s0 = int.from_bytes(block[0:4], "big") ^ dk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ dk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ dk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ dk[3]
    k = 4
    for _ in range(rounds - 1):
        t0 = (td0[(s0 >> 24) & 0xFF] ^ td1[(s3 >> 16) & 0xFF]
              ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ dk[k])
        t1 = (td0[(s1 >> 24) & 0xFF] ^ td1[(s0 >> 16) & 0xFF]
              ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ dk[k + 1])
        t2 = (td0[(s2 >> 24) & 0xFF] ^ td1[(s1 >> 16) & 0xFF]
              ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ dk[k + 2])
        t3 = (td0[(s3 >> 24) & 0xFF] ^ td1[(s2 >> 16) & 0xFF]
              ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ dk[k + 3])
        s0, s1, s2, s3 = t0, t1, t2, t3
        k += 4
    isb = INV_SBOX
    t0 = ((isb[(s0 >> 24) & 0xFF] << 24) | (isb[(s3 >> 16) & 0xFF] << 16)
          | (isb[(s2 >> 8) & 0xFF] << 8) | isb[s1 & 0xFF]) ^ dk[k]
    t1 = ((isb[(s1 >> 24) & 0xFF] << 24) | (isb[(s0 >> 16) & 0xFF] << 16)
          | (isb[(s3 >> 8) & 0xFF] << 8) | isb[s2 & 0xFF]) ^ dk[k + 1]
    t2 = ((isb[(s2 >> 24) & 0xFF] << 24) | (isb[(s1 >> 16) & 0xFF] << 16)
          | (isb[(s0 >> 8) & 0xFF] << 8) | isb[s3 & 0xFF]) ^ dk[k + 2]
    t3 = ((isb[(s3 >> 24) & 0xFF] << 24) | (isb[(s2 >> 16) & 0xFF] << 16)
          | (isb[(s1 >> 8) & 0xFF] << 8) | isb[s0 & 0xFF]) ^ dk[k + 3]
    return ((t0 << 96) | (t1 << 64) | (t2 << 32) | t3).to_bytes(16, "big")


class AES:
    """AES-128/192/256 on 16-byte blocks."""

    name = "aes"
    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.key_size = len(key)
        self.rounds = len(key) // 4 + 6
        if fastpath_enabled():
            self._ek, self._dk = _schedules(bytes(key))
        else:
            self._ek = _expand_key(key)
            self._dk = _inv_mix_key(self._ek, self.rounds)
        nwords = 4 * (self.rounds + 1)
        # Decryption-schedule preparation costs the same expansion again
        # plus an InvMixColumns pass; SSL contexts need both directions.
        charge(AES_KEXP_WORD, times=2 * nwords, function="AES_set_encrypt_key")
        charge(AES_CALL, times=2, function="AES_set_encrypt_key")

    # -- core -----------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        if fastpath_enabled():
            charge_plans(_ENCRYPT_PLANS[self.rounds])
            return _encrypt_core(self._ek, self.rounds, block)
        ek = self._ek
        s0 = int.from_bytes(block[0:4], "big") ^ ek[0]
        s1 = int.from_bytes(block[4:8], "big") ^ ek[1]
        s2 = int.from_bytes(block[8:12], "big") ^ ek[2]
        s3 = int.from_bytes(block[12:16], "big") ^ ek[3]
        charge(AES_INIT, function="AES_encrypt", stall=AES_STALL)
        k = 4
        for _ in range(self.rounds - 1):
            t0 = (TE0[(s0 >> 24) & 0xFF] ^ TE1[(s1 >> 16) & 0xFF]
                  ^ TE2[(s2 >> 8) & 0xFF] ^ TE3[s3 & 0xFF] ^ ek[k])
            t1 = (TE0[(s1 >> 24) & 0xFF] ^ TE1[(s2 >> 16) & 0xFF]
                  ^ TE2[(s3 >> 8) & 0xFF] ^ TE3[s0 & 0xFF] ^ ek[k + 1])
            t2 = (TE0[(s2 >> 24) & 0xFF] ^ TE1[(s3 >> 16) & 0xFF]
                  ^ TE2[(s0 >> 8) & 0xFF] ^ TE3[s1 & 0xFF] ^ ek[k + 2])
            t3 = (TE0[(s3 >> 24) & 0xFF] ^ TE1[(s0 >> 16) & 0xFF]
                  ^ TE2[(s1 >> 8) & 0xFF] ^ TE3[s2 & 0xFF] ^ ek[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        charge(AES_ROUND, times=self.rounds - 1, function="AES_encrypt",
               stall=AES_STALL)
        sb = SBOX
        t0 = ((sb[(s0 >> 24) & 0xFF] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
              | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ ek[k]
        t1 = ((sb[(s1 >> 24) & 0xFF] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
              | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ ek[k + 1]
        t2 = ((sb[(s2 >> 24) & 0xFF] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
              | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ ek[k + 2]
        t3 = ((sb[(s3 >> 24) & 0xFF] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
              | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ ek[k + 3]
        charge(AES_FINAL, function="AES_encrypt", stall=AES_STALL)
        charge(AES_CALL, function="AES_encrypt")
        return b"".join(t.to_bytes(4, "big") for t in (t0, t1, t2, t3))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        if fastpath_enabled():
            charge_plans(_DECRYPT_PLANS[self.rounds])
            return _decrypt_core(self._dk, self.rounds, block)
        dk = self._dk
        s0 = int.from_bytes(block[0:4], "big") ^ dk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ dk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ dk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ dk[3]
        charge(AES_INIT, function="AES_decrypt", stall=AES_STALL)
        k = 4
        for _ in range(self.rounds - 1):
            t0 = (TD0[(s0 >> 24) & 0xFF] ^ TD1[(s3 >> 16) & 0xFF]
                  ^ TD2[(s2 >> 8) & 0xFF] ^ TD3[s1 & 0xFF] ^ dk[k])
            t1 = (TD0[(s1 >> 24) & 0xFF] ^ TD1[(s0 >> 16) & 0xFF]
                  ^ TD2[(s3 >> 8) & 0xFF] ^ TD3[s2 & 0xFF] ^ dk[k + 1])
            t2 = (TD0[(s2 >> 24) & 0xFF] ^ TD1[(s1 >> 16) & 0xFF]
                  ^ TD2[(s0 >> 8) & 0xFF] ^ TD3[s3 & 0xFF] ^ dk[k + 2])
            t3 = (TD0[(s3 >> 24) & 0xFF] ^ TD1[(s2 >> 16) & 0xFF]
                  ^ TD2[(s1 >> 8) & 0xFF] ^ TD3[s0 & 0xFF] ^ dk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        charge(AES_ROUND, times=self.rounds - 1, function="AES_decrypt",
               stall=AES_STALL)
        isb = INV_SBOX
        t0 = ((isb[(s0 >> 24) & 0xFF] << 24) | (isb[(s3 >> 16) & 0xFF] << 16)
              | (isb[(s2 >> 8) & 0xFF] << 8) | isb[s1 & 0xFF]) ^ dk[k]
        t1 = ((isb[(s1 >> 24) & 0xFF] << 24) | (isb[(s0 >> 16) & 0xFF] << 16)
              | (isb[(s3 >> 8) & 0xFF] << 8) | isb[s2 & 0xFF]) ^ dk[k + 1]
        t2 = ((isb[(s2 >> 24) & 0xFF] << 24) | (isb[(s1 >> 16) & 0xFF] << 16)
              | (isb[(s0 >> 8) & 0xFF] << 8) | isb[s3 & 0xFF]) ^ dk[k + 2]
        t3 = ((isb[(s3 >> 24) & 0xFF] << 24) | (isb[(s2 >> 16) & 0xFF] << 16)
              | (isb[(s1 >> 8) & 0xFF] << 8) | isb[s0 & 0xFF]) ^ dk[k + 3]
        charge(AES_FINAL, function="AES_decrypt", stall=AES_STALL)
        charge(AES_CALL, function="AES_decrypt")
        return b"".join(t.to_bytes(4, "big") for t in (t0, t1, t2, t3))
