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

The faithful path computes blocks with the T-table cores.  Each host
round packs the four state words and unpacks the 16 bytes into locals,
so the sixteen table indices need no shifts or masks; the encryption
core runs a whole CBC input in one loop, chaining in ints, and a single
block is that loop from a zero IV.  On the fast path an instance
computes with libcrypto's ``AES_cbc_encrypt`` (:mod:`.native`), a single
block as a one-block CBC from a zero IV too, or with the same T-table
cores where that binding did not load.  Both backends charge the same
cycles: :meth:`AES.encrypt_cbc` and :meth:`AES.decrypt_cbc` charge one
block plan per block.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Sequence, Tuple

from ..perf import LIBCRYPTO, ChargePlan, charge, charge_plans, mix
from ..runtime import fastpath_enabled
from . import native
from .util import cbc_blocks, cbc_unchain

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


def _charge_phases(function: str, rounds: int) -> None:
    """The faithful loop's per-phase charges of one block."""
    charge(AES_INIT, function=function, stall=AES_STALL)
    charge(AES_ROUND, times=rounds - 1, function=function, stall=AES_STALL)
    charge(AES_FINAL, function=function, stall=AES_STALL)
    charge(AES_CALL, function=function)


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


#: A key schedule as one 4-word round key per round.
_Schedule = Tuple[Tuple[int, int, int, int], ...]


def _by_round(w: Sequence[int]) -> _Schedule:
    """A flat key schedule as one 4-word round key per round."""
    return tuple(tuple(w[i:i + 4]) for i in range(0, len(w), 4))


#: The state as four big-endian words.  Each round packs the words and
#: unpacks the 16 bytes straight into locals, so every table index is a
#: plain subscript instead of a shift and a mask.
_STATE = struct.Struct(">4I")
_ZERO_IV = bytes(16)


def _encrypt_cbc(ek: _Schedule, iv: bytes, data: bytes) -> bytes:
    """Uncharged CBC encryption of every block of ``data`` from ``iv``;
    the chaining value stays four ints from block to block."""
    te0, te1, te2, te3 = TE0, TE1, TE2, TE3
    sb = SBOX
    pack = _STATE.pack
    k0, k1, k2, k3 = ek[0]
    main = ek[1:-1]
    f0, f1, f2, f3 = ek[-1]
    c0, c1, c2, c3 = _STATE.unpack(iv)
    out = []
    for p0, p1, p2, p3 in _STATE.iter_unpack(data):
        s0 = p0 ^ c0 ^ k0
        s1 = p1 ^ c1 ^ k1
        s2 = p2 ^ c2 ^ k2
        s3 = p3 ^ c3 ^ k3
        for r0, r1, r2, r3 in main:
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
            s0 = te0[b0] ^ te1[b5] ^ te2[b10] ^ te3[b15] ^ r0
            s1 = te0[b4] ^ te1[b9] ^ te2[b14] ^ te3[b3] ^ r1
            s2 = te0[b8] ^ te1[b13] ^ te2[b2] ^ te3[b7] ^ r2
            s3 = te0[b12] ^ te1[b1] ^ te2[b6] ^ te3[b11] ^ r3
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
        c0 = ((sb[b0] << 24) | (sb[b5] << 16) | (sb[b10] << 8) | sb[b15]) ^ f0
        c1 = ((sb[b4] << 24) | (sb[b9] << 16) | (sb[b14] << 8) | sb[b3]) ^ f1
        c2 = ((sb[b8] << 24) | (sb[b13] << 16) | (sb[b2] << 8) | sb[b7]) ^ f2
        c3 = ((sb[b12] << 24) | (sb[b1] << 16) | (sb[b6] << 8) | sb[b11]) ^ f3
        out.append(pack(c0, c1, c2, c3))
    return b"".join(out)


def _decrypt_core(dk: _Schedule, block: bytes) -> bytes:
    """Uncharged decryption of one block."""
    td0, td1, td2, td3 = TD0, TD1, TD2, TD3
    pack = _STATE.pack
    k0, k1, k2, k3 = dk[0]
    s0, s1, s2, s3 = _STATE.unpack(block)
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for r0, r1, r2, r3 in dk[1:-1]:
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
        s0 = td0[b0] ^ td1[b13] ^ td2[b10] ^ td3[b7] ^ r0
        s1 = td0[b4] ^ td1[b1] ^ td2[b14] ^ td3[b11] ^ r1
        s2 = td0[b8] ^ td1[b5] ^ td2[b2] ^ td3[b15] ^ r2
        s3 = td0[b12] ^ td1[b9] ^ td2[b6] ^ td3[b3] ^ r3
    (b0, b1, b2, b3, b4, b5, b6, b7,
     b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
    isb = INV_SBOX
    f0, f1, f2, f3 = dk[-1]
    return pack(
        ((isb[b0] << 24) | (isb[b13] << 16) | (isb[b10] << 8) | isb[b7]) ^ f0,
        ((isb[b4] << 24) | (isb[b1] << 16) | (isb[b14] << 8) | isb[b11]) ^ f1,
        ((isb[b8] << 24) | (isb[b5] << 16) | (isb[b2] << 8) | isb[b15]) ^ f2,
        ((isb[b12] << 24) | (isb[b9] << 16) | (isb[b6] << 8) | isb[b3]) ^ f3)


class AES:
    """AES-128/192/256 on 16-byte blocks.

    An instance built on the fast path computes with libcrypto
    (:mod:`.native`) for its whole life when the binding loaded, and
    with the T-table cores otherwise; a hash context keeps its backend
    the same way.  Whichever core runs, a block is charged one plan on
    the fast path and four per-phase charges on the faithful path.  The
    Python key schedules ``_ek``/``_dk`` are built when first read: by
    the T-table cores, or by the Table 4 bench, which reads ``_ek``.
    """

    name = "aes"
    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.key_size = len(key)
        self.rounds = len(key) // 4 + 6
        self._key = bytes(key)
        self._native = (native.AesKey(key)
                        if fastpath_enabled() and native.available else None)
        nwords = 4 * (self.rounds + 1)
        # Decryption-schedule preparation costs the same expansion again
        # plus an InvMixColumns pass; SSL contexts need both directions.
        charge(AES_KEXP_WORD, times=2 * nwords, function="AES_set_encrypt_key")
        charge(AES_CALL, times=2, function="AES_set_encrypt_key")

    @functools.cached_property
    def _ek(self) -> Tuple[Tuple[int, ...], ...]:
        return _by_round(_expand_key(self._key))

    @functools.cached_property
    def _dk(self) -> Tuple[Tuple[int, ...], ...]:
        return _by_round(_inv_mix_key(_expand_key(self._key), self.rounds))

    # -- core -----------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        if fastpath_enabled():
            charge_plans(_ENCRYPT_PLANS[self.rounds])
        else:
            _charge_phases("AES_encrypt", self.rounds)
        if self._native is not None:
            return self._native.cbc(_ZERO_IV, block, True)
        return _encrypt_cbc(self._ek, _ZERO_IV, block)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        if fastpath_enabled():
            charge_plans(_DECRYPT_PLANS[self.rounds])
        else:
            _charge_phases("AES_decrypt", self.rounds)
        if self._native is not None:
            return self._native.cbc(_ZERO_IV, block, False)
        return _decrypt_core(self._dk, block)

    def encrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt every 16-byte block of ``data``, chained from
        ``iv``, in one call; charged as one :meth:`encrypt_block` per
        block.  The last ciphertext block is the next chaining value."""
        charge_plans(_ENCRYPT_PLANS[self.rounds] * cbc_blocks(self, iv, data))
        if self._native is not None:
            return self._native.cbc(iv, data, True)
        return _encrypt_cbc(self._ek, iv, data)

    def decrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC-decrypt every 16-byte block of ``data``, chained from
        ``iv``, in one call; charged as one :meth:`decrypt_block` per
        block."""
        charge_plans(_DECRYPT_PLANS[self.rounds] * cbc_blocks(self, iv, data))
        if self._native is not None:
            return self._native.cbc(iv, data, False)
        dk = self._dk
        return cbc_unchain(iv, data, b"".join(
            [_decrypt_core(dk, data[i:i + 16])
             for i in range(0, len(data), 16)]))
