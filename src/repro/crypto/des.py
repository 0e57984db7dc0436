"""DES and Triple-DES (FIPS 46-3), instrumented.

The paper decomposes a DES block operation into initial permutation,
16 substitution rounds, and final permutation, measuring the substitution
part at 74.7% (DES) and 89.1% (3DES, which runs 3x16 rounds between a single
IP/FP pair) -- Table 6.  Each round XORs the right half with a subkey and
performs eight 6-bit-indexed table lookups (Table 4), which is how the
faithful path executes it: the S-boxes are precomputed fused with the P
permutation (OpenSSL's ``DES_SPtrans`` idea), and the wide bit permutations
(IP, FP, E, PC-1, PC-2) are applied via byte-indexed mask tables built once
from the FIPS tables.  The fast path computes with libcrypto's CBC
functions (:mod:`.native`), a single block as a one-block CBC from a
zero IV, or with the same Python rounds where that binding did not
load.  Both paths charge the same cycles.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

from ..perf import LIBCRYPTO, ChargePlan, charge, charge_plans, mix
from ..runtime import fastpath_enabled
from . import native
from .util import cbc_blocks, cbc_unchain

# ---------------------------------------------------------------------------
# FIPS 46-3 tables (1-based bit positions, MSB = bit 1)
# ---------------------------------------------------------------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
)

_KEY_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

_SBOXES = (
    # S1
    ((14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7),
     (0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8),
     (4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0),
     (15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13)),
    # S2
    ((15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10),
     (3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5),
     (0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15),
     (13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9)),
    # S3
    ((10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8),
     (13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1),
     (13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7),
     (1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12)),
    # S4
    ((7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15),
     (13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9),
     (10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4),
     (3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14)),
    # S5
    ((2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9),
     (14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6),
     (4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14),
     (11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3)),
    # S6
    ((12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11),
     (10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8),
     (9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6),
     (4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13)),
    # S7
    ((4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1),
     (13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6),
     (1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2),
     (6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12)),
    # S8
    ((13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7),
     (1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2),
     (7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8),
     (2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11)),
)


# ---------------------------------------------------------------------------
# Permutation machinery: byte-indexed mask tables
# ---------------------------------------------------------------------------

def _build_perm_tables(perm: Sequence[int], in_bits: int) -> List[List[int]]:
    """Precompute, per input byte, the output mask contributed by that byte.

    ``perm[k]`` (1-based) is the input bit that lands in output bit ``k``
    (output MSB first).  Applying the permutation is then one table lookup
    and OR per input byte.
    """
    nout = len(perm)
    nbytes = in_bits // 8
    tables: List[List[int]] = [[0] * 256 for _ in range(nbytes)]
    for out_pos, src in enumerate(perm):
        src0 = src - 1
        byte_i, bit_i = divmod(src0, 8)
        in_byte_mask = 0x80 >> bit_i
        out_mask = 1 << (nout - 1 - out_pos)
        tbl = tables[byte_i]
        for b in range(256):
            if b & in_byte_mask:
                tbl[b] |= out_mask
    return tables


def _apply_perm(tables: List[List[int]], value: int, in_bits: int) -> int:
    out = 0
    shift = in_bits - 8
    for tbl in tables:
        out |= tbl[(value >> shift) & 0xFF]
        shift -= 8
    return out


_IP_T = _build_perm_tables(_IP, 64)
_FP_T = _build_perm_tables(_FP, 64)
_E_T = _build_perm_tables(_E, 32)
_PC1_T = _build_perm_tables(_PC1, 64)
_PC2_T = _build_perm_tables(_PC2, 56)


def _build_sp_tables() -> List[List[int]]:
    """Fuse each S-box with the P permutation (DES_SPtrans equivalent).

    ``SP[i][v]`` is ``P(S_i(v) << (28 - 4*i))`` so a round's eight lookups
    OR/XOR together into the already-permuted 32-bit result.
    """
    p_tables = _build_perm_tables(_P, 32)
    sp: List[List[int]] = []
    for i, sbox in enumerate(_SBOXES):
        table = []
        for v in range(64):
            row = ((v >> 4) & 0x2) | (v & 0x1)
            col = (v >> 1) & 0xF
            placed = sbox[row][col] << (28 - 4 * i)
            table.append(_apply_perm(p_tables, placed, 32))
        sp.append(table)
    return sp


_SP = _build_sp_tables()

_M32 = 0xFFFFFFFF
_M28 = 0x0FFFFFFF
_ZERO_IV = bytes(8)

#: The four weak and twelve semi-weak DES keys (FIPS 74 / Menezes et al.,
#: the handbook the paper cites).  With a weak key, encryption equals
#: decryption; semi-weak keys come in pairs that invert each other.
#: OpenSSL's DES_set_key_checked rejects them, as does our optional check.
WEAK_KEYS = tuple(bytes.fromhex(h) for h in (
    "0101010101010101", "FEFEFEFEFEFEFEFE",
    "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E",
))
SEMI_WEAK_KEYS = tuple(bytes.fromhex(h) for h in (
    "01FE01FE01FE01FE", "FE01FE01FE01FE01",
    "1FE01FE00EF10EF1", "E01FE01FF10EF10E",
    "01E001E001F101F1", "E001E001F101F101",
    "1FFE1FFE0EFE0EFE", "FE1FFE1FFE0EFE0E",
    "011F011F010E010E", "1F011F010E010E01",
    "E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1",
))


def _strip_parity(key: bytes) -> bytes:
    """Zero each byte's parity bit so weak-key comparison ignores parity."""
    return bytes(b & 0xFE for b in key)


def is_weak_key(key: bytes) -> bool:
    """True for the 4 weak and 12 semi-weak keys (parity-insensitive)."""
    if len(key) != 8:
        raise ValueError("DES key must be 8 bytes")
    stripped = _strip_parity(key)
    return any(stripped == _strip_parity(k)
               for k in WEAK_KEYS + SEMI_WEAK_KEYS)

# ---------------------------------------------------------------------------
# Instruction mixes
# ---------------------------------------------------------------------------
# Target structure (Tables 6, 11, 12): 552 instructions per 8-byte block
# (69 per byte), split ~13% IP / 75% substitution / 12% FP for single DES.

#: The initial permutation: the classic x86 IP is ~18 swap steps of
#: shift/XOR/AND/rotate on the two halves plus loads/stores.
DES_IP = mix(movl=14, xorl=24, andl=10, shrl=8, shll=4, roll=3, rorl=3,
             movb=6, pushl=2, popl=2)

#: One substitution round: expand+key XOR then eight 6-bit table lookups
#: XORed into the left half.  Per Table 4 each lookup is a shift, a mask,
#: a byte extract and the load itself; the XOR tree joins them.
DES_ROUND = mix(xorl=11.5, movb=4.5, movl=3.2, andl=3.6, shrl=1.5,
                rorl=0.8, roll=0.4, addl=0.02, pushl=0.02, popl=0.02)

#: The final permutation (inverse structure of IP).
DES_FP = mix(movl=14, xorl=24, andl=10, shrl=8, shll=4, roll=3, rorl=3,
             movb=6, pushl=2, popl=2, ret=1, call=1)

#: One round of key-schedule generation: rotate C/D, apply PC-2 via table
#: lookups, store two subkey words.
DES_KS_ROUND = mix(movl=16, andl=8, shrl=6, shll=4, orl=6, xorl=2, movb=8,
                   addl=2, cmpl=1, jnz=1)

#: PC-1 and per-call overhead of DES_set_key.
DES_KS_SETUP = mix(movl=20, andl=8, shrl=8, orl=8, movb=8, pushl=4, popl=4,
                   call=1, ret=1)

#: Per-call overhead of DES_encrypt/decrypt.
DES_CALL = mix(pushl=4, movl=10, popl=4, call=1, ret=1, cmpl=1, jnz=1)

#: The eight lookups within a round are independent, but each round's
#: E-expansion depends on the previous round's output and every lookup pays
#: load-use latency: measured CPI 0.67 versus ~0.48 at the throughput limit.
DES_STALL = 1.39


def _block_plan(function: str, rounds: int) -> ChargePlan:
    return ChargePlan([
        (DES_IP, 1.0, function, LIBCRYPTO, DES_STALL),
        (DES_ROUND, rounds, function, LIBCRYPTO, DES_STALL),
        (DES_FP, 1.0, function, LIBCRYPTO, DES_STALL),
        (DES_CALL, 1.0, function, LIBCRYPTO, 1.0),
    ])


# ---------------------------------------------------------------------------
# Key schedule and block operation
# ---------------------------------------------------------------------------

def _rotl28(v: int, n: int) -> int:
    return ((v << n) | (v >> (28 - n))) & _M28


def _key_schedule(key: bytes) -> List[int]:
    """16 48-bit subkeys from an 8-byte key (parity bits ignored)."""
    k = int.from_bytes(key, "big")
    cd = _apply_perm(_PC1_T, k, 64)
    c, d = (cd >> 28) & _M28, cd & _M28
    subkeys: List[int] = []
    for shift in _KEY_SHIFTS:
        c = _rotl28(c, shift)
        d = _rotl28(d, shift)
        subkeys.append(_apply_perm(_PC2_T, (c << 28) | d, 56))
    return subkeys


def _feistel(r: int, subkey: int) -> int:
    x = _apply_perm(_E_T, r, 32) ^ subkey
    sp = _SP
    return (sp[0][(x >> 42) & 0x3F] ^ sp[1][(x >> 36) & 0x3F]
            ^ sp[2][(x >> 30) & 0x3F] ^ sp[3][(x >> 24) & 0x3F]
            ^ sp[4][(x >> 18) & 0x3F] ^ sp[5][(x >> 12) & 0x3F]
            ^ sp[6][(x >> 6) & 0x3F] ^ sp[7][x & 0x3F])


def _rounds(l: int, r: int, subkeys: Sequence[int]) -> Tuple[int, int]:
    for k in subkeys:
        l, r = r, l ^ _feistel(r, k)
    return l, r


def _crypt(v: int, schedules: Sequence[Sequence[int]]) -> int:
    """Uncharged DES (one schedule) or EDE 3DES (three) of one 64-bit
    block: one IP, 16 rounds per schedule with the halves swapped after
    each stage, one FP."""
    v = _apply_perm(_IP_T, v, 64)
    l, r = v >> 32, v & _M32
    for subkeys in schedules:
        r, l = _rounds(l, r, subkeys)
    return _apply_perm(_FP_T, (l << 32) | r, 64)


def _charge_phases(function: str, rounds: int) -> None:
    """The faithful loop's per-phase charges of one block."""
    charge(DES_IP, function=function, stall=DES_STALL)
    charge(DES_ROUND, times=rounds, function=function, stall=DES_STALL)
    charge(DES_FP, function=function, stall=DES_STALL)
    charge(DES_CALL, function=function)


class _DesCipher:
    """What DES and 3DES share.  An instance built on the fast path
    computes with libcrypto (:mod:`.native`) for its whole life when the
    binding loaded, and with :func:`_crypt` otherwise; whichever core
    runs, a block is charged one plan on the fast path and four
    per-phase charges on the faithful path."""

    name: str
    rounds: int
    block_size = 8
    _function: str
    _plan: Tuple[ChargePlan]

    def _bind(self, key: bytes) -> None:
        self._key = bytes(key)
        self._native = (native.DesKey(key)
                        if fastpath_enabled() and native.available else None)

    @functools.cached_property
    def _enc(self) -> Tuple[Sequence[int], ...]:
        """One 16-subkey schedule per DES stage, EDE: the middle stage of
        3DES decrypts.  Built when first read: by :func:`_crypt`, or by
        the Table 4 bench."""
        stages = [_key_schedule(self._key[i:i + 8])
                  for i in range(0, len(self._key), 8)]
        return tuple(subkeys[::-1] if stage % 2 else subkeys
                     for stage, subkeys in enumerate(stages))

    @functools.cached_property
    def _dec(self) -> Tuple[Sequence[int], ...]:
        """The stages of ``_enc`` in reverse, each schedule reversed."""
        return tuple(subkeys[::-1] for subkeys in reversed(self._enc))

    def _block(self, block: bytes, encrypt: bool) -> bytes:
        if len(block) != 8:
            raise ValueError(f"{self.name.upper()} block must be 8 bytes")
        if fastpath_enabled():
            charge_plans(self._plan)
        else:
            _charge_phases(self._function, self.rounds)
        if self._native is not None:
            return self._native.cbc(_ZERO_IV, block, encrypt)
        return _crypt(int.from_bytes(block, "big"),
                      self._enc if encrypt else self._dec).to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        return self._block(block, True)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._block(block, False)

    def encrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC-encrypt every 8-byte block of ``data``, chained from
        ``iv``, in one call; charged as one :meth:`encrypt_block` per
        block."""
        charge_plans(self._plan * cbc_blocks(self, iv, data))
        if self._native is not None:
            return self._native.cbc(iv, data, True)
        out = bytearray()
        prev = int.from_bytes(iv, "big")
        for i in range(0, len(data), 8):
            prev = _crypt(int.from_bytes(data[i:i + 8], "big") ^ prev,
                          self._enc)
            out += prev.to_bytes(8, "big")
        return bytes(out)

    def decrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC-decrypt every 8-byte block of ``data``, chained from
        ``iv``, in one call; charged as one :meth:`decrypt_block` per
        block."""
        charge_plans(self._plan * cbc_blocks(self, iv, data))
        if self._native is not None:
            return self._native.cbc(iv, data, False)
        return cbc_unchain(iv, data, b"".join(
            [_crypt(int.from_bytes(data[i:i + 8], "big"),
                    self._dec).to_bytes(8, "big")
             for i in range(0, len(data), 8)]))


class DES(_DesCipher):
    """Single DES on 8-byte blocks."""

    name = "des"
    key_size = 8
    rounds = 16
    _function = "DES_encrypt"
    _plan = (_block_plan(_function, rounds),)

    def __init__(self, key: bytes, check_weak: bool = False):
        if len(key) != 8:
            raise ValueError("DES key must be 8 bytes")
        if check_weak and is_weak_key(key):
            raise ValueError("weak or semi-weak DES key rejected")
        self._bind(key)
        charge(DES_KS_SETUP, function="DES_set_key")
        charge(DES_KS_ROUND, times=16, function="DES_set_key")


class TripleDES(_DesCipher):
    """3DES in EDE mode (encrypt-decrypt-encrypt with three subkeys).

    Mirrors OpenSSL's ``DES_encrypt3``: one IP, 3x16 rounds, one FP --
    which is why the substitution share rises to ~89% (Table 6).
    """

    name = "3des"
    key_size = 24
    rounds = 48
    _function = "DES_encrypt3"
    _plan = (_block_plan(_function, rounds),)

    def __init__(self, key: bytes):
        if len(key) != 24:
            raise ValueError("3DES key must be 24 bytes (three DES keys)")
        self._bind(key)
        charge(DES_KS_SETUP, times=3, function="DES_set_key")
        charge(DES_KS_ROUND, times=48, function="DES_set_key")
