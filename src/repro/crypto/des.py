"""DES and Triple-DES (FIPS 46-3), instrumented.

The paper decomposes a DES block operation into initial permutation,
16 substitution rounds, and final permutation, measuring the substitution
part at 74.7% (DES) and 89.1% (3DES, which runs 3x16 rounds between a single
IP/FP pair) -- Table 6.  Each round XORs the right half with a subkey and
performs eight 6-bit-indexed table lookups (Table 4), which is how the
faithful path executes it: the S-boxes are precomputed fused with the P
permutation (OpenSSL's ``DES_SPtrans`` idea), and the wide bit permutations
(IP, FP, E, PC-1, PC-2) are applied via byte-indexed mask tables built once
from the FIPS tables.  The fast path keeps both halves E-expanded from IP
to FP, so a round is one subkey XOR and four lookups, each into a table
that pairs two SP boxes already passed through E.  Both paths charge the
same per-block plans.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..perf import LIBCRYPTO, ChargePlan, charge, charge_plans, mix
from ..runtime import fastpath_enabled

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


#: The faithful loops' per-block charges, for the fast path.
_DES_BLOCK = (_block_plan("DES_encrypt", 16),)
_DES3_BLOCK = (_block_plan("DES_encrypt3", 48),)


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


def _build_perm_fast(tables: List[List[int]], in_bits: int):
    """Generate an unrolled wide-permutation lookup (one OR chain)."""
    shifts = list(range(in_bits - 8, -1, -8))
    expr = " | ".join(
        f"t{i}[(v >> {s}) & 0xFF]" if s else f"t{i}[v & 0xFF]"
        for i, s in enumerate(shifts))
    lines = ["def _perm(v):", f"    return {expr}"]
    namespace = {f"t{i}": tables[i] for i in range(len(tables))}
    exec(compile("\n".join(lines), "<des-perm-fastpath>", "exec"), namespace)
    return namespace["_perm"]


_ip_fast = _build_perm_fast(_IP_T, 64)
_fp_fast = _build_perm_fast(_FP_T, 64)
_e_fast = _build_perm_fast(_E_T, 32)
#: Undoes E: output bit b is the first copy of input bit b in the
#: expanded half.
_e_inv_fast = _build_perm_fast(
    _build_perm_tables([_E.index(b) + 1 for b in range(1, 33)], 48), 48)


def _build_rounds_fast():
    """Generate a fully unrolled 16-round Feistel pass (the fast backend).

    Both halves arrive and leave E-expanded (48 bits).  E only selects
    and copies bits, so ``E(L ^ f) = E(L) ^ E(f)``: a round XORs the
    expanded right half with the subkey as is, and XORs E of the SP
    outputs into the expanded left half.  Each of the four lookups reads
    a pair of S-boxes by 12 bits of ``x``.  The 16 subkeys unpack into
    locals and the halves alternate role names instead of swapping.
    Bit-identical to :func:`_rounds` by construction.
    """
    lines = [
        "def _rounds_unrolled(l, r, subkeys):",
        "    " + ", ".join(f"k{i}" for i in range(16)) + " = subkeys",
    ]
    names = ["l", "r"]
    for i in range(16):
        L, R = names
        lines.append(f"    x = {R} ^ k{i}")
        lines.append(f"    {L} ^= (t0[x >> 36] ^ t1[(x >> 24) & 0xFFF]"
                     " ^ t2[(x >> 12) & 0xFFF] ^ t3[x & 0xFFF])")
        names.reverse()
    lines.append(f"    return {names[0]}, {names[1]}")
    esp = [[_e_fast(v) for v in sp] for sp in _SP]
    # t_n[(a << 6) | b] = E(SP[2n][a]) ^ E(SP[2n+1][b]): 4 x 4096 ints.
    namespace = {f"t{n}": [a ^ b for a in esp[2 * n] for b in esp[2 * n + 1]]
                 for n in range(4)}
    exec(compile("\n".join(lines), "<des-fastpath>", "exec"), namespace)
    return namespace["_rounds_unrolled"]


_rounds_fast = _build_rounds_fast()


def _rounds(l: int, r: int, subkeys: Sequence[int]) -> Tuple[int, int]:
    for k in subkeys:
        l, r = r, l ^ _feistel(r, k)
    return l, r


class DES:
    """Single DES on 8-byte blocks."""

    name = "des"
    block_size = 8
    key_size = 8
    rounds = 16

    def __init__(self, key: bytes, check_weak: bool = False):
        if len(key) != 8:
            raise ValueError("DES key must be 8 bytes")
        if check_weak and is_weak_key(key):
            raise ValueError("weak or semi-weak DES key rejected")
        self._enc_keys = _key_schedule(key)
        self._dec_keys = list(reversed(self._enc_keys))
        charge(DES_KS_SETUP, function="DES_set_key")
        charge(DES_KS_ROUND, times=16, function="DES_set_key")

    def _crypt_block(self, block: bytes, subkeys: Sequence[int]) -> bytes:
        if len(block) != 8:
            raise ValueError("DES block must be 8 bytes")
        if fastpath_enabled():
            charge_plans(_DES_BLOCK)
            v = _ip_fast(int.from_bytes(block, "big"))
            l, r = _rounds_fast(_e_fast(v >> 32), _e_fast(v & _M32),
                                subkeys)
            return _fp_fast((_e_inv_fast(r) << 32)
                            | _e_inv_fast(l)).to_bytes(8, "big")
        v = _apply_perm(_IP_T, int.from_bytes(block, "big"), 64)
        charge(DES_IP, function="DES_encrypt", stall=DES_STALL)
        l, r = (v >> 32) & _M32, v & _M32
        l, r = _rounds(l, r, subkeys)
        charge(DES_ROUND, times=16, function="DES_encrypt", stall=DES_STALL)
        preoutput = (r << 32) | l  # final swap
        out = _apply_perm(_FP_T, preoutput, 64)
        charge(DES_FP, function="DES_encrypt", stall=DES_STALL)
        charge(DES_CALL, function="DES_encrypt")
        return out.to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._enc_keys)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._dec_keys)


class TripleDES:
    """3DES in EDE mode (encrypt-decrypt-encrypt with three subkeys).

    Mirrors OpenSSL's ``DES_encrypt3``: one IP, 3x16 rounds, one FP --
    which is why the substitution share rises to ~89% (Table 6).
    """

    name = "3des"
    block_size = 8
    key_size = 24
    rounds = 48

    def __init__(self, key: bytes):
        if len(key) != 24:
            raise ValueError("3DES key must be 24 bytes (three DES keys)")
        k1 = _key_schedule(key[0:8])
        k2 = _key_schedule(key[8:16])
        k3 = _key_schedule(key[16:24])
        # EDE: encrypt with k1, decrypt with k2, encrypt with k3.
        self._enc = (k1, list(reversed(k2)), k3)
        self._dec = (list(reversed(k3)), k2, list(reversed(k1)))
        charge(DES_KS_SETUP, times=3, function="DES_set_key")
        charge(DES_KS_ROUND, times=48, function="DES_set_key")

    def _crypt_block(self, block: bytes,
                     schedule: Tuple[Sequence[int], ...]) -> bytes:
        if len(block) != 8:
            raise ValueError("3DES block must be 8 bytes")
        # Between stages the halves swap roles (no IP/FP in the middle).
        if fastpath_enabled():
            charge_plans(_DES3_BLOCK)
            v = _ip_fast(int.from_bytes(block, "big"))
            l, r = _rounds_fast(_e_fast(v >> 32), _e_fast(v & _M32),
                                schedule[0])
            r, l = _rounds_fast(r, l, schedule[1])
            l, r = _rounds_fast(l, r, schedule[2])
            return _fp_fast((_e_inv_fast(r) << 32)
                            | _e_inv_fast(l)).to_bytes(8, "big")
        v = _apply_perm(_IP_T, int.from_bytes(block, "big"), 64)
        charge(DES_IP, function="DES_encrypt3", stall=DES_STALL)
        l, r = (v >> 32) & _M32, v & _M32
        l, r = _rounds(l, r, schedule[0])
        r, l = _rounds(r, l, schedule[1])
        l, r = _rounds(l, r, schedule[2])
        charge(DES_ROUND, times=48, function="DES_encrypt3",
               stall=DES_STALL)
        preoutput = (r << 32) | l
        out = _apply_perm(_FP_T, preoutput, 64)
        charge(DES_FP, function="DES_encrypt3", stall=DES_STALL)
        charge(DES_CALL, function="DES_encrypt3")
        return out.to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._enc)

    def decrypt_block(self, block: bytes) -> bytes:
        return self._crypt_block(block, self._dec)
