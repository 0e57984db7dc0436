"""``openssl speed`` equivalent over the instrumented crypto library.

Prints, per algorithm, the modelled throughput / CPI / path length on the
paper's 2.26 GHz Pentium 4 model -- the quantities of Table 11 -- plus the
host wall-clock for context.  On the fast path MD5 and SHA-1 compute with
``hashlib``; AES, DES/3DES and RSA's Montgomery products with the
libcrypto ``hashlib`` loads (:mod:`repro.crypto.native`), one call per
product because each is charged by its operands' word counts; RC4,
SHA-256, the rest of RSA and every charge are Python.

    python -m repro.tools.speed
    python -m repro.tools.speed --bytes 16384 --rsa-bits 512 aes rc4 rsa
    python -m repro.tools.speed --json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..crypto.bench import ALGORITHMS, measure_cipher, measure_hash, \
    measure_rsa
from ..perf import PENTIUM3, PENTIUM4, WIDE_CORE, format_table

CPUS = {"p3": PENTIUM3, "p4": PENTIUM4, "wide": WIDE_CORE}


def run_algorithm(name: str, nbytes: int, rsa_bits: int, cpu=PENTIUM4):
    start = time.perf_counter()
    if name in ("aes", "des", "3des", "rc4"):
        m = measure_cipher(name, nbytes, cpu=cpu)
    elif name in ("md5", "sha1", "sha256"):
        m = measure_hash(name, nbytes, cpu=cpu)
    elif name == "rsa":
        m = measure_rsa(rsa_bits, cpu=cpu)
    else:
        raise KeyError(name)
    wall = time.perf_counter() - start
    return {
        "algorithm": name,
        "bytes": m.nbytes,
        "cycles": m.cycles,
        "cpi": round(m.cpi, 3),
        "instructions_per_byte": round(m.instructions / m.nbytes, 1),
        "modelled_mbps": round(m.throughput_mbps(cpu), 2),
        "wallclock_seconds": round(wall, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-speed",
        description="openssl speed over the instrumented from-scratch "
                    "crypto library (modelled 2.26 GHz Pentium 4)")
    parser.add_argument("algorithms", nargs="*", metavar="ALG",
                        help=f"subset of {', '.join(ALGORITHMS)} "
                             "(default: all)")
    parser.add_argument("--bytes", type=int, default=8192,
                        help="buffer size for bulk algorithms "
                             "(default 8192)")
    parser.add_argument("--rsa-bits", type=int, default=1024,
                        choices=(512, 1024, 2048),
                        help="RSA modulus size (default 1024)")
    parser.add_argument("--cpu", choices=sorted(CPUS), default="p4",
                        help="CPU model (default: the paper's P4)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
    args = parser.parse_args(argv)

    known = tuple(ALGORITHMS) + ("sha256",)
    chosen = args.algorithms or list(known)
    unknown = set(chosen) - set(known)
    if unknown:
        parser.error(f"unknown algorithm(s): {sorted(unknown)}")
    if args.bytes < 16 or args.bytes % 16:
        parser.error("--bytes must be a positive multiple of 16")

    cpu = CPUS[args.cpu]
    results = [run_algorithm(name, args.bytes, args.rsa_bits, cpu)
               for name in chosen]

    if args.json:
        json.dump(results, sys.stdout, indent=2)
        print()
        return 0

    rows = [(r["algorithm"].upper(), r["bytes"], f"{r['cpi']:.2f}",
             r["instructions_per_byte"], f"{r['modelled_mbps']:.2f}",
             f"{r['wallclock_seconds']:.3f}s")
            for r in results]
    print(format_table(
        ["algorithm", "bytes", "CPI", "instr/byte", "modelled MB/s",
         "python wall"],
        rows,
        title=f"repro speed on the {cpu.name} model "
              f"({cpu.frequency_hz / 1e9:.2f} GHz)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
