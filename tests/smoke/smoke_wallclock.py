"""Wall-clock smoke: the fast path must stay interactive.

The fast path exists to keep the simulator usable from a terminal; this
script holds a coarse host wall-clock budget on a full-handshake
loopback session so a regression that silently disables a fast backend
fails fast.  The absolute bound allows slow shared CI runners; the
fast-vs-faithful ratio catches a disabled backend regardless of machine
speed.  RSA and 3DES dominate a handshake, so that ratio would hold with
the hashes back on the Python loops: a 16 KB MD5 and SHA-1 digest is
timed on each backend as well, and ``hashlib`` must win by 50x or more.
Likewise a 16 KB AES-128 CBC decryption, batched on the fast path, must
beat the per-block encryption of the same input by 3x or more.  And a
4 KB 3DES CBC encryption, whose fast rounds keep both halves
E-expanded, must beat the faithful rounds by 2.2x or more.

Run via ``make smoke-wallclock`` (CI) or directly::

    PYTHONPATH=src python tests/smoke/smoke_wallclock.py

Not collected by pytest (the tier-1 gate pins modeled numbers; this one
intentionally measures the host) -- it is a plain script with asserts.
"""

import time

from repro import perf, runtime
from repro.crypto.aes import AES
from repro.crypto.des import TripleDES
from repro.crypto.md5 import MD5
from repro.crypto.modes import CBC
from repro.crypto.sha1 import SHA1
from repro.ssl.loopback import make_server_identity, run_session


def best_of(key, cert, n: int) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        run_session(b"", key=key, cert=cert)
        best = min(best, time.perf_counter() - t0)
    return best


def best_digest(cls, data: bytes, n: int = 5) -> float:
    """Best-of-``n`` seconds for one charged digest of ``data``."""
    best = float("inf")
    with perf.activate(perf.Profiler()):
        for _ in range(n):
            t0 = time.perf_counter()
            cls(data).digest()
            best = min(best, time.perf_counter() - t0)
    return best


def check_hashes() -> None:
    data = bytes(16 * 1024)
    for cls in (SHA1, MD5):
        fast = best_digest(cls, data)
        with runtime.fastpath(False):
            faithful = best_digest(cls, data)
        print(f"{cls.name} 16 KB: fast {fast * 1e6:.0f} us, "
              f"faithful {faithful * 1e3:.1f} ms ({faithful / fast:.0f}x)")
        # ~25-45 us vs ~9-22 ms on a 2-vCPU x86_64 VM.
        assert faithful / fast >= 50, (
            f"{cls.name} fast path no longer on hashlib: "
            f"{faithful / fast:.1f}x")


def best_cbc(cipher: CBC, op: str, data: bytes, n: int = 5) -> float:
    """Best-of-``n`` seconds for one charged ``cipher.<op>(data)``."""
    best = float("inf")
    with perf.activate(perf.Profiler()):
        for _ in range(n):
            t0 = time.perf_counter()
            getattr(cipher, op)(data)
            best = min(best, time.perf_counter() - t0)
    return best


def check_cbc() -> None:
    data = bytes(range(256)) * 64
    cbc = CBC(AES(bytes(range(16))), bytes(16))
    cbc.decrypt(data)  # build the key's byte-sliced tables
    decrypt = best_cbc(cbc, "decrypt", data)
    encrypt = best_cbc(cbc, "encrypt", data)
    print(f"AES-128-CBC 16 KB: decrypt {decrypt * 1e3:.2f} ms, "
          f"encrypt {encrypt * 1e3:.2f} ms ({encrypt / decrypt:.1f}x)")
    # ~2 ms vs ~20 ms on a 2-vCPU x86_64 VM.
    assert encrypt / decrypt >= 3, (
        f"CBC decryption no longer batched: {encrypt / decrypt:.1f}x")


def check_3des() -> None:
    data = bytes(range(256)) * 16
    cbc = CBC(TripleDES(bytes(range(24))), bytes(8))
    fast = best_cbc(cbc, "encrypt", data)
    with runtime.fastpath(False):
        faithful = best_cbc(cbc, "encrypt", data, n=2)
    print(f"3DES-CBC 4 KB: encrypt fast {fast * 1e3:.1f} ms, "
          f"faithful {faithful * 1e3:.1f} ms ({faithful / fast:.1f}x)")
    # ~2.6-4.8x on a 2-vCPU x86_64 VM; unexpanded rounds gave ~1.4-1.9x.
    assert faithful / fast >= 2.2, (
        f"3DES fast rounds no longer E-expanded: {faithful / fast:.2f}x")


def main() -> None:
    key, cert = make_server_identity()
    run_session(b"", key=key, cert=cert)  # warm caches
    fast = best_of(key, cert, 5)
    with runtime.fastpath(False):
        faithful = best_of(key, cert, 2)
    print(f"handshake: fast {fast * 1e3:.1f} ms, "
          f"faithful {faithful * 1e3:.1f} ms "
          f"({faithful / fast:.1f}x)")
    # ~40 ms / ~250 ms on a dev box.
    assert fast < 2.5, f"fast-path handshake too slow: {fast:.2f}s"
    assert faithful / fast > 2.5, (
        f"fast path no longer faster: {faithful / fast:.2f}x")
    check_hashes()
    check_cbc()
    check_3des()


if __name__ == "__main__":
    main()
