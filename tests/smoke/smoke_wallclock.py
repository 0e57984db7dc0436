"""Wall-clock smoke: the fast path must stay interactive.

The fast path exists to keep the simulator usable from a terminal; this
script holds a coarse host wall-clock budget on a full-handshake
loopback session so a regression that silently disables a fast backend
fails fast.  The absolute bound allows slow shared CI runners; the
fast-vs-faithful ratio catches a disabled backend regardless of machine
speed.  RSA dominates a handshake, so that ratio would hold with any
other kernel back on the Python loops, and each one is timed on both
backends as well:

* a 16 KB MD5 and SHA-1 digest, where ``hashlib`` must win by 50x;
* a 16 KB AES-128 ``CBC.encrypt`` and ``CBC.decrypt``, a 4 KB 3DES
  ``CBC.encrypt`` and one ``PseudoRandom.bytes(46)``, which the fast path
  computes in libcrypto through ``repro.crypto.native``.  Where that
  binding does not load, the fast path runs the Python cores and these
  ratios fall to about 1-2x, so each bound sits at most half the lowest
  ratio measured on a 2-vCPU x86_64 VM.

``check_modexp`` times a charged 1024-bit non-CRT ``mod_exp`` with its
Montgomery products in libcrypto against the same call with the binding
forced off, on Python ints; both charge the same plans.

``check_charge_plans`` times ``charge_plans`` against the same charges
made one ``charge()`` per step, on two loads: one call of 1,024 AES-128
block plans into warm chains, which must move each chain in one exact
step, and the 12 charged private decryptions of a ``full_handshake``
run, 1024-bit and non-CRT, into a fresh profiler, whose young chains
cross binades inside a scan: a crossing must add only one plan's
addends one at a time, not its whole call's.

``check_keyed_hashes`` times a 1 KB SHA-1 SSLv3 record MAC and a
104-byte SSLv3 key derivation on the fast path, ``hashlib`` one-shots
charged one recorded plan, against the same calls through the charged
construction on the hash wrappers; both must end on the same bits.

On Linux the binding must load and a 1024-bit context must get its
kernel; the script prints why not.

Run via ``make smoke-wallclock`` (CI) or directly::

    PYTHONPATH=src python tests/smoke/smoke_wallclock.py

Not collected by pytest (the tier-1 gate pins modeled numbers; this one
intentionally measures the host) -- it is a plain script with asserts.
"""

import sys
import time
from unittest import mock

from repro import perf, runtime
from repro.bignum import BigNum, MontgomeryContext, mod_exp, montgomery
from repro.crypto import native
from repro.crypto import mac
from repro.crypto.aes import _ENCRYPT_PLANS, AES
from repro.crypto.des import TripleDES
from repro.crypto.md5 import MD5
from repro.crypto.modes import CBC
from repro.crypto.rand import PseudoRandom
from repro.crypto.sha1 import SHA1
from repro.ssl import kdf
from repro.ssl.loopback import make_server_identity, run_session


#: Lowest faithful/fast ratios required.  Over nine runs on a 2-vCPU
#: x86_64 VM (CPython 3.11) the lowest read 30.6x (AES encryption), 25.3x
#: (AES decryption), 81.5x (3DES) and 40.3x (PseudoRandom); with the
#: binding forced off, 1.5x, 1.4x, 1.5x and 0.9x.
BOUND_ENCRYPT = 12
BOUND_DECRYPT = 10
BOUND_3DES = 30
BOUND_RAND = 15
#: Lowest int/kernel ratio for a charged 1024-bit non-CRT ``mod_exp``.
#: With each scan one register chain, ten runs on the same VM read 3.70x
#: to 3.88x (1.30-1.41 ms against 4.95-5.26 ms); the loop before the
#: chain read 1.82x to 2.60x in nine.  Charging, the same on both sides,
#: is about a ninth of what the kernel side has left.
BOUND_MODEXP = 1.5
#: Lowest expanded/planned ratio for 1,024 AES-128 block plans charged
#: into warm chains.  Ten runs on the same VM read 196x to 285x; the
#: same check against a walk of every addend read 9.6x to 13.4x in nine.
BOUND_CHARGE_PLANS = 40
#: Lowest expanded/planned ratio for the 12 private-decryption batches
#: charged into a fresh profiler.  Ten runs on the same VM read 41.7x to
#: 63.2x; the same check against a walk of every addend of each call
#: that crosses a binade read 13.1x to 16.4x in ten.
BOUND_CROSSING = 25
#: Lowest charged/fast ratios for a 1 KB SHA-1 ``ssl3_mac`` and a
#: 104-byte ``derive``.  Ten runs on the same VM read 3.1x to 3.8x
#: (7-12 us against 22-42 us) and 3.4x to 6.4x (22-40 us against
#: 115-230 us); a fast path that falls back to the charged construction
#: reads about 1x.
BOUND_MAC = 2.0
BOUND_DERIVE = 2.5


def best_of(key, cert, n: int) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        run_session(b"", key=key, cert=cert)
        best = min(best, time.perf_counter() - t0)
    return best


def best_call(op, arg, n: int) -> float:
    """Best-of-``n`` seconds for one charged ``op(arg)``."""
    best = float("inf")
    with perf.activate(perf.Profiler()):
        for _ in range(n):
            t0 = time.perf_counter()
            op(arg)
            best = min(best, time.perf_counter() - t0)
    return best


def check_ratio(label: str, build, arg, bound: float,
                faithful_n: int = 2) -> None:
    """Time ``build()(arg)`` on each backend, with ``build`` run on that
    backend outside the timing, and require faithful / fast >= bound."""
    fast = best_call(build(), arg, 5)
    with runtime.fastpath(False):
        faithful = best_call(build(), arg, faithful_n)
    print(f"{label}: fast {fast * 1e6:.0f} us, faithful "
          f"{faithful * 1e3:.1f} ms ({faithful / fast:.1f}x)")
    assert faithful / fast >= bound, (
        f"{label}: {faithful / fast:.1f}x, under {bound}x "
        f"(libcrypto binding: {native.reason or 'loaded'})")


def check_hashes() -> None:
    # ~25-45 us vs ~9-22 ms on a 2-vCPU x86_64 VM.
    for cls in (SHA1, MD5):
        check_ratio(f"{cls.name} 16 KB digest",
                    lambda: lambda data: cls(data).digest(),
                    bytes(16 * 1024), 50, faithful_n=5)


def check_binding() -> None:
    print("libcrypto binding:", native.reason or "loaded")
    if sys.platform.startswith("linux"):
        assert native.available, f"libcrypto binding off: {native.reason}"


def check_cbc() -> None:
    data = bytes(range(256)) * 64
    key, iv = bytes(range(16)), bytes(16)
    ct = CBC(AES(key), iv).encrypt(data)
    check_ratio("AES-128-CBC 16 KB encrypt",
                lambda: CBC(AES(key), iv).encrypt, data, BOUND_ENCRYPT)
    check_ratio("AES-128-CBC 16 KB decrypt",
                lambda: CBC(AES(key), iv).decrypt, ct, BOUND_DECRYPT)


def check_3des() -> None:
    key, iv = bytes(range(24)), bytes(8)
    check_ratio("3DES-CBC 4 KB encrypt",
                lambda: CBC(TripleDES(key), iv).encrypt,
                bytes(range(256)) * 16, BOUND_3DES)


def check_rand() -> None:
    check_ratio("PseudoRandom.bytes(46)",
                lambda: PseudoRandom(b"smoke").bytes, 46, BOUND_RAND,
                faithful_n=5)


def check_modexp(key) -> None:
    """``c^d mod n`` for the 1024-bit key, charged, on one context: its
    products in libcrypto, then with the binding forced off, alternating
    so both sides see the same phases of the host; best of nine each.
    The switch is flipped on a warmed context, so each int-side scan
    must run on int registers: a register file kept where the switch
    cannot see it would run both sides on the kernel."""
    ctx = MontgomeryContext(key.n)
    c = BigNum.from_int(key.n.to_int() // 3)
    best = {True: float("inf"), False: float("inf")}
    int_scans = []  # the binding's setting at each int-register scan
    int_chain = montgomery._IntRegisters.chain

    def counted(regs, *args):
        int_scans.append(native.available)
        return int_chain(regs, *args)

    with perf.activate(perf.Profiler()), \
            mock.patch.object(montgomery._IntRegisters, "chain", counted):
        for _ in range(9):
            for on in best:
                with mock.patch.object(native, "available",
                                       on and native.available):
                    t0 = time.perf_counter()
                    mod_exp(c, key.d, key.n, ctx)
                    best[on] = min(best[on], time.perf_counter() - t0)
    if sys.platform.startswith("linux"):
        assert ctx.kernel() is not None, (
            f"1024-bit Montgomery context has no libcrypto kernel "
            f"(binding: {native.reason or 'loaded'})")
    kernel, ints = best[True], best[False]
    print(f"1024-bit non-CRT mod_exp: kernel {kernel * 1e3:.2f} ms, "
          f"Python ints {ints * 1e3:.2f} ms ({ints / kernel:.2f}x)")
    assert int_scans == [False] * 9, (
        f"{int_scans.count(False)} of 9 int-side scans ran on int "
        f"registers, and {int_scans.count(True)} kernel-side scans did")
    assert ints / kernel >= BOUND_MODEXP, (
        f"mod_exp kernel: {ints / kernel:.2f}x, under {BOUND_MODEXP}x "
        f"(libcrypto binding: {native.reason or 'loaded'})")


def charge_ratio(label: str, warm, batches, bound: float) -> None:
    """Time ``batches`` charged one ``charge_plans`` call per batch
    against the same charges made one ``charge()`` per step, each into a
    fresh profiler first charged the plans ``warm`` (untimed); best of
    nine each, both ending on the same bits, and require charges / plans
    >= bound."""
    steps = [step for batch in batches for plan in batch
             for step in plan.steps]
    best = {"plans": float("inf"), "charges": float("inf")}
    for _ in range(9):
        ends = {}
        for arm in best:
            p = perf.Profiler()
            p.charge_plans(warm)
            t0 = time.perf_counter()
            if arm == "plans":
                for batch in batches:
                    p.charge_plans(batch)
            else:
                for m, times, function, module, stall in steps:
                    p.charge(m, times, function=function, module=module,
                             stall=stall)
            best[arm] = min(best[arm], time.perf_counter() - t0)
            ends[arm] = (p.now(), dict(p.modules),
                         {name: fs.cycles for name, fs in p.functions.items()})
        assert ends["plans"] == ends["charges"], label
    ratio = best["charges"] / best["plans"]
    print(f"{label}: charge_plans {best['plans'] * 1e6:.0f} us, charge() "
          f"per step {best['charges'] * 1e3:.2f} ms ({ratio:.1f}x)")
    assert ratio >= bound, f"{label}: {ratio:.1f}x, under {bound}x"


def check_charge_plans(key) -> None:
    """Two arms.  Warm: 1,024 AES-128 block plans in one call into a
    profiler whose chains are warm (20,000 plans charged first), which
    must move each chain in one exact step.  Crossing: the two
    ``charge_plans`` batches of a charged 1024-bit non-CRT private
    decryption, charged 12 times into a fresh profiler as one
    ``full_handshake`` run charges them, whose young chains cross
    binades inside a scan: each crossing must add only its crossing
    plan's addends one at a time, not the whole call's."""
    plans = _ENCRYPT_PLANS[10]
    charge_ratio("1,024 AES-128 block plans, warm", plans * 20_000,
                 [plans * 1024], BOUND_CHARGE_PLANS)
    key = key.replica()
    key.use_crt = False
    c = BigNum.from_int(key.n.to_int() // 3)
    key.raw_private(c)  # builds the Montgomery context, uncharged
    batches = []
    real = perf.Profiler.charge_plans

    def capture(self, plans):
        batches.append(list(plans))
        real(self, plans)

    with mock.patch.object(perf.Profiler, "charge_plans", capture), \
            perf.activate(perf.Profiler()):
        key.raw_private(c)
    charge_ratio(f"RSA-1024 non-CRT batches ({len(batches[0])} and "
                 f"{len(batches[1])} plans) x 12, fresh",
                 (), batches * 12, BOUND_CROSSING)


def keyed_ratio(label: str, fast, charged, bound: float) -> None:
    """Time ``fast()`` against ``charged()``, each in a fresh profiler
    after one untimed call (which records the fast side's plan); best
    of nine loops of 20 calls each, both ending on the same bits, and
    require charged / fast >= bound."""
    best = {"fast": float("inf"), "charged": float("inf")}
    for _ in range(9):
        ends = {}
        for arm, op in (("fast", fast), ("charged", charged)):
            p = perf.Profiler()
            with perf.activate(p):
                op()
                t0 = time.perf_counter()
                for _ in range(20):
                    op()
                best[arm] = min(best[arm], (time.perf_counter() - t0) / 20)
            ends[arm] = (p.now(), dict(p.modules),
                         {name: fs.cycles for name, fs in p.functions.items()})
        assert ends["fast"] == ends["charged"], label
    ratio = best["charged"] / best["fast"]
    print(f"{label}: fast {best['fast'] * 1e6:.1f} us, charged "
          f"{best['charged'] * 1e6:.1f} us ({ratio:.1f}x)")
    assert ratio >= bound, f"{label}: {ratio:.1f}x, under {bound}x"


def check_keyed_hashes() -> None:
    """A 1 KB SHA-1 record MAC and a 104-byte key block (7 derivation
    blocks): ``hashlib`` one-shots charged one recorded plan against
    the charged construction on the wrappers."""
    secret, data = bytes(range(20)), bytes(range(256)) * 4
    keyed_ratio("SSLv3 SHA-1 MAC, 1 KB",
                lambda: mac.ssl3_mac(SHA1, secret, 5, 23, data),
                lambda: mac._ssl3_mac(SHA1, secret, 5, 23, data),
                BOUND_MAC)
    master, rand1, rand2 = bytes(range(48)), bytes(32), bytes(range(32))
    keyed_ratio("SSLv3 key block, 104 bytes",
                lambda: kdf.derive(master, rand1, rand2, 104),
                lambda: kdf._derive_blocks(master, rand1, rand2, 7)[:104],
                BOUND_DERIVE)


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
    check_binding()
    check_hashes()
    check_cbc()
    check_3des()
    check_rand()
    check_modexp(key)
    check_charge_plans(key)
    check_keyed_hashes()


if __name__ == "__main__":
    main()
