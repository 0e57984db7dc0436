"""The libcrypto binding (``repro.crypto.native``): its import-time
self-check, and that the fast path really computes with it.

Every signature is the same whichever core computes the bytes, so the
equivalence tests cannot tell a silent fallback to the Python cores from
the binding; :func:`test_fast_path_never_reaches_the_python_cores` and
:func:`test_mod_exp_never_reaches_the_int_registers` can.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import importlib
import pickle
import random
import weakref
from unittest import mock

import pytest

from repro import perf, runtime
from repro.bignum import BigNum, MontgomeryContext, mod_exp, montgomery
from repro.crypto import aes, des, md5, native
from repro.crypto.aes import AES
from repro.crypto.des import DES, TripleDES
from repro.crypto.modes import CBC
from repro.crypto.rand import PseudoRandom
from repro.crypto.rsa import generate_key

#: Each bound function that writes an answer into a buffer, and the
#: argument it writes.
OUTPUTS = {
    "MD5_Update": 0,
    "AES_set_encrypt_key": 2,
    "AES_set_decrypt_key": 2,
    "AES_cbc_encrypt": 1,
    "DES_set_key_unchecked": 1,
    "DES_ncbc_encrypt": 1,
    "DES_ede3_cbc_encrypt": 1,
    "BN_bn2binpad": 1,
}

#: Each bound function that answers with a value or a BIGNUM, and a
#: wrong answer made around the real call.
WRONG = {
    "BN_bin2bn": lambda f, data, size, ret: f(
        bytes([data[0] ^ 0xFF]) + data[1:], size, ret),
    "BN_num_bits": lambda f, a: f(a) ^ 1,
    "BN_copy": lambda f, dst, src: dst,                 # copies nothing
    "BN_MONT_CTX_set": lambda f, mont, n, ctx: 1,       # sets nothing
    "BN_mod_mul_montgomery": lambda f, r, a, b, mont, ctx: f(
        r, a, a, mont, ctx),
}


class _Flipped:
    """A bound function whose answer comes back with every bit of its
    first byte flipped (OpenSSL's DES schedule ignores some bits of each
    byte); its signature is declared on the real function."""

    def __init__(self, function, out: int):
        vars(self).update(function=function, out=out)

    def __setattr__(self, name, value):
        setattr(self.function, name, value)

    def __call__(self, *args):
        result = self.function(*args)
        buf = args[self.out]
        buf[0] = bytes([buf[0][0] ^ 0xFF])
        return result


class _Wrong(_Flipped):
    """A bound function whose answer is ``wrong(function, *args)``."""

    def __init__(self, function, wrong):
        vars(self).update(function=function, wrong=wrong)

    def __call__(self, *args):
        return self.wrong(self.function, *args)


class _Tampered:
    """``_hashlib``'s library with one symbol missing or one answer
    wrong."""

    def __init__(self, lib, missing=None, flipped=None):
        self._lib, self._missing, self._flipped = lib, missing, flipped

    def __getattr__(self, name):
        if name == self._missing:
            raise AttributeError(f"undefined symbol: {name}")
        function = getattr(self._lib, name)
        if name == self._flipped and name in OUTPUTS:
            return _Flipped(function, OUTPUTS[name])
        if name == self._flipped:
            return _Wrong(function, WRONG[name])
        return function


@pytest.fixture
def reload_with(monkeypatch):
    """Re-import the binding over a tampered library; the real one is
    loaded again afterwards."""
    real_pydll = ctypes.PyDLL

    def reload(**tamper):
        monkeypatch.setattr(ctypes, "PyDLL",
                            lambda path: _Tampered(real_pydll(path), **tamper))
        importlib.reload(native)

    yield reload
    monkeypatch.undo()
    importlib.reload(native)


needs_binding = pytest.mark.skipif(not native.available,
                                   reason=f"binding off: {native.reason}")


@needs_binding
@pytest.mark.parametrize("name", sorted(OUTPUTS) + sorted(WRONG))
def test_one_wrong_byte_leaves_the_binding_off(reload_with, name):
    """A flipped byte in an output buffer, or a BN function's wrong
    value, BIGNUM or return code."""
    reload_with(flipped=name)
    assert not native.available
    assert native.reason.startswith("ValueError")


@needs_binding
@pytest.mark.parametrize("name", sorted(native._SIGNATURES))
def test_a_missing_symbol_leaves_the_binding_off(reload_with, name):
    reload_with(missing=name)
    assert not native.available
    assert name in native.reason


@needs_binding
def test_reload_restores_the_binding(reload_with):
    reload_with()
    assert native.available and native.reason is None


def _refuse(*args, **kwargs):
    raise AssertionError("a Python core ran on the fast path")


@needs_binding
def test_fast_path_never_reaches_the_python_cores(monkeypatch):
    """One 16 KB CBC record per cipher, each way, one block each way (a
    one-block CBC), and one ``PseudoRandom.bytes(46)``: on the fast path
    libcrypto computes all of it, so the Python cores and key schedules,
    patched to raise, never run, not even when a cipher is
    constructed."""
    record = random.Random(0x16).randbytes(16 * 1024)
    for module, core in ((aes, "_encrypt_cbc"), (aes, "_decrypt_core"),
                         (aes, "_expand_key"), (des, "_key_schedule"),
                         (des, "_crypt"), (md5, "_compress")):
        monkeypatch.setattr(module, core, _refuse)
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        for cls, key_len in ((AES, 16), (DES, 8), (TripleDES, 24)):
            key, iv = bytes(range(key_len)), bytes(cls.block_size)
            ct = CBC(cls(key), iv).encrypt(record)
            assert CBC(cls(key), iv).decrypt(ct) == record
            cipher = cls(key)
            assert cipher.decrypt_block(cipher.encrypt_block(iv)) == iv
        assert len(PseudoRandom(b"native").bytes(46)) == 46


#: The full-handshake campaign's RSA key: 1024 bits, 32 words for n and
#: 16 for p and q, even counts, so every context gets its kernel.
CAMPAIGN_BITS = 1024


@needs_binding
def test_mod_exp_never_reaches_the_int_registers(monkeypatch):
    """A 1024-bit private decryption, CRT and not, runs every product of
    its exponentiations in libcrypto on the fast path: the Python-int
    registers, patched to raise, never run, and every context it used
    holds a kernel."""
    key = generate_key(CAMPAIGN_BITS, rng=PseudoRandom(b"kernel"))
    message = key.public().encrypt(b"premaster", PseudoRandom(b"pad"))
    for name in ("product", "chain"):
        monkeypatch.setattr(montgomery._IntRegisters, name, _refuse)
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        for crt in (False, True):
            key.use_crt = crt
            assert key.decrypt(message) == b"premaster"
    contexts = list(key._mont_cache.values())
    assert len(contexts) == 3
    assert all(isinstance(ctx._kernel, native.MontKernel)
               for ctx in contexts)


@needs_binding
@pytest.mark.parametrize("copier", [copy.deepcopy,
                                    lambda key: pickle.loads(
                                        pickle.dumps(key))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_key_outlives_its_original(copier):
    """A warmed key's copies leave its kernels and their register files
    behind and build their own.  A replica shares the original's
    contexts, so they live on after the original is deleted and
    collected; once the replica goes too, the original's kernel and its
    register file are collected, and a copy still decrypts on its own
    kernel, never computing Python's inverse of n, to the same charges
    as a copy with the binding forced off, whose int registers compute
    it."""
    key = generate_key(CAMPAIGN_BITS, rng=PseudoRandom(b"copied"),
                       use_crt=False)
    message = key.public().encrypt(b"premaster", PseudoRandom(b"pad"))
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        key.decrypt(message)                    # warm: build the kernels
    original = weakref.ref(key._ctx_n()._kernel)
    original_regs = weakref.ref(original()._regs)
    twins, replica = [copier(key), copier(key)], key.replica()
    for twin in twins:                          # no kernel, no registers
        assert "_kernel" not in vars(twin._ctx_n())
        assert "_ni_int" not in vars(twin._ctx_n())
    del key
    gc.collect()
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        assert replica.decrypt(message) == b"premaster"
    assert replica._ctx_n()._kernel is original()
    for copy_kernel in (copy.copy, copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError):
            copy_kernel(original())
    del replica
    gc.collect()
    assert original() is None and original_regs() is None
    signatures = []
    for twin, on in zip(twins, (True, False)):
        profiler = perf.Profiler()
        with runtime.fastpath(True), perf.activate(profiler), \
                mock.patch.object(native, "available", on):
            assert twin.decrypt(message) == b"premaster"
        signatures.append((profiler.total_cycles(),
                           profiler.total_instructions()))
    assert signatures[0] == signatures[1]
    assert isinstance(twins[0]._ctx_n()._kernel, native.MontKernel)
    assert "_ni_int" not in vars(twins[0]._ctx_n())
    assert "_ni_int" in vars(twins[1]._ctx_n())   # its int registers


@needs_binding
@pytest.mark.skipif(ctypes.sizeof(ctypes.c_void_p) != 8,
                    reason="libcrypto's words are 64-bit on 64-bit hosts")
def test_a_kernel_checks_its_radix():
    """An odd word count puts libcrypto's 64-bit radix at 2^32 R: the
    context keeps the int registers.  An even one gets the kernel."""
    rng = random.Random(544)
    odd = MontgomeryContext(BigNum.from_int(rng.getrandbits(544) | 1 << 543
                                            | 1))
    even = MontgomeryContext(BigNum.from_int(rng.getrandbits(512) | 1 << 511
                                             | 1))
    assert odd.nwords == 17 and odd.kernel() is None
    assert odd._kernel is False                 # built once, refused
    assert even.nwords == 16
    assert isinstance(even.kernel(), native.MontKernel)


@needs_binding
def test_a_warm_kernel_keeps_its_registers(monkeypatch):
    """A warmed 1024-bit context keeps one register file on its kernel:
    later exponentiations, window 6 (d) and window 1 (e), run on that
    file and allocate no BIGNUM, and Python's inverse of n, which only
    int registers need, is never computed."""
    key = generate_key(CAMPAIGN_BITS, rng=PseudoRandom(b"kept"),
                       use_crt=False)
    message = key.public().encrypt(b"premaster", PseudoRandom(b"pad"))
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        assert key.decrypt(message) == b"premaster"       # warm
        ctx = key._ctx_n()
        regs = ctx.registers(1)
        monkeypatch.setattr(ctx.kernel()._lib, "BN_new", _refuse)
        expected = pow(12345, key.e.to_int(), key.n.to_int())
        for _ in range(2):
            assert key.decrypt(message) == b"premaster"
            assert mod_exp(BigNum.from_int(12345), key.e, key.n,
                           ctx).to_int() == expected
        assert ctx.registers(35) is regs
    assert isinstance(regs, native.BnRegisters)
    assert "_ni_int" not in vars(ctx)


@needs_binding
def test_binding_forced_off_after_warm_up_runs_on_ints(monkeypatch):
    """A context warmed on its kernel keeps it, but once the binding is
    forced off ``mod_exp`` runs on int registers: the kernel's chain,
    patched to raise, never runs, and the result and charges equal the
    kernel's."""
    rng = random.Random(CAMPAIGN_BITS)
    n = rng.getrandbits(CAMPAIGN_BITS) | 1 << (CAMPAIGN_BITS - 1) | 1
    modulus = BigNum.from_int(n)
    base, exp = rng.getrandbits(CAMPAIGN_BITS) % n, rng.getrandbits(1000)
    ctx = MontgomeryContext(modulus)
    runs = []
    for on in (True, False):
        if not on:
            assert "_ni_int" not in vars(ctx)
            monkeypatch.setattr(native.BnRegisters, "chain", _refuse)
        profiler = perf.Profiler()
        with runtime.fastpath(True), perf.activate(profiler), \
                mock.patch.object(native, "available", on):
            result = mod_exp(BigNum.from_int(base), BigNum.from_int(exp),
                             modulus, ctx).to_int()
        runs.append((result, profiler.total_cycles(),
                     profiler.total_instructions()))
    assert runs[0] == runs[1] and runs[0][0] == pow(base, exp, n)
    assert "_ni_int" in vars(ctx)                 # the int registers' REDC
    assert isinstance(ctx._kernel, native.MontKernel)


@pytest.mark.parametrize("nblocks", [0, 1, 2, 32])
def test_md5_compress_chains_whole_blocks(nblocks):
    """``md5.compress`` over n blocks equals n single compressions on
    the Python core, with the binding and without it; a partial block
    is refused."""
    data = random.Random(nblocks).randbytes(64 * nblocks)
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    expected = state
    for i in range(0, len(data), 64):
        expected = md5._compress(expected, data[i:i + 64])
    for fast in (True, False):
        with runtime.fastpath(fast):
            assert md5.compress(state, data) == expected
            with pytest.raises(ValueError):
                md5.compress(state, data + b"x")
