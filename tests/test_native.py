"""The libcrypto binding (``repro.crypto.native``): its import-time
self-check, and that the fast path really computes with it.

Every signature is the same whichever core computes the bytes, so the
equivalence tests cannot tell a silent fallback to the Python cores from
the binding; :func:`test_fast_path_never_reaches_the_python_cores` can.
"""

from __future__ import annotations

import ctypes
import importlib
import random

import pytest

from repro import perf, runtime
from repro.crypto import aes, des, md5, native
from repro.crypto.aes import AES
from repro.crypto.des import DES, TripleDES
from repro.crypto.modes import CBC
from repro.crypto.rand import PseudoRandom

#: Each bound function that writes an answer, and the argument it writes.
OUTPUTS = {
    "MD5_Update": 0,
    "AES_set_encrypt_key": 2,
    "AES_set_decrypt_key": 2,
    "AES_encrypt": 1,
    "AES_decrypt": 1,
    "AES_cbc_encrypt": 1,
    "DES_set_key_unchecked": 1,
    "DES_ecb_encrypt": 1,
    "DES_ecb3_encrypt": 1,
    "DES_ncbc_encrypt": 1,
    "DES_ede3_cbc_encrypt": 1,
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


class _Tampered:
    """``_hashlib``'s library with one symbol missing or one answer
    wrong."""

    def __init__(self, lib, missing=None, flipped=None):
        self._lib, self._missing, self._flipped = lib, missing, flipped

    def __getattr__(self, name):
        if name == self._missing:
            raise AttributeError(f"undefined symbol: {name}")
        function = getattr(self._lib, name)
        if name == self._flipped:
            return _Flipped(function, OUTPUTS[name])
        return function


@pytest.fixture
def reload_with(monkeypatch):
    """Re-import the binding over a tampered library; the real one is
    loaded again afterwards."""
    real_cdll = ctypes.CDLL

    def reload(**tamper):
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda path: _Tampered(real_cdll(path), **tamper))
        importlib.reload(native)

    yield reload
    monkeypatch.undo()
    importlib.reload(native)


needs_binding = pytest.mark.skipif(not native.available,
                                   reason=f"binding off: {native.reason}")


@needs_binding
@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_one_wrong_byte_leaves_the_binding_off(reload_with, name):
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
    """One 16 KB CBC record per cipher, each way, and one
    ``PseudoRandom.bytes(46)``: on the fast path libcrypto computes all
    of it, so the Python cores, patched to raise, never run."""
    record = random.Random(0x16).randbytes(16 * 1024)
    for module, core in ((aes, "_encrypt_cbc"), (aes, "_decrypt_core"),
                         (des, "_crypt"), (md5, "_compress")):
        monkeypatch.setattr(module, core, _refuse)
    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        for cls, key_len in ((AES, 16), (DES, 8), (TripleDES, 24)):
            key, iv = bytes(range(key_len)), bytes(cls.block_size)
            ct = CBC(cls(key), iv).encrypt(record)
            assert CBC(cls(key), iv).decrypt(ct) == record
        assert len(PseudoRandom(b"native").bytes(46)) == 46


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
