"""Host kernels from the libcrypto that ``hashlib`` already loads.

On the fast path, AES, DES/3DES, :class:`~repro.crypto.rand.PseudoRandom`'s
raw MD5 chain and the Montgomery products of a modular exponentiation
compute with OpenSSL's own low-level functions through ``ctypes``.  A
cipher has one entry, CBC over whole blocks; a single block is a
one-block CBC from a zero IV.  The library is ``_hashlib``'s shared
object, opened with ``ctypes.PyDLL``, so ``dlsym`` resolves every symbol
through the libcrypto ``_hashlib`` links and nothing new is installed or
loaded; a ``PyDLL`` call keeps the GIL, which a sub-microsecond product
cannot afford to release.  Every symbol gets an explicit signature
(``argtypes``/``restype``, from OpenSSL's ``md5.h``, ``aes.h``,
``des.h`` and ``bn.h``).

At import, every bound function runs a check: FIPS-197 Appendix C
(AES-128/192/256), FIPS 81's "Now is t" (DES) and the SP 800-67 example
(3DES), each as a one-block CBC both ways and then over a two-block
input that chains back to the same vector; RFC 1321's MD5("abc") as one
raw compression of its padded block; and Montgomery products, single
and chained, modulo a fixed 128-bit odd number against Python's
integers.  If ``_hashlib``, its library, a symbol or an answer is
missing or wrong, :data:`available` is False, :data:`reason` says why,
and the fast path runs the Python cores instead.  No option or
environment variable selects this: the binding is used wherever it
loads and answers correctly.

This module only computes.  The callers charge the same plans whichever
core runs, so no modeled number depends on it.  The inputs may be
``bytes``, ``bytearray`` or ``memoryview``; ``ctypes``' ``c_char_p``
takes only ``bytes``, so each is passed through ``bytes()``, which
returns a ``bytes`` object itself without a copy, and its length is
checked before libcrypto gets a pointer to it.
"""

from __future__ import annotations

import ctypes
import struct
import weakref
from typing import List, Optional, Tuple

_IN = ctypes.c_char_p
_BUF = ctypes.c_void_p
_INT = ctypes.c_int
#: A BIGNUM, BN_CTX or BN_MONT_CTX pointer (a Python int on return).
_PTR = ctypes.c_void_p

#: name -> (restype, argtypes).
_SIGNATURES = {
    "MD5_Init": (_INT, (_BUF,)),
    "MD5_Update": (_INT, (_BUF, _IN, ctypes.c_size_t)),
    "AES_set_encrypt_key": (_INT, (_IN, _INT, _BUF)),
    "AES_set_decrypt_key": (_INT, (_IN, _INT, _BUF)),
    "AES_cbc_encrypt": (None, (_IN, _BUF, ctypes.c_size_t, _BUF, _BUF,
                               _INT)),
    "DES_set_key_unchecked": (None, (_IN, _BUF)),
    "DES_ncbc_encrypt": (None, (_IN, _BUF, ctypes.c_long, _BUF, _BUF,
                                _INT)),
    "DES_ede3_cbc_encrypt": (None, (_IN, _BUF, ctypes.c_long, _BUF, _BUF,
                                    _BUF, _BUF, _INT)),
    "BN_new": (_PTR, ()),
    "BN_free": (None, (_PTR,)),
    "BN_copy": (_PTR, (_PTR, _PTR)),
    "BN_bin2bn": (_PTR, (_IN, _INT, _PTR)),
    "BN_bn2binpad": (_INT, (_PTR, _BUF, _INT)),
    "BN_num_bits": (_INT, (_PTR,)),
    "BN_CTX_new": (_PTR, ()),
    "BN_CTX_free": (None, (_PTR,)),
    "BN_MONT_CTX_new": (_PTR, ()),
    "BN_MONT_CTX_set": (_INT, (_PTR, _PTR, _PTR)),
    "BN_MONT_CTX_free": (None, (_PTR,)),
    "BN_mod_mul_montgomery": (_INT, (_PTR, _PTR, _PTR, _PTR, _PTR)),
}

# Buffer sizes for OpenSSL's structures, with room for their 64-bit-word
# builds: MD5_CTX is 92 bytes (128 with 64-bit words), AES_KEY 244 (484)
# and DES_key_schedule 128 (256).
_MD5_CTX = 128
_AES_KEY = 512
_DES_SCHEDULE = 256

#: MD5_CTX starts with the four chaining words A, B, C, D.
_MD5_STATE = struct.Struct("=4I")


def _exact(data: bytes, size: int) -> bytes:
    """``data`` as bytes of exactly ``size``, so libcrypto never reads
    past it."""
    data = bytes(data)
    if len(data) != size:
        raise ValueError(f"expected {size} bytes, got {len(data)}")
    return data


def _whole(data: bytes, size: int) -> bytes:
    """``data`` as bytes of whole ``size``-byte blocks."""
    data = bytes(data)
    if len(data) % size:
        raise ValueError(f"expected whole {size}-byte blocks, got "
                         f"{len(data)} bytes")
    return data


def md5_compress(state: Tuple[int, int, int, int],
                 data: bytes) -> Tuple[int, ...]:
    """MD5's compression of each 64-byte block of ``data`` in turn, from
    ``state``, with no padding: MD5_Init, the four state words set, and
    one MD5_Update over the whole blocks."""
    data = _whole(data, 64)
    ctx = ctypes.create_string_buffer(_MD5_CTX)
    _lib.MD5_Init(ctx)
    _MD5_STATE.pack_into(ctx, 0, *state)
    _lib.MD5_Update(ctx, data, len(data))
    return _MD5_STATE.unpack_from(ctx, 0)


class AesKey:
    """An AES key's libcrypto encryption and decryption schedules, used
    through :meth:`cbc`."""

    __slots__ = ("_enc", "_dec")

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self._enc = ctypes.create_string_buffer(_AES_KEY)
        self._dec = ctypes.create_string_buffer(_AES_KEY)
        _lib.AES_set_encrypt_key(key, 8 * len(key), self._enc)
        _lib.AES_set_decrypt_key(key, 8 * len(key), self._dec)

    def cbc(self, iv: bytes, data: bytes, encrypt: bool) -> bytes:
        """CBC over every block of ``data``, chained from ``iv``."""
        data = _whole(data, 16)
        out = ctypes.create_string_buffer(len(data))
        _lib.AES_cbc_encrypt(data, out, len(data),
                             self._enc if encrypt else self._dec,
                             ctypes.create_string_buffer(_exact(iv, 16), 16),
                             encrypt)
        return out.raw


class DesKey:
    """DES under one 8-byte key, or EDE 3DES under three, used through
    :meth:`cbc`."""

    __slots__ = ("_schedules",)

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) not in (8, 24):
            raise ValueError("DES key must be 8 bytes, 3DES key 24")
        schedules = []
        for i in range(0, len(key), 8):
            schedule = ctypes.create_string_buffer(_DES_SCHEDULE)
            _lib.DES_set_key_unchecked(key[i:i + 8], schedule)
            schedules.append(schedule)
        self._schedules = tuple(schedules)

    def cbc(self, iv: bytes, data: bytes, encrypt: bool) -> bytes:
        """CBC over every block of ``data``, chained from ``iv``."""
        data = _whole(data, 8)
        out = ctypes.create_string_buffer(len(data))
        ivec = ctypes.create_string_buffer(_exact(iv, 8), 8)
        if len(self._schedules) == 1:
            _lib.DES_ncbc_encrypt(data, out, len(data), *self._schedules,
                                  ivec, encrypt)
        else:
            _lib.DES_ede3_cbc_encrypt(data, out, len(data),
                                      *self._schedules, ivec, encrypt)
        return out.raw


def _uncopyable(obj, protocol=None):
    raise TypeError(f"{type(obj).__name__} owns libcrypto memory and "
                    f"cannot be copied or pickled")


def _release(free, pointers) -> None:
    for pointer in pointers:
        free(pointer)


class MontKernel:
    """Montgomery products modulo one odd modulus: its ``BN_MONT_CTX``,
    a ``BN_CTX`` for the scratch each product takes, and one register
    file for every computation under it.

    A product is ``BN_mod_mul_montgomery``, ``a * b / R mod n`` with
    libcrypto's radix R = 2^(BN_BITS2 x words of n), which is not
    necessarily the caller's.  The structures and the register file are
    freed once, when the kernel is collected, and a kernel cannot be
    copied or pickled, so no copy frees them again.
    """

    __slots__ = ("nbytes", "_lib", "_mont", "_ctx", "_regs", "__weakref__")
    __reduce_ex__ = _uncopyable

    def __init__(self, modulus: int):
        if modulus <= 0 or not modulus & 1:
            raise ValueError("Montgomery modulus must be odd and positive")
        lib = self._lib = _lib
        self.nbytes = (modulus.bit_length() + 7) // 8
        self._ctx = lib.BN_CTX_new()
        weakref.finalize(self, lib.BN_CTX_free, self._ctx)
        self._mont = lib.BN_MONT_CTX_new()
        weakref.finalize(self, lib.BN_MONT_CTX_free, self._mont)
        if not self._ctx or not self._mont:
            raise MemoryError("BN_CTX_new or BN_MONT_CTX_new failed")
        regs = self._regs = BnRegisters(self, 1)
        regs.set(0, modulus)
        if lib.BN_MONT_CTX_set(self._mont, regs._r[0], self._ctx) != 1:
            raise ValueError("BN_MONT_CTX_set failed")

    def registers(self, count: int) -> "BnRegisters":
        """The kernel's register file, grown to at least ``count``
        registers.  Every caller gets the same file, so its values last
        only until the next computation under this kernel, and no two
        computations under one kernel may overlap (as in two threads)."""
        self._regs.grow(count)
        return self._regs


class BnRegisters:
    """Numbered BIGNUMs for computations under a :class:`MontKernel`.

    Values below the modulus go in and out as Python ints; a product
    leaves ``a * b / R mod n`` in its destination, which may be either
    operand, and returns its bit length, and :meth:`chain` makes a run
    of products into one register in one call.  The BIGNUMs are freed
    once, when the registers are collected; they hold their kernel, so
    it outlives them.
    """

    __slots__ = ("_kernel", "_r", "_buf", "_mul", "_bits", "_mont", "_ctx",
                 "__weakref__")
    __reduce_ex__ = _uncopyable

    def __init__(self, kernel: MontKernel, count: int):
        lib = kernel._lib
        self._kernel = kernel
        self._r: List[int] = []
        weakref.finalize(self, _release, lib.BN_free, self._r)
        self.grow(count)
        self._buf = ctypes.create_string_buffer(kernel.nbytes)
        self._mul = lib.BN_mod_mul_montgomery
        self._bits = lib.BN_num_bits
        self._mont, self._ctx = kernel._mont, kernel._ctx

    def grow(self, count: int) -> None:
        """At least ``count`` registers; the new ones hold 0."""
        r, new = self._r, self._kernel._lib.BN_new
        while len(r) < count:
            pointer = new()
            if not pointer:
                raise MemoryError("BN_new failed")
            r.append(pointer)

    def set(self, i: int, value: int) -> None:
        size = self._kernel.nbytes
        if self._kernel._lib.BN_bin2bn(value.to_bytes(size, "big"), size,
                                       self._r[i]) != self._r[i]:
            raise ValueError("BN_bin2bn failed")

    def get(self, i: int) -> int:
        size = self._kernel.nbytes
        if self._kernel._lib.BN_bn2binpad(self._r[i], self._buf,
                                          size) != size:
            raise ValueError("BN_bn2binpad failed")
        return int.from_bytes(self._buf.raw, "big")

    def copy(self, dst: int, src: int) -> None:
        if self._kernel._lib.BN_copy(self._r[dst],
                                     self._r[src]) != self._r[dst]:
            raise ValueError("BN_copy failed")

    def product(self, dst: int, a: int, b: int) -> int:
        """``r[dst] = r[a] * r[b] / R mod n``; its bit length."""
        r = self._r
        out = r[dst]
        if not self._mul(out, r[a], r[b], self._mont, self._ctx):
            raise ValueError("BN_mod_mul_montgomery failed")
        return self._bits(out)

    def chain(self, dst: int, operands) -> List[int]:
        """``r[dst] = r[dst] * r[op] / R mod n`` for each register ``op``
        of ``operands`` in turn (``dst`` itself squares); the bit length
        of each product, in order."""
        r = self._r
        out = r[dst]
        mul, bits, mont, ctx = self._mul, self._bits, self._mont, self._ctx
        lengths: List[int] = []
        append = lengths.append
        for op in operands:
            if not mul(out, out, r[op], mont, ctx):
                raise ValueError("BN_mod_mul_montgomery failed")
            append(bits(out))
        return lengths


# ---------------------------------------------------------------------------
# Loading and the self-check
# ---------------------------------------------------------------------------

_AES_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
#: FIPS-197 Appendix C.1-C.3: (key, ciphertext of ``_AES_PLAIN``).
_AES_VECTORS = (
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
)
#: FIPS 81's DES example and SP 800-67's 3DES example (first block):
#: (name, key, plaintext, ciphertext, CBC function).
_DES_VECTORS = (
    ("FIPS 81 DES", "0123456789abcdef", b"Now is t", "3fa40e8a984d4815",
     "DES_ncbc_encrypt"),
    ("SP 800-67 3DES", "0123456789abcdef23456789abcdef01456789abcdef0123",
     b"The qufc", "a826fd8ce53b855f", "DES_ede3_cbc_encrypt"),
)
#: An odd 128-bit modulus (top bit set, so R = 2^128 for 32- and 64-bit
#: BN_ULONG alike) and two operands below it.
_BN_MODULUS = (1 << 128) - 159
_BN_A = 0x0123456789ABCDEF0FEDCBA987654321
_BN_B = 0xF0E1D2C3B4A5968778695A4B3C2D1E0F
#: RFC 1321's MD5("abc"): "abc" padded to one 64-byte block.
_MD5_ABC = b"abc\x80" + bytes(52) + struct.pack("<Q", 24)
_MD5_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)


def _expect(what: str, got: bytes, expected: bytes) -> None:
    if got != expected:
        raise ValueError(f"{what} gave {got.hex()}, expected "
                         f"{expected.hex()}")


def _check_cipher(name: str, key, plain: bytes, cipher: bytes,
                  cbc: str) -> None:
    """The vector as a one-block CBC from a zero IV each way, then CBC
    over ``[P, P ^ C]``, which chains back to ``[C, C]``, and its
    decryption."""
    size = len(plain)
    iv = bytes(size)
    _expect(f"{name} encrypt", key.cbc(iv, plain, True), cipher)
    _expect(f"{name} decrypt", key.cbc(iv, cipher, False), plain)
    second = (int.from_bytes(plain, "big")
              ^ int.from_bytes(cipher, "big")).to_bytes(size, "big")
    _expect(cbc, key.cbc(iv, plain + second, True), cipher + cipher)
    _expect(f"{cbc} (decrypt)", key.cbc(iv, cipher + cipher, False),
            plain + second)


def _check_montgomery() -> None:
    """Products modulo :data:`_BN_MODULUS` against Python's ints: the
    conversions both ways, ``a * b / R``, its bit length, a copy over a
    register holding another value, and a chain of an in-place square
    and a product, with their bit lengths."""
    n = _BN_MODULUS
    r_inv = pow(1 << 128, -1, n)
    regs = MontKernel(n).registers(3)
    regs.set(0, _BN_A)
    regs.set(1, _BN_B)
    if regs.get(0) != _BN_A:
        raise ValueError("BN_bin2bn/BN_bn2binpad did not round-trip")
    expected = _BN_A * _BN_B * r_inv % n
    bits = regs.product(2, 0, 1)
    if regs.get(2) != expected:
        raise ValueError("BN_mod_mul_montgomery gave a wrong product")
    if bits != expected.bit_length():
        raise ValueError(f"BN_num_bits gave {bits}, expected "
                         f"{expected.bit_length()}")
    regs.copy(0, 2)
    if regs.get(0) != expected:
        raise ValueError("BN_copy did not copy")
    squared = expected * expected * r_inv % n
    chained = squared * _BN_B * r_inv % n
    lengths = regs.chain(0, (0, 1))
    if regs.get(0) != chained or lengths != [squared.bit_length(),
                                             chained.bit_length()]:
        raise ValueError("BN_mod_mul_montgomery chained in place wrongly")


def _self_check() -> None:
    """Run every bound function on its published vector; raise
    ``ValueError`` naming the first wrong answer."""
    for key_hex, cipher_hex in _AES_VECTORS:
        _check_cipher(f"FIPS-197 AES-{4 * len(key_hex)}",
                      AesKey(bytes.fromhex(key_hex)), _AES_PLAIN,
                      bytes.fromhex(cipher_hex), "AES_cbc_encrypt")
    for name, key_hex, plain, cipher_hex, cbc in _DES_VECTORS:
        _check_cipher(name, DesKey(bytes.fromhex(key_hex)), plain,
                      bytes.fromhex(cipher_hex), cbc)
    _expect("RFC 1321 MD5('abc') raw compression",
            struct.pack("<4I", *md5_compress(_MD5_IV, _MD5_ABC)),
            bytes.fromhex("900150983cd24fb0d6963f7d28e17f72"))
    _check_montgomery()


def _open() -> ctypes.PyDLL:
    """``_hashlib``'s shared object, every signature declared on it."""
    import _hashlib

    lib = ctypes.PyDLL(_hashlib.__file__)
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


_lib: Optional[ctypes.PyDLL] = None
#: Why the binding is off, or None when it loaded and passed every vector.
reason: Optional[str] = None
try:
    _lib = _open()
    _self_check()
except (ImportError, OSError, AttributeError, ValueError) as exc:
    _lib = None
    reason = f"{type(exc).__name__}: {exc}"

#: True when the fast path computes AES, DES/3DES, the raw MD5 chain and
#: Montgomery products with this binding.
available: bool = _lib is not None
