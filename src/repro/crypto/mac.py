"""Message authentication codes: the SSLv3 keyed MAC and HMAC.

Every SSLv3 record carries a MAC computed as a nested keyed hash
(``hash(secret || pad2 || hash(secret || pad1 || seq || type || len ||
data))``, with 0x36/0x5c pads sized 48 bytes for MD5 and 40 for SHA-1).
This is the "mac" entry the paper's Table 2 shows during the finished
exchange and the hashing share that grows with file size in Figure 2.

HMAC (RFC 2104) is also provided: TLS 1.0 uses it, and the crypto engine
models in :mod:`repro.engines` treat MAC units generically.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Callable, Union

from ..perf import ChargePlan, charge, charge_plans, mix, plan_of
from ..runtime import fastpath_enabled
from .md5 import MD5
from .sha1 import SHA1

HashFactory = Callable[[], Union[MD5, SHA1]]

#: Bookkeeping per MAC computation (sequence-number serialization, length
#: fields, buffer handling) beyond the hashing itself.
MAC_CALL = mix(movl=3_200, movb=500, addl=420, shrl=60, cmpl=500, jnz=500,
               pushl=160, popl=160, call=90, ret=90)

_PAD1 = 0x36
_PAD2 = 0x5C


#: The ``hashlib`` constructor and the pads of each hash the fast path
#: computes an SSLv3 MAC with.
_FAST = {MD5: (hashlib.md5, bytes([_PAD1]) * 48, bytes([_PAD2]) * 48),
         SHA1: (hashlib.sha1, bytes([_PAD1]) * 40, bytes([_PAD2]) * 40)}


def _pad_len(digest_size: int) -> int:
    # SSLv3: 48 pad bytes for MD5 (16-byte digest), 40 for SHA-1 (20-byte).
    return 48 if digest_size == 16 else 40


def ssl3_mac(hash_factory: HashFactory, secret: bytes, seq_num: int,
             content_type: int, data: bytes) -> bytes:
    """The SSLv3 record MAC.

    On the fast path an MD5 or SHA-1 MAC hashes with ``hashlib`` and
    charges one plan: the charges of the construction on the wrappers
    (:func:`_ssl3_mac`, the faithful path), which depend on the hash and
    the secret and data lengths only (:func:`_mac_plan`).
    """
    if seq_num < 0 or seq_num >= 1 << 64:
        raise ValueError("sequence number must fit in 64 bits")
    fast = _FAST.get(hash_factory) if fastpath_enabled() else None
    if fast is None:
        return _ssl3_mac(hash_factory, secret, seq_num, content_type, data)
    new, pad1, pad2 = fast
    inner = new(secret + pad1 + seq_num.to_bytes(8, "big")
                + bytes([content_type]) + len(data).to_bytes(2, "big"),
                usedforsecurity=False)
    inner.update(data)
    out = new(secret + pad2 + inner.digest(), usedforsecurity=False).digest()
    charge_plans((_mac_plan(hash_factory, len(secret), len(data)),))
    return out


@lru_cache(maxsize=256)
def _mac_plan(hash_factory: HashFactory, secret_len: int,
              data_len: int) -> ChargePlan:
    """The plan of an SSLv3 MAC under ``hash_factory`` with a secret and
    data of these lengths, recorded on zero bytes."""
    return plan_of(_ssl3_mac, hash_factory, bytes(secret_len), 0, 0,
                   bytes(data_len))


def _ssl3_mac(hash_factory: HashFactory, secret: bytes, seq_num: int,
              content_type: int, data: bytes) -> bytes:
    """The SSLv3 record MAC on the charged hash wrappers."""
    probe = hash_factory()
    npad = _pad_len(probe.digest_size)
    charge(MAC_CALL, function="mac")

    inner = probe
    inner.update(secret)
    inner.update(bytes([_PAD1]) * npad)
    inner.update(seq_num.to_bytes(8, "big"))
    inner.update(bytes([content_type]))
    inner.update(len(data).to_bytes(2, "big"))
    inner.update(data)

    outer = hash_factory()
    outer.update(secret)
    outer.update(bytes([_PAD2]) * npad)
    outer.update(inner.digest())
    return outer.digest()


def tls_mac(hash_factory: HashFactory, secret: bytes, seq_num: int,
            content_type: int, version: int, data: bytes) -> bytes:
    """The TLS 1.0 record MAC: HMAC over seq || type || version || len ||
    fragment (RFC 2246 section 6.2.3.1)."""
    if seq_num < 0 or seq_num >= 1 << 64:
        raise ValueError("sequence number must fit in 64 bits")
    charge(MAC_CALL, function="mac")
    header = (seq_num.to_bytes(8, "big") + bytes([content_type])
              + version.to_bytes(2, "big") + len(data).to_bytes(2, "big"))
    return hmac(hash_factory, secret, header + data)


def hmac(hash_factory: HashFactory, key: bytes, message: bytes) -> bytes:
    """HMAC (RFC 2104) over the given hash."""
    probe = hash_factory()
    block_size = probe.block_size
    charge(MAC_CALL, function="HMAC")
    if len(key) > block_size:
        key = _digest(hash_factory, key)
    key = key.ljust(block_size, b"\x00")
    ipad = bytes(k ^ 0x36 for k in key)
    opad = bytes(k ^ 0x5C for k in key)
    inner = hash_factory()
    inner.update(ipad)
    inner.update(message)
    outer = hash_factory()
    outer.update(opad)
    outer.update(inner.digest())
    return outer.digest()


def _digest(hash_factory: HashFactory, data: bytes) -> bytes:
    h = hash_factory()
    h.update(data)
    return h.digest()


# ---------------------------------------------------------------------------
# Per-connection MAC contexts
# ---------------------------------------------------------------------------
# A connection direction's record MAC is the plain function under that
# direction's hash and secret: on the fast path the hashing runs in
# ``hashlib``, so precomputing the secret-dependent prefix saves nothing.
# The classes stay as the one entry point the record layer calls per
# record, which the benchmark's trace times as its ``crypto.mac`` layer
# (``perfbench/spans.py``).


class Ssl3MacContext:
    """One connection direction's SSLv3 record MAC (:func:`ssl3_mac`)."""

    def __init__(self, hash_factory: HashFactory, secret: bytes):
        self.hash_factory = hash_factory
        self.secret = secret

    def mac(self, seq_num: int, content_type: int, data: bytes) -> bytes:
        return ssl3_mac(self.hash_factory, self.secret, seq_num,
                        content_type, data)


class TlsMacContext:
    """One connection direction's TLS 1.0 record MAC (:func:`tls_mac`)."""

    def __init__(self, hash_factory: HashFactory, secret: bytes):
        self.hash_factory = hash_factory
        self.secret = secret

    def mac(self, seq_num: int, content_type: int, version: int,
            data: bytes) -> bytes:
        return tls_mac(self.hash_factory, self.secret, seq_num,
                       content_type, version, data)
