"""Interop with the interpreter's OpenSSL: an outside oracle for the
protocol layer.

Everywhere else our server talks to our own client, so a mistake made
the same way on both sides -- a PRF label, the Finished hash input, MAC
sequence numbers, CBC padding, the premaster version check, the DHE
signature -- passes every test and the gate.  Here the ``ssl`` module's
TLS client, driven over ``ssl.MemoryBIO`` with no socket, talks to our
:class:`~repro.ssl.SslServer` on both host backends: TLS 1.0 handshakes
on four AES suites with application data both ways (on the DHE suites
OpenSSL verifies our ServerKeyExchange signature), session-id
resumption, and a record with a tampered MAC, padding or length
answered with the alert OpenSSL expects.

The paper's default path cannot be reached this way: OpenSSL 3.0.19 has
SSLv3 compiled out, and its ``set_ciphers`` finds neither DES-CBC3-SHA
nor the RC4 suites, so SSLv3 DES-CBC3-SHA stays checked against our own
client only.  A case the local OpenSSL cannot configure (a build or a
system policy that refuses TLS 1.0, say) skips with its reason.
"""

from __future__ import annotations

import ssl
import warnings

import pytest

from repro import runtime
from repro.crypto.rand import PseudoRandom
from repro.ssl import (
    AES128_SHA, AES256_SHA, DHE_RSA_AES128_SHA, DHE_RSA_AES256_SHA,
    SessionCache, SslServer,
)
from repro.ssl.errors import BadRecordMac

SUITES = [AES128_SHA, AES256_SHA, DHE_RSA_AES128_SHA, DHE_RSA_AES256_SHA]


# ---------------------------------------------------------------------------
# A DER certificate around our server key
# ---------------------------------------------------------------------------

def _tlv(tag: int, body: bytes) -> bytes:
    n = len(body)
    if n < 0x80:
        return bytes([tag, n]) + body
    size = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([tag, 0x80 | len(size)]) + size + body


def _seq(*parts: bytes) -> bytes:
    return _tlv(0x30, b"".join(parts))


def _int(value: int) -> bytes:
    return _tlv(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


def _oid(first: int, second: int, *arcs: int) -> bytes:
    body = bytearray([40 * first + second])
    for arc in arcs:
        base128 = [arc & 0x7F]
        while arc > 0x7F:
            arc >>= 7
            base128.append(0x80 | (arc & 0x7F))
        body += bytes(reversed(base128))
    return _tlv(0x06, bytes(body))


class DerCertificate:
    """A v1 X.509 certificate carrying the server's RSA public key.

    ``CERT_NONE`` leaves its signature unchecked, so the signature is
    zero bytes; OpenSSL reads the key from it to encrypt the premaster
    secret and to verify a DHE ServerKeyExchange.  :class:`SslServer`
    only calls ``to_bytes()``.
    """

    def __init__(self, key):
        null = _tlv(0x05, b"")
        rsa_encryption = _seq(_oid(1, 2, 840, 113549, 1, 1, 1), null)
        sha256_with_rsa = _seq(_oid(1, 2, 840, 113549, 1, 1, 11), null)
        name = _seq(_tlv(0x31, _seq(_oid(2, 5, 4, 3),
                                    _tlv(0x0C, b"repro-interop"))))
        validity = _seq(_tlv(0x17, b"200101000000Z"),
                        _tlv(0x17, b"491231235959Z"))
        public_key = _seq(_int(key.n.to_int()), _int(key.e.to_int()))
        spki = _seq(rsa_encryption, _tlv(0x03, b"\x00" + public_key))
        tbs = _seq(_int(1), sha256_with_rsa, name, validity, name, spki)
        self._der = _seq(tbs, sha256_with_rsa,
                         _tlv(0x03, b"\x00" + bytes(key.size)))

    def to_bytes(self) -> bytes:
        return self._der


# ---------------------------------------------------------------------------
# The OpenSSL client and its link to our server
# ---------------------------------------------------------------------------

def client_context(suite) -> ssl.SSLContext:
    """A TLS 1.0-only OpenSSL client context offering just ``suite``.

    Skips the test when the local OpenSSL refuses the configuration: the
    context must accept it and write a ClientHello.
    """
    try:
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.check_hostname = False
        ctx.verify_mode = ssl.CERT_NONE
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            ctx.minimum_version = ssl.TLSVersion.TLSv1
            ctx.maximum_version = ssl.TLSVersion.TLSv1
        ctx.set_ciphers(f"{suite.name}:@SECLEVEL=0")
        # Our server sends no renegotiation_info extension.
        ctx.options |= getattr(ssl, "OP_LEGACY_SERVER_CONNECT", 0x4)
        ctx.options |= ssl.OP_NO_TICKET
        probe = ctx.wrap_bio(ssl.MemoryBIO(), ssl.MemoryBIO())
        try:
            probe.do_handshake()
        except ssl.SSLWantReadError:
            pass
    except (ssl.SSLError, ValueError) as exc:
        pytest.skip(f"{ssl.OPENSSL_VERSION} cannot offer {suite.name} "
                    f"over TLS 1.0: {exc}")
    return ctx


class Link:
    """One OpenSSL client over memory BIOs, wired to one of our servers."""

    def __init__(self, ctx: ssl.SSLContext, server: SslServer,
                 session: ssl.SSLSession = None):
        self.incoming, self.outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
        self.client = ctx.wrap_bio(self.incoming, self.outgoing,
                                   session=session)
        self.server = server

    def to_server(self) -> None:
        self.server.receive(self.outgoing.read())

    def to_client(self) -> None:
        self.incoming.write(self.server.pending_output())

    def handshake(self) -> None:
        for _ in range(8):
            try:
                self.client.do_handshake()
            except ssl.SSLWantReadError:
                pass
            else:
                if self.server.handshake_complete:
                    return
            self.to_server()
            self.to_client()
        raise AssertionError("handshake with OpenSSL did not converge")


@pytest.fixture(scope="module")
def identity(rsa512):
    return rsa512, DerCertificate(rsa512)


@pytest.fixture(params=[True, False], ids=["fast", "faithful"])
def backend(request):
    with runtime.fastpath(request.param):
        yield


def make_server(identity, suite, cache=None, seed=b"interop"):
    key, cert = identity
    return SslServer(key, cert, suites=(suite,), session_cache=cache,
                     rng=PseudoRandom(seed + suite.name.encode()))


# ---------------------------------------------------------------------------
# The cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
def test_handshake_and_data_both_ways(identity, backend, suite):
    ctx = client_context(suite)
    link = Link(ctx, make_server(identity, suite))
    link.handshake()
    assert link.client.version() == "TLSv1"
    assert link.client.cipher()[0] == suite.name
    assert link.server.cipher_suite.suite_id == suite.suite_id

    link.client.write(b"GET /doc-1024-0.html HTTP/1.1\r\n\r\n")
    link.to_server()
    assert link.server.read() == b"GET /doc-1024-0.html HTTP/1.1\r\n\r\n"
    body = bytes(range(256)) * 20  # 320 AES blocks in one record
    link.server.write(body)
    link.to_client()
    received = b""
    while len(received) < len(body):
        received += link.client.read(len(body))
    assert received == body


def test_session_id_resumption(identity, backend):
    ctx = client_context(AES128_SHA)
    cache = SessionCache()
    first = Link(ctx, make_server(identity, AES128_SHA, cache, b"first"))
    first.handshake()
    assert not first.client.session_reused

    second = Link(ctx, make_server(identity, AES128_SHA, cache, b"second"),
                  session=first.client.session)
    second.handshake()
    assert second.client.session_reused
    assert second.server.resumed
    second.client.write(b"resumed")
    second.to_server()
    assert second.server.read() == b"resumed"


def tamper(wire: bytes, how: str) -> bytes:
    """Damage the last record of ``wire``: flip its first ciphertext
    byte (the MAC no longer matches), flip its last byte (the CBC padding
    no longer checks), or cut its last byte (the ciphertext is no longer
    a whole number of blocks; the header length follows)."""
    start = 0
    while True:
        end = start + 5 + int.from_bytes(wire[start + 3:start + 5], "big")
        if end >= len(wire):
            break
        start = end
    record = bytearray(wire[start:])
    if how == "mac":
        record[5] ^= 0x01
    elif how == "padding":
        record[-1] ^= 0x01
    else:
        del record[-1]
        record[3:5] = (len(record) - 5).to_bytes(2, "big")
    return wire[:start] + bytes(record)


@pytest.mark.parametrize("how", ["mac", "padding", "length"])
def test_tampered_record_is_a_bad_record_mac(identity, backend, how):
    """Every tampered record fails alike, as one ``bad_record_mac``
    alert: no padding oracle, and the alert OpenSSL expects."""
    ctx = client_context(AES128_SHA)
    link = Link(ctx, make_server(identity, AES128_SHA))
    link.handshake()
    link.client.write(b"tamper with me")
    with pytest.raises(BadRecordMac):
        link.server.receive(tamper(link.outgoing.read(), how))
    link.to_client()
    with pytest.raises(ssl.SSLError) as excinfo:
        link.client.read()
    assert excinfo.value.reason == "SSLV3_ALERT_BAD_RECORD_MAC"
