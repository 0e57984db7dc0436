"""From-scratch SSLv3 protocol stack (OpenSSL ``libssl`` equivalent)."""

from .ciphersuites import (
    AES128_SHA, AES256_SHA, ALL_SUITES, DEFAULT_SUITE, DES_CBC3_SHA,
    DES_CBC_SHA, DHE_RSA_AES128_SHA, DHE_RSA_AES256_SHA,
    EDH_RSA_DES_CBC3_SHA, NULL_MD5, NULL_SHA, RC4_MD5, RC4_SHA, CipherSuite,
    lookup,
)
from .client import SslClient
from .errors import (
    AlertDescription, AlertError, AlertLevel, BadCertificate, BadRecordMac,
    DecodeError, HandshakeFailure, PeerAlert, SslError, UnexpectedMessage,
)
from .loopback import (
    LoopbackResult, make_server_identity, profiled_handshake, pump,
    run_session,
)
from .record import (
    ConnectionState, ContentType, KeyMaterial, RecordLayer, SSL3_VERSION,
    TLS1_VERSION,
)
from .server import SslServer
from .session import SessionCache, SslSession
from .ticket import SESSION_TICKET_EXT, TicketKeyRing, TicketState
from .trace import TraceEvent, WireTracer, format_trace
from .x509 import (
    Certificate, make_ca_signed_pair, make_self_signed, verify_chain,
)

__all__ = [
    "AES128_SHA", "AES256_SHA", "ALL_SUITES", "DEFAULT_SUITE",
    "DES_CBC3_SHA", "DES_CBC_SHA", "DHE_RSA_AES128_SHA",
    "DHE_RSA_AES256_SHA", "EDH_RSA_DES_CBC3_SHA", "NULL_MD5", "NULL_SHA",
    "RC4_MD5",
    "RC4_SHA", "CipherSuite", "lookup",
    "SslClient", "SslServer",
    "AlertDescription", "AlertError", "AlertLevel", "BadCertificate",
    "BadRecordMac", "DecodeError", "HandshakeFailure", "PeerAlert",
    "SslError", "UnexpectedMessage",
    "LoopbackResult", "make_server_identity", "profiled_handshake",
    "pump", "run_session",
    "ConnectionState", "ContentType", "KeyMaterial", "RecordLayer",
    "SSL3_VERSION", "TLS1_VERSION",
    "SessionCache", "SslSession",
    "SESSION_TICKET_EXT", "TicketKeyRing", "TicketState",
    "TraceEvent", "WireTracer", "format_trace",
    "Certificate", "make_ca_signed_pair", "make_self_signed",
    "verify_chain",
]
