"""Client-side SSLv3 state machine.

The client drives the handshake of the paper's Figure 1: it sends the
ClientHello, validates the server certificate, generates the 48-byte
pre-master secret and encrypts it with the server's RSA public key (the
public-key operation whose *decryption* dominates the server's Table 2),
then exchanges ChangeCipherSpec/Finished.  Presenting a cached
:class:`~repro.ssl.session.SslSession` triggers the abbreviated resumption
handshake.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from .. import perf
from ..crypto.rand import PseudoRandom
from .ciphersuites import ALL_SUITES, BY_ID, CipherSuite
from .connection import SslConnection
from .errors import BadCertificate, HandshakeFailure, UnexpectedMessage
from ..bignum import BigNum
from ..crypto.dh import DhError, DhKeyPair, DhParams
from ..crypto.md5 import MD5
from ..crypto.sha1 import SHA1
from .codec import ByteWriter
from .handshake import (
    CertificateMsg, ClientHello, ClientKeyExchange, Finished, HandshakeType,
    NewSessionTicket, ServerHello, ServerHelloDone, ServerKeyExchange,
)
from .record import ContentType
from .session import SslSession
from .ticket import SESSION_TICKET_EXT
from .x509 import Certificate, verify_chain

PRE_MASTER_LENGTH = 48


class ClientHandshakeState(enum.Enum):
    START = enum.auto()
    WAIT_SERVER_HELLO = enum.auto()
    WAIT_CERTIFICATE = enum.auto()
    WAIT_SERVER_DONE = enum.auto()
    WAIT_FINISHED = enum.auto()          # full handshake
    WAIT_FINISHED_RESUMED = enum.auto()  # abbreviated handshake
    CONNECTED = enum.auto()


class SslClient(SslConnection):
    """One client-side connection endpoint."""

    is_server = False

    def __init__(self, suites: Sequence[CipherSuite] = (),
                 session: Optional[SslSession] = None,
                 rng: Optional[PseudoRandom] = None,
                 trusted_issuer: Optional[Certificate] = None,
                 version: int = 0x0300,
                 use_v2_hello: bool = False,
                 session_tickets: bool = False):
        """``version`` is the offered protocol version: 0x0300 (SSLv3, the
        paper's configuration and the default) or 0x0301 (TLS 1.0).
        ``use_v2_hello`` opens with an SSLv2-format compatibility hello,
        as era browsers did.  ``session_tickets`` advertises RFC-5077
        stateless-ticket support (an empty SessionTicket extension); a
        stored ticket on the offered session is presented regardless."""
        super().__init__()
        self._suites = tuple(suites) if suites else tuple(
            s for s in ALL_SUITES if s.cipher != "null")
        self._rng = rng if rng is not None else PseudoRandom(b"client")
        self._offered_session = session
        self._offered_version = version
        self._use_v2_hello = use_v2_hello
        self._session_tickets = session_tickets
        self._offered_sid = b""
        self._pending_ticket: Optional[bytes] = None
        self._trusted_issuer = trusted_issuer
        self._state = ClientHandshakeState.START
        self._server_cert: Optional[Certificate] = None
        self._server_dh: Optional[ServerKeyExchange] = None
        self.session: Optional[SslSession] = None
        self.resumed = False
        self.renegotiations = 0
        self._init_handshake_hashes()

    # -- record routing ---------------------------------------------------
    def _region_for_record(self, content_type: int) -> str:
        if content_type == ContentType.CHANGE_CIPHER_SPEC:
            return "get_server_finished"
        if content_type == ContentType.HANDSHAKE:
            return {
                ClientHandshakeState.WAIT_SERVER_HELLO: "get_server_hello",
                ClientHandshakeState.WAIT_CERTIFICATE: "get_server_cert",
                ClientHandshakeState.WAIT_SERVER_DONE: "get_server_done",
                ClientHandshakeState.WAIT_FINISHED: "get_server_finished",
                ClientHandshakeState.WAIT_FINISHED_RESUMED:
                    "get_server_finished",
            }.get(self._state, "post_handshake")
        if content_type == ContentType.APPLICATION_DATA:
            return "bulk_transfer"
        return "alert"

    # -- kick-off ------------------------------------------------------------
    def start_handshake(self) -> None:
        """Send the ClientHello (optionally offering a session to resume)."""
        if self._state is not ClientHandshakeState.START:
            raise HandshakeFailure("handshake already started")
        with perf.region("send_client_hello"):
            if self._use_v2_hello and self.renegotiations == 0:
                self._send_v2_hello()
            else:
                with perf.region("rand_pseudo_bytes"):
                    self.client_random = self._rng.bytes(32)
                offered = self._offered_session
                extensions = ()
                if offered is not None and offered.ticket:
                    # Ticket resumption: present the opaque ticket and a
                    # *random* session id as the acceptance handle (RFC
                    # 5077 section 3.4 -- the server echoes it to signal
                    # the ticket was taken).
                    with perf.region("rand_pseudo_bytes"):
                        session_id = self._rng.bytes(32)
                    extensions = ((SESSION_TICKET_EXT, offered.ticket),)
                else:
                    session_id = offered.session_id if offered else b""
                    if self._session_tickets:
                        extensions = ((SESSION_TICKET_EXT, b""),)
                self._offered_sid = session_id
                self._send_handshake(ClientHello(
                    client_random=self.client_random,
                    session_id=session_id,
                    cipher_suites=tuple(s.suite_id for s in self._suites),
                    version=self._offered_version,
                    extensions=extensions))
        self._state = ClientHandshakeState.WAIT_SERVER_HELLO

    def _send_v2_hello(self) -> None:
        from .handshake import build_v2_client_hello, v2_record
        with perf.region("rand_pseudo_bytes"):
            challenge = self._rng.bytes(32)
        self.client_random = challenge.rjust(32, b"\x00")
        self._offered_sid = b""
        message = build_v2_client_hello(
            self._offered_version,
            tuple(s.suite_id for s in self._suites), challenge)
        self._update_handshake_hashes(message)
        self._out += v2_record(message)

    # -- handshake dispatch ------------------------------------------------------
    def _handle_handshake(self, msg_type: int, body: bytes,
                          raw: bytes) -> None:
        if msg_type == HandshakeType.SERVER_HELLO:
            if self._state is not ClientHandshakeState.WAIT_SERVER_HELLO:
                raise UnexpectedMessage("server_hello out of order")
            self._update_handshake_hashes(raw)
            self._process_server_hello(ServerHello.parse(body))
        elif msg_type == HandshakeType.CERTIFICATE:
            if self._state is not ClientHandshakeState.WAIT_CERTIFICATE:
                raise UnexpectedMessage("certificate out of order")
            self._update_handshake_hashes(raw)
            self._process_certificate(CertificateMsg.parse(body))
        elif msg_type == HandshakeType.SERVER_KEY_EXCHANGE:
            if self._state is not ClientHandshakeState.WAIT_SERVER_DONE or \
                    self.cipher_suite.key_exchange != "DHE_RSA":
                raise UnexpectedMessage("server_key_exchange out of order")
            self._update_handshake_hashes(raw)
            self._process_server_kx(ServerKeyExchange.parse(body))
        elif msg_type == HandshakeType.SERVER_HELLO_DONE:
            if self._state is not ClientHandshakeState.WAIT_SERVER_DONE:
                raise UnexpectedMessage("server_hello_done out of order")
            ServerHelloDone.parse(body)
            self._update_handshake_hashes(raw)
            self._send_second_flight()
        elif msg_type == HandshakeType.NEW_SESSION_TICKET:
            # Arrives before the server's CCS on both flows (RFC 5077
            # section 3.3); held until Finished verifies, then attached
            # to the negotiated session.
            if self._state not in (
                    ClientHandshakeState.WAIT_FINISHED,
                    ClientHandshakeState.WAIT_FINISHED_RESUMED):
                raise UnexpectedMessage("new_session_ticket out of order")
            self._update_handshake_hashes(raw)
            self._pending_ticket = NewSessionTicket.parse(body).ticket
        elif msg_type == HandshakeType.FINISHED:
            if self._state not in (
                    ClientHandshakeState.WAIT_FINISHED,
                    ClientHandshakeState.WAIT_FINISHED_RESUMED):
                raise UnexpectedMessage("finished out of order")
            self._process_server_finished(Finished.parse(body), raw)
        elif msg_type == HandshakeType.HELLO_REQUEST:
            # Server-initiated renegotiation: start a fresh handshake over
            # the established connection (offering our session for an
            # abbreviated re-handshake when we have one).
            if self._state is ClientHandshakeState.CONNECTED:
                self.renegotiate(session=self.session)
        else:
            raise UnexpectedMessage(
                f"client cannot handle {HandshakeType.name(msg_type)}")

    def _process_server_hello(self, hello: ServerHello) -> None:
        if hello.version not in (0x0300, 0x0301) or \
                hello.version > self._offered_version:
            raise HandshakeFailure(
                f"server chose unsupported version 0x{hello.version:04x}")
        self._set_version(hello.version)
        if hello.cipher_suite not in BY_ID:
            raise HandshakeFailure("server chose an unknown cipher suite")
        suite = BY_ID[hello.cipher_suite]
        if suite.suite_id not in (s.suite_id for s in self._suites):
            raise HandshakeFailure("server chose a suite we did not offer")
        self.cipher_suite = suite
        self.server_random = hello.server_random
        offered = self._offered_session
        if (offered is not None and hello.session_id
                and hello.session_id == self._offered_sid):
            # Abbreviated handshake accepted (for ticket offers the
            # echoed id is our random acceptance handle, not a cached id).
            self.resumed = True
            self.master_secret = offered.master_secret
            self.session = offered
            self._state = ClientHandshakeState.WAIT_FINISHED_RESUMED
        else:
            self._new_session_id = hello.session_id
            self._state = ClientHandshakeState.WAIT_CERTIFICATE

    def _process_certificate(self, msg: CertificateMsg) -> None:
        if not msg.certificates:
            raise BadCertificate("empty certificate chain")
        chain = [Certificate.from_bytes(der) for der in msg.certificates]
        trusted = [self._trusted_issuer] if self._trusted_issuer else None
        if not verify_chain(chain, trusted=trusted):
            raise BadCertificate("certificate chain invalid")
        self._server_cert = chain[0]
        self._server_chain = chain
        self._state = ClientHandshakeState.WAIT_SERVER_DONE

    def _process_server_kx(self, skx: ServerKeyExchange) -> None:
        """Verify and store the server's signed ephemeral DH parameters."""
        with perf.region("get_server_kx"):
            signed = (self.client_random + self.server_random
                      + skx.params_bytes())
            digest = MD5(signed).digest() + SHA1(signed).digest()
            if not self._server_cert.public_key.verify(skx.signature,
                                                       digest):
                raise HandshakeFailure("server key exchange signature "
                                       "invalid")
            self._server_dh = skx

    # -- second flight: KX + CCS + Finished --------------------------------------
    def _send_client_kx_rsa(self) -> None:
        with perf.region("send_client_kx"):
            with perf.region("rand_pseudo_bytes"):
                pre_master = (self._offered_version.to_bytes(2, "big")
                              + self._rng.bytes(PRE_MASTER_LENGTH - 2))
            encrypted = self._server_cert.public_key.encrypt(
                pre_master, self._rng)
            self._send_handshake(ClientKeyExchange(
                encrypted_pre_master=encrypted, tls_format=self.is_tls))
            with perf.region("gen_master_secret"):
                self.master_secret = self._derive_master_secret(pre_master)

    def _send_client_kx_dhe(self) -> None:
        if self._server_dh is None:
            raise HandshakeFailure("DHE suite chosen but no "
                                   "server_key_exchange received")
        with perf.region("send_client_kx"):
            try:
                params = DhParams(p=BigNum.from_bytes(self._server_dh.dh_p),
                                  g=BigNum.from_bytes(self._server_dh.dh_g))
                keypair = DhKeyPair(params, rng=self._rng)
                pre_master = keypair.compute_shared(
                    BigNum.from_bytes(self._server_dh.dh_ys))
            except DhError as exc:
                raise HandshakeFailure(f"DH key agreement failed: {exc}")
            body = ByteWriter().vec16(keypair.public.to_bytes()).bytes()
            self._send_handshake(
                ClientKeyExchange(encrypted_pre_master=body))
            with perf.region("gen_master_secret"):
                self.master_secret = self._derive_master_secret(pre_master)

    def _send_second_flight(self) -> None:
        if self.cipher_suite.key_exchange == "DHE_RSA":
            self._send_client_kx_dhe()
        else:
            self._send_client_kx_rsa()
        with perf.region("send_cipher_spec"):
            self._send_ccs()
            with perf.region("gen_key_block"):
                client_state, server_state = self._build_states()
                self._server_read_state = server_state
            self._records.set_write_state(client_state)
        with perf.region("send_finished"):
            with perf.region("final_finish_mac"):
                verify = self._compute_verify_data(for_client=True)
            self._send_handshake(Finished(verify_data=verify))
        self._state = ClientHandshakeState.WAIT_FINISHED

    # -- server CCS + finished ------------------------------------------------------
    def _handle_ccs(self) -> None:
        if self._state is ClientHandshakeState.WAIT_FINISHED:
            self._records.set_read_state(self._server_read_state)
        elif self._state is ClientHandshakeState.WAIT_FINISHED_RESUMED:
            with perf.region("gen_key_block"):
                client_state, server_state = self._build_states()
                self._resumed_client_state = client_state
            self._records.set_read_state(server_state)
        else:
            raise UnexpectedMessage("change_cipher_spec out of order")

    def _process_server_finished(self, finished: Finished,
                                 raw: bytes) -> None:
        with perf.region("final_finish_mac"):
            expected = self._compute_verify_data(for_client=False)
        from ..crypto.util import ct_equal
        if not ct_equal(finished.verify_data, expected):
            raise HandshakeFailure("server finished hash mismatch")
        self._update_handshake_hashes(raw)
        if self._state is ClientHandshakeState.WAIT_FINISHED_RESUMED:
            # Abbreviated handshake: now send our CCS + Finished.
            with perf.region("send_cipher_spec"):
                self._send_ccs()
                self._records.set_write_state(self._resumed_client_state)
            with perf.region("send_finished"):
                with perf.region("final_finish_mac"):
                    verify = self._compute_verify_data(for_client=True)
                self._send_handshake(Finished(verify_data=verify))
        else:
            self.session = SslSession(
                session_id=self._new_session_id,
                cipher_suite_id=self.cipher_suite.suite_id,
                master_secret=self.master_secret,
            ) if self._new_session_id else None
        if self._pending_ticket is not None and self.session is not None:
            # Fresh mint or rollover renewal: the ticket travels with the
            # session so the next offer presents it.
            self.session.ticket = self._pending_ticket
        self._pending_ticket = None
        self._state = ClientHandshakeState.CONNECTED
        self.handshake_complete = True

    def _handle_alert(self, payload: bytes) -> None:
        from .errors import AlertDescription, AlertLevel
        if (len(payload) == 2 and payload[0] == AlertLevel.WARNING
                and payload[1] == AlertDescription.NO_RENEGOTIATION
                and self.renegotiations):
            # The server declined our renegotiation: abandon it and return
            # to the established session (keys never changed).
            self.renegotiations -= 1
            self.handshake_complete = True
            self._state = ClientHandshakeState.CONNECTED
            return
        super()._handle_alert(payload)

    def renegotiate(self, session: Optional[SslSession] = None) -> None:
        """Start a new handshake on the established connection."""
        if self._state is not ClientHandshakeState.CONNECTED:
            raise HandshakeFailure("cannot renegotiate before the first "
                                   "handshake completes")
        self.renegotiations += 1
        self.handshake_complete = False
        self.resumed = False
        self._server_dh = None
        self._pending_ticket = None
        self._offered_session = session
        self._init_handshake_hashes()
        self._state = ClientHandshakeState.START
        self.start_handshake()

    @property
    def server_certificate(self) -> Optional[Certificate]:
        return self._server_cert
