"""Server-side SSLv3 state machine, instrumented per the paper's anatomy.

Section 4.2 partitions the server's handshake into ten steps; this class
executes them inside profiler regions named after Table 2's rows::

    init                 step 0  (constructor: states, finished-MAC init)
    get_client_hello     step 1  (version/session checks, cipher choice)
    send_server_hello    step 2  (server random, hello message)
    send_server_cert     step 3  (certificate chain)
    send_server_done     step 4  (+ server_flush / BIO control)
    get_client_kx        step 5  (RSA private decryption of the pre-master,
                                  master-secret generation, cert-verify MAC)
    get_finished         step 6  (key block, finished hashes, reading the
                                  first encrypted record)
    send_cipher_spec     step 7
    send_finished        step 8  (SRVR finished hashes, first encryption)
    server_flush         step 9  (flush, free, zeroize)

RSA's own six-step anatomy (Table 7) nests inside ``get_client_kx`` via
:meth:`repro.crypto.rsa.RsaPrivateKey.decrypt`.

Responses are queued as deferred actions and executed *after* the record
that triggered them has been fully dispatched, so that each step lands in
its own top-level region exactly as the paper's rdtsc instrumentation
delimited them.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..crypto.batch_rsa import BatchRsaDecryptor, BatchRsaKeySet
from ..crypto.rand import PseudoRandom
from ..crypto.rsa import RsaError, RsaPrivateKey
from . import kdf
from .ciphersuites import ALL_SUITES, BY_ID, CipherSuite
from .connection import SSL_CLEANUP, SslConnection
from .errors import HandshakeFailure, SslError, UnexpectedMessage
from ..bignum import BigNum
from ..crypto.dh import DhKeyPair, DhParams
from ..crypto.md5 import MD5
from ..crypto.sha1 import SHA1
from .codec import ByteReader
from .handshake import (
    ClientHello, ClientKeyExchange, Finished, HandshakeType, HelloRequest,
    NewSessionTicket, ServerHello, ServerHelloDone, ServerKeyExchange,
    CertificateMsg,
)
from ..perf import InstrMix, charge, mix
from .record import ContentType
from .session import SessionCache, SslSession
from .ticket import SESSION_TICKET_EXT, TicketKeyRing, TicketState
from .x509 import Certificate

PRE_MASTER_LENGTH = 48

# ---------------------------------------------------------------------------
# Modelled libssl bookkeeping (the non-crypto share of each Table 2 step).
# The paper's steps carry substantial non-crypto time -- e.g. step 0 is 348k
# cycles of which only 29k is crypto -- coming from SSL structure allocation,
# session-cache handling and the handshake state machine.  Our compact Python
# state machine does not naturally incur those costs, so they are charged as
# explicit mixes calibrated against Table 2's (total - crypto) residues.
# ---------------------------------------------------------------------------

#: SSL_new/SSL_accept setup: allocating and zeroing the SSL, SSL3_STATE,
#: buffer and BIO structures (step 0 residue: ~320k cycles).
SSL_NEW = mix(movl=380_000, movb=100_000, xorl=80_000, addl=30_000,
              cmpl=25_000, jnz=25_000, pushl=8_000, popl=8_000,
              call=5_000, ret=5_000)

#: Per-handshake-message state-machine and buffer work
#: (ssl3_get_message / ssl3_send handshake framing).
HS_PROC = mix(movl=14_000, movb=3_000, addl=2_000, cmpl=2_500, jnz=2_500,
              pushl=400, popl=400, call=250, ret=250)

#: ClientHello processing residue: session-id lookup, cipher-list
#: intersection, compression negotiation (step 1 residue: ~125k cycles).
CLIENT_HELLO_PROC = mix(movl=150_000, movb=30_000, cmpl=30_000, jnz=25_000,
                        addl=12_000, pushl=2_500, popl=2_500, call=1_500,
                        ret=1_500)

#: ClientKeyExchange processing residue: EVP/RSA wrapper dispatch and
#: temporary buffer management (step 5 residue: ~165k cycles).
CLIENT_KX_PROC = mix(movl=200_000, movb=40_000, cmpl=35_000, jnz=30_000,
                     addl=15_000, pushl=3_500, popl=3_500, call=2_000,
                     ret=2_000)

#: ChangeCipherSpec processing residue: EVP cipher-context setup for both
#: directions (step 6a residue: ~65k cycles).
CCS_PROC = mix(movl=80_000, movb=15_000, cmpl=13_000, jnz=12_000,
               addl=6_000, pushl=1_500, popl=1_500, call=900, ret=900)


def _split(m: InstrMix) -> Tuple[InstrMix, InstrMix]:
    """A modelled mix split 22% to libssl, 78% to libc ('other').

    Oprofile attributes the allocation/zeroing under SSL setup mostly to
    libc (Table 1 shows libssl itself at only 0.82%); the split keeps the
    module breakdown faithful while the step regions still see the full
    cost."""
    return m.scaled(0.22), m.scaled(0.78)


# The halves of each modelled mix, built once so that every charge reuses
# the mixes' memoized cycle cost.
_SSL_NEW = _split(SSL_NEW)
_HS_PROC = _split(HS_PROC)
_CLIENT_HELLO_PROC = _split(CLIENT_HELLO_PROC)
_CLIENT_KX_PROC = _split(CLIENT_KX_PROC)
_CCS_PROC = _split(CCS_PROC)
_SSL_CLEANUP = _split(SSL_CLEANUP)


def _charge_split(halves: Tuple[InstrMix, InstrMix], function: str) -> None:
    """Charge the :func:`_split` halves of a modelled mix."""
    libssl, libc = halves
    charge(libssl, function=function, module="libssl")
    charge(libc, function=function + "@libc", module="other")


class HandshakeBatcher:
    """Batches concurrent ClientKeyExchange decryptions across servers.

    Servers sharing a :class:`~repro.crypto.batch_rsa.BatchRsaKeySet`
    submit their RSA pre-master ciphertexts here instead of decrypting
    inline; once one ciphertext per distinct member key is queued (or a
    virtual-time timeout fires) the queue is drained through one
    Shacham-Boneh batched private operation and every suspended handshake
    is resumed from its continuation.  The batched operation always
    blinds, as an :class:`RsaPrivateKey` does by default.  Time is
    virtual: the driving loop (the web-server simulator's transaction
    interleaver) calls :meth:`tick` once per scheduling round.
    """

    def __init__(self, keyset: BatchRsaKeySet,
                 batch_size: Optional[int] = None,
                 timeout_ticks: int = 8):
        self.keyset = keyset
        self.decryptor = BatchRsaDecryptor(keyset)
        self.batch_size = min(batch_size or len(keyset), len(keyset))
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.timeout_ticks = timeout_ticks
        self._queue: List[Tuple[int, bytes, Callable[[Optional[bytes]],
                                                     None]]] = []
        self._now = 0
        self._deadline: Optional[int] = None
        #: Batch-size histogram: {size: count of flushed sub-batches}.
        self.batches: Dict[int, int] = {}
        self.ops_submitted = 0

    # -- queue state ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    def _ready(self) -> bool:
        """A full batch is formable: ``batch_size`` distinct member keys."""
        return len({i for i, _, _ in self._queue}) >= self.batch_size

    # -- submission / clocking ------------------------------------------------
    def submit(self, key: RsaPrivateKey, ciphertext: bytes,
               resume: Callable[[Optional[bytes]], None]) -> None:
        """Queue one decryption; ``resume`` is called with the recovered
        pre-master block (or ``None`` on padding failure) at flush time."""
        index = self.keyset.index_for(key)
        if len(ciphertext) != self.keyset.size:
            # Structurally unbatchable; resolve immediately and uniformly
            # (the caller substitutes a random pre-master, so the failure
            # still surfaces only at Finished).
            resume(None)
            return
        self._queue.append((index, ciphertext, resume))
        self.ops_submitted += 1
        if self._deadline is None:
            self._deadline = self._now + self.timeout_ticks

    @property
    def ready(self) -> bool:
        """A full batch is waiting.  Submission never flushes inline --
        the submitting server is still inside its ClientKeyExchange step
        region, and a flush resumes *other* connections whose work must
        not be attributed there.  Drivers (``SslServer._after_receive``,
        the simulator loop) flush once dispatch has unwound."""
        return self._ready()

    def tick(self, ticks: int = 1) -> None:
        """Advance virtual time; flush any batch past its deadline."""
        self._now += ticks
        if self._deadline is not None and self._now >= self._deadline:
            self.flush()

    # -- the batched private operation ---------------------------------------
    def flush(self) -> None:
        """Drain the queue through batched private ops and resume everyone.

        Entries sharing a member key cannot share a batch (the algorithm
        needs pairwise coprime exponents), so the queue is drained in
        greedy rounds of distinct members.
        """
        self._deadline = None
        while self._queue:
            sub: List[Tuple[int, bytes, Callable]] = []
            taken = set()
            rest = []
            for entry in self._queue:
                if entry[0] in taken or len(sub) >= self.batch_size:
                    rest.append(entry)
                else:
                    taken.add(entry[0])
                    sub.append(entry)
            self._queue = rest
            self.batches[len(sub)] = self.batches.get(len(sub), 0) + 1
            # The decrypt itself lands in the Table 2 step region the
            # paper charges it to; each resumed handshake then opens its
            # own get_client_kx region for the non-RSA remainder.
            with perf.region("get_client_kx"):
                results = self.decryptor.decrypt_batch(
                    [(i, c) for i, c, _ in sub])
            for (_, _, resume), pre_master in zip(sub, results):
                try:
                    resume(pre_master)
                except SslError:
                    # One handshake failing (e.g. at Finished, which is
                    # exactly where the Bleichenbacher countermeasure
                    # steers bad ciphertexts) must not strand the rest
                    # of the batch: the failed connection has already
                    # sent its alert and torn down inside its own
                    # _alert_guard.
                    pass


class ServerHandshakeState(enum.Enum):
    WAIT_CLIENT_HELLO = enum.auto()
    WAIT_CLIENT_KX = enum.auto()
    WAIT_FINISHED = enum.auto()          # full handshake: client finished
    WAIT_FINISHED_RESUMED = enum.auto()  # abbreviated handshake
    CONNECTED = enum.auto()


class SslServer(SslConnection):
    """One server-side connection endpoint."""

    is_server = True

    def __init__(self, private_key: RsaPrivateKey, certificate: Certificate,
                 suites: Sequence[CipherSuite] = (),
                 session_cache: Optional[SessionCache] = None,
                 rng: Optional[PseudoRandom] = None,
                 max_version: int = 0x0301,
                 cert_chain: Sequence[Certificate] = (),
                 allow_renegotiation: bool = True,
                 batcher: Optional[HandshakeBatcher] = None,
                 clock: Optional[Callable[[], float]] = None,
                 session_lifetime: Optional[float] = None,
                 offload=None,
                 ticket_keys: Optional[TicketKeyRing] = None):
        """``cert_chain``: intermediate/root certificates sent after the
        leaf (the paper's server used a single self-signed certificate).
        ``batcher``: a shared :class:`HandshakeBatcher`; when set, the RSA
        ClientKeyExchange decrypt is deferred into its queue and the
        handshake suspends until the batch flushes.  ``clock``: virtual
        wall-clock in seconds (e.g. ``profiler.seconds``); when set, cache
        lookups enforce session expiry and minted sessions are stamped
        with their creation time.  ``session_lifetime`` overrides the
        OpenSSL-default 300 s lifetime of minted sessions.  ``offload``:
        an :class:`repro.engines.offload.OffloadPool` serving this
        server's record crypto and RSA private-key ops (worker-local in
        a farm); ``None`` keeps everything in software.  ``ticket_keys``:
        a :class:`~repro.ssl.ticket.TicketKeyRing`; when set, the server
        mints RFC-5077-style stateless session tickets for clients that
        advertise support and accepts offered tickets for resumption
        without consulting (or populating) the id cache.  ``suites`` is
        the server's preference order: it picks the first of them the
        client offers."""
        with perf.region("init"):
            super().__init__()
            self._key = private_key
            self._cert = certificate
            self._chain = tuple(cert_chain)
            self._suites = tuple(suites) if suites else tuple(
                s for s in ALL_SUITES if s.cipher != "null")
            self._cache = session_cache
            self._rng = rng if rng is not None else PseudoRandom(b"server")
            self._state = ServerHandshakeState.WAIT_CLIENT_HELLO
            self._max_version = max_version
            self._client_version = 0x0300
            self._pending: List[Callable[[], None]] = []
            self._session_id = b""
            self._pre_master: Optional[bytes] = None
            self._dh_keypair: Optional[DhKeyPair] = None
            self._allow_renegotiation = allow_renegotiation
            self._batcher = batcher
            self._offload_pool = offload
            self._clock = clock
            self._session_lifetime = session_lifetime
            self._kx_waiting = False
            self._held_records: List[tuple] = []
            self.renegotiations = 0
            self._client_states = None
            self._server_states = None
            self.resumed = False
            self._ticket_keys = ticket_keys
            self._client_wants_ticket = False
            self._ticket_state: Optional[TicketState] = None
            self._minted_ticket = False
            self.resumed_via_ticket = False
            self.tickets_minted = 0
            self.tickets_accepted = 0
            self.tickets_rejected = 0
            self.tickets_renewed = 0
            _charge_split(_SSL_NEW, "SSL_new")
            self._init_handshake_hashes()

    # -- record routing ---------------------------------------------------
    def _region_for_record(self, content_type: int) -> str:
        if content_type == ContentType.CHANGE_CIPHER_SPEC:
            return "get_finished"
        if content_type == ContentType.HANDSHAKE:
            return {
                ServerHandshakeState.WAIT_CLIENT_HELLO: "get_client_hello",
                ServerHandshakeState.WAIT_CLIENT_KX: "get_client_kx",
                ServerHandshakeState.WAIT_FINISHED: "get_finished",
                ServerHandshakeState.WAIT_FINISHED_RESUMED: "get_finished",
                ServerHandshakeState.CONNECTED: "renegotiation",
            }.get(self._state, "post_handshake")
        if content_type == ContentType.APPLICATION_DATA:
            return "bulk_transfer"
        if content_type == ContentType.V2_CLIENT_HELLO:
            return "get_client_hello"
        return "alert"

    def receive(self, data: bytes) -> None:
        super().receive(data)
        while self._pending:
            action = self._pending.pop(0)
            action()

    # -- handshake dispatch ---------------------------------------------------
    def _handle_handshake(self, msg_type: int, body: bytes,
                          raw: bytes) -> None:
        _charge_split(_HS_PROC, "ssl3_get_message")
        if msg_type == HandshakeType.CLIENT_HELLO:
            if self._state is ServerHandshakeState.CONNECTED:
                # Client-initiated renegotiation: a fresh handshake runs
                # over the still-encrypted connection.
                if not self._allow_renegotiation:
                    # Decline politely with the warning-level alert and
                    # keep the connection up (RFC 2246 erratum practice).
                    from .errors import AlertDescription, AlertLevel
                    self._send_alert(AlertLevel.WARNING,
                                     AlertDescription.NO_RENEGOTIATION)
                    return
                self._begin_renegotiation()
            elif self._state is not ServerHandshakeState.WAIT_CLIENT_HELLO:
                raise UnexpectedMessage("client_hello out of order")
            self._update_handshake_hashes(raw)
            self._process_client_hello(ClientHello.parse(body))
        elif msg_type == HandshakeType.CLIENT_KEY_EXCHANGE:
            if self._state is not ServerHandshakeState.WAIT_CLIENT_KX:
                raise UnexpectedMessage("client_key_exchange out of order")
            self._update_handshake_hashes(raw)
            self._process_client_kx(body)
        elif msg_type == HandshakeType.FINISHED:
            if self._state not in (
                    ServerHandshakeState.WAIT_FINISHED,
                    ServerHandshakeState.WAIT_FINISHED_RESUMED):
                raise UnexpectedMessage("finished out of order")
            self._process_client_finished(Finished.parse(body), raw)
        else:
            raise UnexpectedMessage(
                f"server cannot handle {HandshakeType.name(msg_type)}")

    def _handle_v2_hello(self, payload: bytes) -> None:
        """Accept an SSLv2-compatibility CLIENT-HELLO (first message only).

        The v2 message bytes (not the record header) enter the handshake
        hashes, per the SSLv3 specification's compatibility appendix.
        """
        from .handshake import parse_v2_client_hello
        if self._state is not ServerHandshakeState.WAIT_CLIENT_HELLO or \
                self.renegotiations:
            raise UnexpectedMessage("v2 hello only as the first message")
        _charge_split(_HS_PROC, "ssl23_get_client_hello")
        hello = parse_v2_client_hello(payload)
        self._update_handshake_hashes(payload)
        self._process_client_hello(hello)

    # -- step 1: client hello ------------------------------------------------------
    def _process_client_hello(self, hello: ClientHello) -> None:
        if hello.version < 0x0300:
            raise HandshakeFailure("client does not support SSLv3")
        if 0 not in hello.compression_methods:
            raise HandshakeFailure("no common compression method")
        self._client_version = hello.version
        self._set_version(min(hello.version, self._max_version))
        _charge_split(_CLIENT_HELLO_PROC, "ssl3_get_client_hello")
        suite = self._choose_suite(hello.cipher_suites)
        self.cipher_suite = suite
        self.client_random = hello.client_random

        offered_ticket = hello.extension(SESSION_TICKET_EXT)
        self._client_wants_ticket = (self._ticket_keys is not None
                                     and offered_ticket is not None)

        ticket_state = None
        renew = False
        if (self._ticket_keys is not None and offered_ticket
                and hello.session_id):
            # A non-empty SessionTicket extension carries the sealed
            # resumption state; the (random) session id alongside it is
            # the RFC 5077 acceptance handle -- echoing it back signals
            # the ticket was taken.  Any open failure silently falls back
            # to a full handshake; tickets are never fatal.
            now = self._clock() if self._clock is not None else 0.0
            with perf.region("session_ticket"):
                ticket_state, renew = self._ticket_keys.open(
                    offered_ticket, now)
            if ticket_state is not None and \
                    ticket_state.cipher_suite_id not in hello.cipher_suites:
                ticket_state = None
            if ticket_state is None:
                self.tickets_rejected += 1

        session = None
        if self._cache is not None and hello.session_id \
                and not offered_ticket:
            # The virtual clock (when modelled) rides into the lookup so
            # expired sessions miss instead of resuming forever.  A hello
            # that offered a ticket skips the cache entirely: its session
            # id is the client's random acceptance handle, not a cached
            # id, and probing the cache with it would pollute the miss
            # counters.
            now = self._clock() if self._clock is not None else None
            session = self._cache.get(hello.session_id, now)
            if session is not None and session.cipher_suite_id not in \
                    hello.cipher_suites:
                session = None

        if ticket_state is not None:
            # Stateless abbreviated handshake: everything the server
            # needs came out of the ticket -- no lookup, no cache entry.
            self.resumed = True
            self.resumed_via_ticket = True
            self.tickets_accepted += 1
            self._session_id = hello.session_id
            self.cipher_suite = BY_ID[ticket_state.cipher_suite_id]
            self.master_secret = ticket_state.master_secret
            self._ticket_state = ticket_state
            self._pending.append(self._send_server_hello)
            if renew:
                # Opened under a previous (still-accepted) epoch's key:
                # re-mint under the current key, RFC 5077 rollover style.
                self._pending.append(self._send_new_session_ticket)
            self._pending.append(self._send_ccs_and_finished_resumed)
            self._state = ServerHandshakeState.WAIT_FINISHED_RESUMED
        elif session is not None:
            # Abbreviated handshake: reuse master secret, skip the RSA op.
            self.resumed = True
            self._session_id = session.session_id
            self.cipher_suite = BY_ID[session.cipher_suite_id]
            self.master_secret = session.master_secret
            self._pending.append(self._send_server_hello)
            self._pending.append(self._send_ccs_and_finished_resumed)
            self._state = ServerHandshakeState.WAIT_FINISHED_RESUMED
        else:
            with perf.region("rand_pseudo_bytes"):
                self._session_id = self._rng.bytes(32)
                # Never echo an id we just declined to resume (expired or
                # unknown): the client reads an echoed offer as acceptance
                # and would wait for Finished instead of a Certificate.
                while self._session_id == hello.session_id:
                    self._session_id = self._rng.bytes(32)
            self._pending.append(self._send_server_hello)
            self._pending.append(self._send_server_cert)
            if self.cipher_suite.key_exchange == "DHE_RSA":
                self._pending.append(self._send_server_kx)
            self._pending.append(self._send_server_done)
            self._state = ServerHandshakeState.WAIT_CLIENT_KX

    def _choose_suite(self, offered: Sequence[int]) -> CipherSuite:
        for suite in self._suites:
            if suite.suite_id in offered:
                return suite
        raise HandshakeFailure("no common cipher suite")

    # -- step 2: server hello ----------------------------------------------------
    def _send_server_hello(self) -> None:
        with perf.region("send_server_hello"):
            with perf.region("rand_pseudo_bytes"):
                self.server_random = self._rng.bytes(32)
            self._send_handshake(ServerHello(
                server_random=self.server_random,
                session_id=self._session_id,
                cipher_suite=self.cipher_suite.suite_id,
                version=self.version))

    # -- step 3: certificate ----------------------------------------------------
    def _send_server_cert(self) -> None:
        with perf.region("send_server_cert"):
            ders = [self._cert.to_bytes()]
            ders.extend(c.to_bytes() for c in self._chain)
            self._send_handshake(CertificateMsg(certificates=ders))

    # -- step 3.5: server key exchange (DHE suites only) ---------------------------
    def _send_server_kx(self) -> None:
        """Send signed ephemeral DH parameters.

        This is the handshake step the paper's Table 2 marks "skip
        server_kx" for RSA key exchange; with a DHE suite the server pays
        an extra modular exponentiation (the ephemeral public value) plus
        an RSA *signature* here -- the ablation benchmark prices it.
        """
        with perf.region("send_server_kx"):
            params = DhParams.oakley_group2()
            self._dh_keypair = DhKeyPair(params, rng=self._rng)
            msg = ServerKeyExchange(
                dh_p=params.p.to_bytes(),
                dh_g=params.g.to_bytes(),
                dh_ys=self._dh_keypair.public.to_bytes())
            digest = (MD5(self.client_random + self.server_random
                          + msg.params_bytes()).digest()
                      + SHA1(self.client_random + self.server_random
                             + msg.params_bytes()).digest())
            msg.signature = self._key.sign("sha1", digest,
                                           raw_payload=True)
            self._send_handshake(msg)

    # -- step 4: server hello done -------------------------------------------------
    def _send_server_done(self) -> None:
        with perf.region("send_server_done"):
            self._send_handshake(ServerHelloDone())
        with perf.region("server_flush"):
            self._flush()

    # -- step 5: client key exchange ---------------------------------------------
    def _process_client_kx(self, raw_body: bytes) -> None:
        _charge_split(_CLIENT_KX_PROC, "ssl3_get_client_key_exchange")
        if self.cipher_suite.key_exchange == "DHE_RSA":
            pre_master = self._process_client_kx_dhe(raw_body)
        elif self._batcher is not None:
            # Defer the RSA decrypt into the shared batch queue.  The
            # handshake suspends here: records already in flight (the
            # client's CCS + Finished travel in the same flight) are held
            # raw until the batch flushes and _resume_client_kx runs.
            kx = ClientKeyExchange.parse_versioned(raw_body, self.is_tls)
            self._kx_waiting = True
            self._batcher.submit(self._key, kx.encrypted_pre_master,
                                 self._resume_client_kx)
            return
        else:
            pre_master = self._process_client_kx_rsa(raw_body)
        self._finish_client_kx(pre_master)

    def _finish_client_kx(self, pre_master: bytes) -> None:
        with perf.region("gen_master_secret"):
            self.master_secret = self._derive_master_secret(pre_master)
        # OpenSSL digests the cached handshake records here in case a
        # CertificateVerify arrives (Table 2's cert_verify_mac, present
        # even though no client certificate was requested).
        self._run_cert_verify_mac()
        self._state = ServerHandshakeState.WAIT_FINISHED

    def _process_client_kx_rsa(self, raw_body: bytes) -> bytes:
        # SSLv3 sends the RSA ciphertext raw; TLS added a length prefix.
        kx = ClientKeyExchange.parse_versioned(raw_body, self.is_tls)
        try:
            if self._offload_pool is not None:
                pre_master = self._offload_pool.rsa_decrypt(
                    self._key, kx.encrypted_pre_master)
            else:
                pre_master = self._key.decrypt(kx.encrypted_pre_master)
        except (RsaError, ValueError):
            pre_master = None
        return self._vet_pre_master(pre_master)

    def _vet_pre_master(self, pre_master: Optional[bytes]) -> bytes:
        """Bleichenbacher countermeasure (RFC 2246 section 7.4.7.1 style).

        Any failure -- undecryptable ciphertext, bad PKCS #1 padding, wrong
        pre-master length, or a client-version rollback mismatch -- is
        absorbed by substituting a random 48-byte pre-master.  The
        handshake then proceeds and fails uniformly at the Finished
        exchange, so an attacker probing with chosen ciphertexts sees one
        indistinguishable outcome instead of a million-message oracle.
        """
        # The substitute is drawn unconditionally, before any check, so
        # success and failure execute identical code (RFC 5246 7.4.7.1:
        # generate the random pre-master first, then select).
        with perf.region("rand_pseudo_bytes"):
            substitute = self._rng.bytes(PRE_MASTER_LENGTH)
        ok = (pre_master is not None
              and len(pre_master) == PRE_MASTER_LENGTH
              # The pre-master's first two bytes carry the client's
              # *offered* version (a rollback-attack defence).
              and pre_master[:2] == self._client_version.to_bytes(2, "big"))
        return pre_master if ok else substitute

    # -- batched-kx suspension/resumption -----------------------------------
    def _defer_record(self, content_type: int, body: bytes) -> bool:
        if self._kx_waiting:
            self._held_records.append((content_type, body))
            return True
        return False

    def _after_receive(self) -> None:
        # Flush a full batch outside any record-dispatch region: the flush
        # resumes every suspended handshake in the batch (including other
        # servers'), and that work belongs to their own step regions.
        if self._batcher is not None and self._batcher.ready:
            self._batcher.flush()

    def _resume_client_kx(self, pre_master: Optional[bytes]) -> None:
        """Continuation invoked by the batcher with the decrypted block."""
        if self.closed or not self._kx_waiting:
            # Stale continuation: the connection was closed or its
            # handshake reset (renegotiation) while parked in the batch
            # queue; the queued entry still fires at the next flush but
            # must not touch the new state.
            return
        self._kx_waiting = False
        with perf.region("get_client_kx"):
            self._finish_client_kx(self._vet_pre_master(pre_master))
        held, self._held_records = self._held_records, []
        with self._alert_guard():
            for content_type, body in held:
                self._process_record(content_type, body)
        while self._pending:
            self._pending.pop(0)()

    def _process_client_kx_dhe(self, raw_body: bytes) -> bytes:
        from ..crypto.dh import DhError
        from .errors import DecodeError
        if self._dh_keypair is None:
            raise UnexpectedMessage("DHE key exchange without server_kx")
        try:
            # ClientDiffieHellmanPublic (explicit): opaque DH_Yc<1..2^16-1>
            # in both SSLv3 and TLS 1.0.
            r = ByteReader(raw_body)
            yc = r.vec16()
            r.expect_end()
        except DecodeError as exc:
            raise HandshakeFailure(f"malformed DH client public: {exc}")
        try:
            return self._dh_keypair.compute_shared(BigNum.from_bytes(yc))
        except DhError as exc:
            raise HandshakeFailure(f"DH key exchange failed: {exc}")

    def _run_cert_verify_mac(self) -> None:
        with perf.region("cert_verify_mac"):
            kdf.cert_verify_hashes(self._hs_md5.copy(),
                                   self._hs_sha1.copy(), self.master_secret)

    # -- step 6: change cipher spec + client finished -----------------------------
    def _handle_ccs(self) -> None:
        if self._state not in (ServerHandshakeState.WAIT_FINISHED,
                               ServerHandshakeState.WAIT_FINISHED_RESUMED):
            raise UnexpectedMessage("change_cipher_spec out of order")
        _charge_split(_CCS_PROC, "ssl3_setup_key_block")
        if self._client_states is None:
            # Full handshake: the client's CCS triggers key-block generation
            # and the expected-finished computation (step 6a).
            with perf.region("gen_key_block"):
                client_state, server_state = self._build_states()
                self._client_states = client_state
                self._server_states = server_state
            with perf.region("final_finish_mac"):
                self._expected_client_finished = \
                    self._compute_verify_data(for_client=True)
        # Abbreviated handshake: states and expected hashes were prepared
        # when the server sent its own CCS+Finished.
        self._records.set_read_state(self._client_states)

    def _process_client_finished(self, finished: Finished,
                                 raw: bytes) -> None:
        if self._client_states is None:
            raise UnexpectedMessage("finished before change_cipher_spec")
        from ..crypto.util import ct_equal
        if not ct_equal(finished.verify_data,
                        self._expected_client_finished):
            raise HandshakeFailure("client finished hash mismatch")
        self._update_handshake_hashes(raw)
        if self._state is ServerHandshakeState.WAIT_FINISHED:
            # Full handshake: now send our CCS + finished.  A fresh
            # NewSessionTicket precedes the CCS (RFC 5077 section 3.3)
            # when the client advertised ticket support.
            if self._ticket_keys is not None and self._client_wants_ticket:
                self._pending.append(self._send_new_session_ticket)
            self._pending.append(self._send_cipher_spec)
            self._pending.append(self._send_finished)
        self._pending.append(self._complete)

    # -- steps 7-8: server change cipher spec + finished -----------------------------
    def _send_cipher_spec(self) -> None:
        with perf.region("send_cipher_spec"):
            self._send_ccs()
            self._records.set_write_state(self._server_states)

    def _send_finished(self) -> None:
        with perf.region("send_finished"):
            with perf.region("final_finish_mac"):
                verify = self._compute_verify_data(for_client=False)
            self._send_handshake(Finished(verify_data=verify))

    def _send_new_session_ticket(self) -> None:
        """Seal the handshake's resumption state into a fresh ticket.

        On a full handshake this mints a brand-new ticket for the session
        just negotiated; on a stale-epoch ticket resumption it *renews*
        the accepted ticket -- same created_at/lifetime, re-sealed under
        the current epoch's key -- so the client's clock on the session
        does not reset at each rollover.
        """
        with perf.region("send_session_ticket"):
            now = self._clock() if self._clock is not None else 0.0
            if self._ticket_state is not None:
                created_at = self._ticket_state.created_at
                lifetime = self._ticket_state.lifetime
                self.tickets_renewed += 1
            else:
                created_at = now
                lifetime = (self._session_lifetime
                            if self._session_lifetime is not None else 300.0)
            with perf.region("session_ticket"):
                ticket = self._ticket_keys.mint(
                    cipher_suite_id=self.cipher_suite.suite_id,
                    master_secret=self.master_secret,
                    created_at=created_at, lifetime=lifetime,
                    rng=self._rng, now=now)
            self.tickets_minted += 1
            self._minted_ticket = True
            self._send_handshake(NewSessionTicket(
                lifetime_hint=int(lifetime), ticket=ticket))

    def _send_ccs_and_finished_resumed(self) -> None:
        """Abbreviated handshake: server's CCS+Finished go first."""
        with perf.region("gen_key_block"):
            client_state, server_state = self._build_states()
            self._client_states = client_state
            self._server_states = server_state
        self._send_cipher_spec()
        self._send_finished()
        # The read side switches only when the *client's* CCS arrives.
        with perf.region("final_finish_mac"):
            self._expected_client_finished = \
                self._compute_verify_data(for_client=True)

    # -- step 9: wrap-up --------------------------------------------------------------
    def _complete(self) -> None:
        with perf.region("server_flush"):
            self._flush()
            _charge_split(_SSL_CLEANUP, "ssl3_cleanup_key_block")
            self._pre_master = None
        # A handshake that minted a ticket stays stateless: the client
        # carries the session, so nothing enters the id cache.
        if self._cache is not None and self._session_id \
                and not self.resumed and not self._minted_ticket:
            extra = {}
            if self._clock is not None:
                extra["created_at"] = self._clock()
            if self._session_lifetime is not None:
                extra["lifetime"] = self._session_lifetime
            self._cache.put(SslSession(
                session_id=self._session_id,
                cipher_suite_id=self.cipher_suite.suite_id,
                master_secret=self.master_secret, **extra))
        self._state = ServerHandshakeState.CONNECTED
        self.handshake_complete = True

    # -- renegotiation --------------------------------------------------------------
    def request_renegotiation(self) -> None:
        """Send a HelloRequest asking the client to start a new handshake.

        The paper's Section 4.1 point: renegotiation with a cached session
        id repeats the handshake *without* the RSA operation.  Application
        data continues under the old keys until the new ChangeCipherSpec.
        """
        if self._state is not ServerHandshakeState.CONNECTED:
            raise UnexpectedMessage("cannot renegotiate before the first "
                                    "handshake completes")
        if not self._allow_renegotiation:
            raise UnexpectedMessage("renegotiation disabled")
        # HelloRequest is excluded from the handshake hashes by spec; send
        # it directly rather than through _send_handshake.
        self._out += self._emit(ContentType.HANDSHAKE,
                                HelloRequest().to_bytes())

    def _begin_renegotiation(self) -> None:
        """Reset per-handshake state for a new handshake on this
        connection (keys in use stay active until the next CCS)."""
        self.renegotiations += 1
        self.handshake_complete = False
        self.resumed = False
        self._kx_waiting = False
        self._held_records = []
        self._dh_keypair = None
        self._client_states = None
        self._server_states = None
        self._session_id = b""
        self._client_wants_ticket = False
        self._ticket_state = None
        self._minted_ticket = False
        self.resumed_via_ticket = False
        self._init_handshake_hashes()
        self._state = ServerHandshakeState.WAIT_CLIENT_HELLO
