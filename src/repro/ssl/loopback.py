"""In-memory client<->server harness (the paper's modified ``ssltest``).

Section 3.2: "we use a standalone program ... [that] creates a server
context as well as a client context, and relays messages between these two
through some memory buffers.  Our measurements are taken on the server
side."  This module is that program: it shuttles pending output between an
:class:`~repro.ssl.client.SslClient` and an
:class:`~repro.ssl.server.SslServer` until the handshake completes, then
optionally transfers bulk data, and exposes the per-side profilers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import perf
from ..crypto.rand import PseudoRandom
from ..crypto.rsa import RsaPrivateKey, generate_key
from .ciphersuites import CipherSuite, DEFAULT_SUITE
from .client import SslClient
from .errors import SslError
from .server import SslServer
from .session import SessionCache, SslSession
from .x509 import Certificate, make_self_signed


@dataclass
class LoopbackResult:
    """What a loopback run produced and measured."""

    server_profiler: perf.Profiler
    client_profiler: perf.Profiler
    client: SslClient
    server: SslServer
    echoed: bytes = b""
    handshake_flights: int = 0

    @property
    def session(self) -> Optional[SslSession]:
        return self.client.session


def make_server_identity(bits: int = 1024,
                         seed: bytes = b"loopback-identity",
                         ) -> tuple:
    """A deterministic (key, certificate) pair for experiments."""
    key = generate_key(bits, rng=PseudoRandom(seed))
    cert = make_self_signed("CN=repro-ssl-server", key)
    return key, cert


def pump(client: SslClient, server: SslServer,
         client_profiler: perf.Profiler, server_profiler: perf.Profiler,
         max_rounds: int = 32) -> int:
    """Relay pending bytes both ways until both sides go quiet.

    Returns the number of relay rounds (flights).  Each side's processing
    is charged to its own profiler, like the paper's per-machine setup.
    """
    rounds = 0
    for _ in range(max_rounds):
        with perf.activate(client_profiler):
            c_out = client.pending_output()
        with perf.activate(server_profiler):
            s_out = server.pending_output()
        if not c_out and not s_out:
            return rounds
        rounds += 1
        if c_out:
            with perf.activate(server_profiler):
                server.receive(c_out)
        if s_out:
            with perf.activate(client_profiler):
                client.receive(s_out)
    raise SslError("loopback did not converge (protocol stuck?)")


def _handshake(key: RsaPrivateKey, cert: Certificate, suite: CipherSuite,
               version: int, use_crt: Optional[bool],
               session_cache: Optional[SessionCache],
               resume: Optional[SslSession], seed: bytes) -> tuple:
    """Build both endpoints, each under its own profiler, and pump one
    handshake to completion.  Returns (server_profiler, client_profiler,
    client, server, flights)."""
    if use_crt is not None:
        key.use_crt = use_crt
    server_profiler = perf.Profiler()
    client_profiler = perf.Profiler()
    with perf.activate(server_profiler):
        server = SslServer(key, cert, suites=(suite,),
                           session_cache=session_cache,
                           rng=PseudoRandom(seed + b"-server"))
    with perf.activate(client_profiler):
        client = SslClient(suites=(suite,), session=resume,
                           version=version,
                           rng=PseudoRandom(seed + b"-client"))
        client.start_handshake()
    flights = pump(client, server, client_profiler, server_profiler)
    if not (client.handshake_complete and server.handshake_complete):
        raise SslError("handshake did not complete")
    return server_profiler, client_profiler, client, server, flights


def profiled_handshake(key: RsaPrivateKey, cert: Certificate, *,
                       suite: CipherSuite = DEFAULT_SUITE,
                       version: int = 0x0300,
                       use_crt: Optional[bool] = None,
                       session_cache: Optional[SessionCache] = None,
                       resume: Optional[SslSession] = None,
                       seed: bytes = b"profiled"):
    """Run one handshake; returns (server_profiler, client_profiler,
    client, server).

    The shared harness behind the Table 2/3 benchmarks and the CLI tools:
    each side's work lands in its own profiler, exactly like the paper's
    two-machine setup.
    """
    return _handshake(key, cert, suite, version, use_crt, session_cache,
                      resume, seed)[:4]


def run_session(data: bytes = b"", *,
                suite: CipherSuite = DEFAULT_SUITE,
                key: Optional[RsaPrivateKey] = None,
                cert: Optional[Certificate] = None,
                session_cache: Optional[SessionCache] = None,
                resume: Optional[SslSession] = None,
                use_crt: Optional[bool] = None,
                version: int = 0x0300,
                seed: bytes = b"loopback",
                ) -> LoopbackResult:
    """Handshake, echo ``data`` through the encrypted channel, close.

    The server encrypts ``data`` back to the client ("the web server tries
    to send ... data to the client", Section 6.2), so the server-side
    profiler sees one bulk encryption pass plus the handshake -- the same
    accounting perspective as the paper's Tables 2/3.
    """
    if key is None or cert is None:
        key, cert = make_server_identity()
    server_profiler, client_profiler, client, server, flights = _handshake(
        key, cert, suite, version, use_crt, session_cache, resume, seed)

    echoed = b""
    if data:
        with perf.activate(client_profiler):
            client.write(data)
            wire = client.pending_output()
        with perf.activate(server_profiler):
            server.receive(wire)
            received = server.read()
            server.write(received)  # echo back
            wire = server.pending_output()
        with perf.activate(client_profiler):
            client.receive(wire)
            echoed = client.read()

    with perf.activate(client_profiler):
        client.close()
    with perf.activate(server_profiler):
        server.receive(client.pending_output())
        server.close()

    return LoopbackResult(server_profiler=server_profiler,
                          client_profiler=client_profiler,
                          client=client, server=server, echoed=echoed,
                          handshake_flights=flights)
