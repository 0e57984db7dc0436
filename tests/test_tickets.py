"""Stateless session tickets: ring, handshake integration, simulator.

RFC-5077-shape tickets (repro.ssl.ticket) move resumption state to the
client: the server seals (suite, master secret, timestamps) into an
opaque blob and retains *nothing*.  These tests pin the seal/open
round-trip and every rejection path at the ring level, the mint /
accept / renew / fallback flows through real loopback handshakes, the
memory-boundedness contract at the simulator level (a million-client
population with O(capacity) retained state), and bit-identity of the
process-parallel farm backend with tickets enabled.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.crypto import rsa
from repro.crypto.rand import PseudoRandom
from repro.ssl.client import SslClient
from repro.ssl.loopback import pump
from repro.ssl.server import SslServer
from repro.ssl.session import SessionCache
from repro.ssl.ticket import (
    KEY_NAME_LENGTH, SESSION_TICKET_EXT, TicketKeyRing, TicketState,
)
from repro.webserver import RequestWorkload
from repro.webserver.simulator import WebServerSimulator


def make_ring(**kwargs):
    kwargs.setdefault("seed", b"test-ring")
    return TicketKeyRing(**kwargs)


def mint(ring, *, now=0.0, created_at=None, lifetime=300.0,
         suite_id=0x000A, secret=b"\x5a" * 48, seed=b"mint-rng"):
    return ring.mint(cipher_suite_id=suite_id, master_secret=secret,
                     created_at=now if created_at is None else created_at,
                     lifetime=lifetime, rng=PseudoRandom(seed), now=now)


class TestTicketKeyRing:
    def test_validation(self):
        with pytest.raises(ValueError):
            TicketKeyRing(rotation_interval=0.0)
        with pytest.raises(ValueError):
            TicketKeyRing(rotation_interval=-1.0)
        with pytest.raises(ValueError):
            TicketKeyRing(accept_window=-1)

    def test_epoch_of(self):
        ring = make_ring(rotation_interval=10.0)
        assert ring.epoch_of(0.0) == 0
        assert ring.epoch_of(9.999) == 0
        assert ring.epoch_of(10.0) == 1
        assert ring.epoch_of(35.0) == 3
        assert ring.epoch_of(-5.0) == 0  # clamped, never negative

    def test_key_name_shape(self):
        ring = make_ring()
        name = ring.key_name(7)
        assert len(name) == KEY_NAME_LENGTH
        assert name[8:] == (7).to_bytes(8, "big")
        # Different epochs share the ring label but not the counter.
        assert ring.key_name(8)[:8] == name[:8]
        assert ring.key_name(8) != name

    def test_rings_with_different_seeds_do_not_interoperate(self):
        a, b = make_ring(seed=b"ring-a"), make_ring(seed=b"ring-b")
        ticket = mint(a)
        assert b.open(ticket, 0.0) == (None, False)

    def test_mint_rejects_bad_master_secret(self):
        with pytest.raises(ValueError):
            mint(make_ring(), secret=b"short")

    def test_mint_is_deterministic(self):
        assert mint(make_ring()) == mint(make_ring())


class TestMintOpen:
    def test_roundtrip_recovers_state(self):
        ring = make_ring()
        ticket = mint(ring, now=12.5, lifetime=250.0)
        state, renew = ring.open(ticket, 13.0)
        assert isinstance(state, TicketState)
        assert not renew
        assert state.cipher_suite_id == 0x000A
        assert state.master_secret == b"\x5a" * 48
        assert state.created_at == 12.5
        assert state.lifetime == 250.0

    def test_stale_epoch_in_window_renews(self):
        ring = make_ring(rotation_interval=10.0, accept_window=1)
        ticket = mint(ring, now=5.0)
        state, renew = ring.open(ticket, 15.0)  # epoch 1, minted at 0
        assert state is not None and renew

    def test_rotation_boundary_is_exact(self):
        ring = make_ring(rotation_interval=10.0, accept_window=1)
        ticket = mint(ring, now=9.999)          # last instant of epoch 0
        state, renew = ring.open(ticket, 9.999)
        assert state is not None and not renew
        state, renew = ring.open(ticket, 10.0)  # first instant of epoch 1
        assert state is not None and renew

    def test_out_of_accept_window_rejected(self):
        ring = make_ring(rotation_interval=10.0, accept_window=1)
        ticket = mint(ring, now=0.0, lifetime=1e6)
        assert ring.open(ticket, 20.0) == (None, False)   # epoch 2

    def test_zero_accept_window_only_current_epoch(self):
        ring = make_ring(rotation_interval=10.0, accept_window=0)
        ticket = mint(ring, now=0.0, lifetime=1e6)
        assert ring.open(ticket, 9.0)[0] is not None
        assert ring.open(ticket, 10.0) == (None, False)

    def test_future_dated_ticket_rejected(self):
        ring = make_ring(rotation_interval=10.0)
        ticket = mint(ring, now=25.0)           # epoch 2
        assert ring.open(ticket, 5.0) == (None, False)

    def test_expired_session_rejected(self):
        ring = make_ring()
        ticket = mint(ring, now=0.0, lifetime=100.0)
        assert ring.open(ticket, 50.0)[0] is not None
        assert ring.open(ticket, 101.0) == (None, False)

    @pytest.mark.parametrize("position", [0, KEY_NAME_LENGTH,  # name, iv
                                          KEY_NAME_LENGTH + 16,  # ciphertext
                                          -1])                    # mac
    def test_any_flipped_byte_rejects(self, position):
        ring = make_ring()
        ticket = bytearray(mint(ring))
        ticket[position] ^= 0x01
        assert ring.open(bytes(ticket), 0.0) == (None, False)

    def test_truncated_ticket_rejected(self):
        ring = make_ring()
        ticket = mint(ring)
        for cut in (0, 1, 20, len(ticket) - 21, len(ticket) - 1):
            assert ring.open(ticket[:cut], 0.0) == (None, False)

    def test_unaligned_ciphertext_rejected(self):
        ring = make_ring()
        ticket = mint(ring)
        # Splice one byte out of the ciphertext body (lengths stay above
        # the minimum, alignment breaks).
        mangled = ticket[:40] + ticket[41:]
        assert ring.open(mangled, 0.0) == (None, False)


# ---------------------------------------------------------------------------
# Loopback handshakes
# ---------------------------------------------------------------------------

def handshake(identity, *, ring=None, session=None, session_tickets=True,
              cache=None, now=0.0, seed=b"tkt"):
    """One pumped loopback handshake; returns (client, server)."""
    key, cert = identity
    key.use_crt = True
    server_prof, client_prof = perf.Profiler(), perf.Profiler()
    with perf.activate(server_prof):
        server = SslServer(key, cert, session_cache=cache,
                           ticket_keys=ring, clock=lambda: now,
                           rng=PseudoRandom(seed + b"-s"))
    with perf.activate(client_prof):
        client = SslClient(session=session,
                           session_tickets=session_tickets,
                           rng=PseudoRandom(seed + b"-c"))
        client.start_handshake()
    pump(client, server, client_prof, server_prof)
    assert client.handshake_complete and server.handshake_complete
    return client, server


class TestLoopbackTickets:
    def test_full_handshake_mints_ticket(self, identity512):
        ring = make_ring()
        cache = SessionCache()
        client, server = handshake(identity512, ring=ring, cache=cache)
        assert server.tickets_minted == 1
        assert client.session is not None
        assert client.session.ticket
        # The whole point: nothing retained server-side.
        assert len(cache) == 0

    def test_ticket_resumption_skips_cache(self, identity512):
        ring = make_ring()
        cache = SessionCache()
        c1, _ = handshake(identity512, ring=ring, cache=cache, seed=b"t1")
        c2, s2 = handshake(identity512, ring=ring, cache=cache,
                           session=c1.session, seed=b"t2")
        assert s2.resumed and s2.resumed_via_ticket
        assert s2.tickets_accepted == 1
        assert s2.tickets_minted == 0      # same epoch: no renewal
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0  # never even probed

    def test_stale_epoch_accepts_and_renews(self, identity512):
        ring = make_ring(rotation_interval=100.0, accept_window=1)
        c1, _ = handshake(identity512, ring=ring, now=10.0, seed=b"r1")
        original = bytes(c1.session.ticket)
        c2, s2 = handshake(identity512, ring=ring, session=c1.session,
                           now=150.0, seed=b"r2")
        assert s2.resumed_via_ticket
        assert s2.tickets_renewed == 1 and s2.tickets_minted == 1
        # The client replaced its stored ticket with the re-minted one
        # (SslSession is shared/mutated in place, hence the snapshot).
        assert c2.session is c1.session
        assert bytes(c2.session.ticket) != original
        # The renewed ticket opens under the current key and keeps the
        # original creation time (RFC 5077 rollover, not a fresh life).
        state, renew = ring.open(c2.session.ticket, 150.0)
        assert state is not None and not renew
        assert state.created_at == 10.0

    def test_out_of_window_falls_back_to_full(self, identity512):
        ring = make_ring(rotation_interval=100.0, accept_window=1)
        c1, _ = handshake(identity512, ring=ring, now=0.0, seed=b"w1",
                          session=None)
        c2, s2 = handshake(identity512, ring=ring, session=c1.session,
                           now=250.0, seed=b"w2")     # epoch 2: gone
        assert not s2.resumed
        assert s2.tickets_rejected == 1
        assert s2.tickets_minted == 1      # the full handshake re-mints

    @pytest.mark.parametrize("mangle", [
        lambda t: t[:-1] + bytes([t[-1] ^ 1]),   # MAC flip
        lambda t: t[:24],                        # truncation
        lambda t: b"\x00" * len(t),              # zeroed blob
    ])
    def test_bad_ticket_is_never_fatal(self, identity512, mangle):
        ring = make_ring()
        c1, _ = handshake(identity512, ring=ring, seed=b"b1")
        c1.session.ticket = mangle(bytes(c1.session.ticket))
        c2, s2 = handshake(identity512, ring=ring, session=c1.session,
                           seed=b"b2")
        assert not s2.resumed                    # fell back, completed
        assert s2.tickets_rejected == 1

    def test_id_cache_still_works_beside_tickets(self, identity512):
        # A client that does not do tickets resumes through the id cache
        # even when the server has a ring configured.
        ring = make_ring()
        cache = SessionCache()
        c1, s1 = handshake(identity512, ring=ring, cache=cache,
                           session_tickets=False, seed=b"i1")
        assert s1.tickets_minted == 0 and len(cache) == 1
        c2, s2 = handshake(identity512, ring=ring, cache=cache,
                           session=c1.session, session_tickets=False,
                           seed=b"i2")
        assert s2.resumed and not s2.resumed_via_ticket
        assert cache.hits == 1

    def test_hello_extension_roundtrip(self, identity512):
        ring = make_ring()
        c1, _ = handshake(identity512, ring=ring, seed=b"x1")
        client = SslClient(session=c1.session,
                           rng=PseudoRandom(b"x2-c"))
        client.start_handshake()
        from repro.ssl.handshake import ClientHello, iter_messages
        wire = client.pending_output()
        assert wire[0] == 22                 # plaintext handshake record
        body = wire[5:5 + int.from_bytes(wire[3:5], "big")]
        msg_type, msg_body, _ = iter_messages(bytearray(body))[0]
        hello = ClientHello.parse(msg_body)
        assert hello.extension(SESSION_TICKET_EXT) == c1.session.ticket
        assert len(hello.session_id) == 32  # random acceptance handle


# ---------------------------------------------------------------------------
# Simulator and farm integration
# ---------------------------------------------------------------------------

def run_sim(identity, *, tickets=None, clients=None, capacity=8,
            nrequests=10, resumption_rate=0.7, concurrency=1,
            seed=b"sim-tickets"):
    key, cert = identity
    rsa.reset_error_tables()
    sim = WebServerSimulator(key=key, cert=cert, use_crt=True, seed=seed,
                             tickets=tickets,
                             client_pool_capacity=capacity)
    workload = RequestWorkload.fixed(2048, resumption_rate=resumption_rate,
                                    seed=seed, clients=clients)
    return sim, sim.run(workload, nrequests, concurrency=concurrency)


class TestSimulatorTickets:
    def test_ticket_mode_keeps_server_cache_empty(self, identity512):
        sim, result = run_sim(identity512, tickets=make_ring(), clients=4)
        assert result.failures == 0
        assert result.tickets_minted > 0
        assert result.tickets_accepted > 0
        assert result.resumed_handshakes == result.tickets_accepted
        assert len(sim._session_cache) == 0

    def test_without_ring_counters_stay_zero(self, identity512):
        sim, result = run_sim(identity512, clients=4)
        assert result.tickets_minted == result.tickets_accepted == 0
        assert result.tickets_rejected == result.tickets_renewed == 0
        assert len(sim._session_cache) > 0   # classic id cache engaged

    def test_concurrent_path_folds_ticket_counters(self, identity512):
        _, serial = run_sim(identity512, tickets=make_ring(), clients=4)
        _, conc = run_sim(identity512, tickets=make_ring(), clients=4,
                          concurrency=3)
        assert conc.failures == 0
        assert conc.tickets_minted == serial.tickets_minted
        assert conc.tickets_accepted == serial.tickets_accepted

    def test_million_clients_bounded_state(self, identity512):
        # The memory contract of the ISSUE: a 10^6-distinct-client
        # population must complete with O(pool capacity) retained state
        # on both sides -- no per-client server cache entries, no
        # unbounded client-session list.
        sim, result = run_sim(identity512, tickets=make_ring(),
                              clients=10**6, capacity=8, nrequests=24)
        assert result.requests_completed == 24
        pool = sim._client_sessions
        assert len(pool) <= 8
        assert pool.peak_size <= 8
        assert len(sim._session_cache) == 0
