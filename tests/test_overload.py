"""Overload anatomy: adversarial traffic, admission control, suite
downgrade -- and the accounting contract under abandonment.

The critical invariant (the ISSUE's satellite): a handshake-flood client
that disconnects mid-key-exchange must *charge the server's RSA decrypt
to the profile* (the attack's entire point is burning that Table 2
cost), increment ``handshakes_abandoned``, and never leak a
``ClientPool`` or ``SessionCache`` entry.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.crypto import rsa
from repro.crypto.rand import PseudoRandom
from repro.ssl import DES_CBC3_SHA, SslClient, SslServer
from repro.ssl.ciphersuites import AES128_SHA, RC4_MD5
from repro.ssl.loopback import pump
from repro.webserver import SHARED, ServerFarm
from repro.webserver.overload import (
    ABANDON_HELLO, ABANDON_MID_KX, AcceptQueue, AdmissionPolicy,
    AdversarialWorkload, DeadlineShedPolicy, DropTailPolicy, PressureSignal,
    ResumptionPreferredPolicy, SuitePolicy, suite_cost_per_kb,
)
from repro.webserver.simulator import WebServerSimulator
from repro.webserver.workload import Request, RequestWorkload


def make_sim(identity, **kwargs):
    key, cert = identity
    rsa.reset_error_tables()
    return WebServerSimulator(key=key, cert=cert, use_crt=True,
                              seed=b"overload-test", **kwargs)


# ---------------------------------------------------------------------------
# Abandonment accounting
# ---------------------------------------------------------------------------

class TestAbandonmentAccounting:
    def test_mid_kx_burns_rsa_and_counts(self, identity512):
        """A mid-key-exchange disconnect charges the server's RSA decrypt
        and lands in the abandoned counters, never the completed ones."""
        sim = make_sim(identity512)
        workload = AdversarialWorkload.fixed(
            1024, seed=b"mid-kx", flood_rate=1.0, flood_mode="mid_kx",
            mean_gap_rounds=0.0)
        result = sim.run(workload, 3)
        assert result.handshakes_abandoned == 3
        assert result.requests_abandoned == 3
        assert result.requests_completed == 0
        assert result.failures == 0
        # The server processed the ClientKeyExchange before the client
        # vanished: the RSA decrypt cycles are in the profile.
        assert result.profiler.region_cycles("get_client_kx") > 0

    def test_hello_abandon_burns_no_rsa(self, identity512):
        """A post-ClientHello disconnect never reaches the key exchange:
        abandoned handshakes counted, zero RSA decrypt charged."""
        sim = make_sim(identity512)
        workload = AdversarialWorkload.fixed(
            1024, seed=b"hello", flood_rate=1.0, flood_mode="hello",
            mean_gap_rounds=0.0)
        result = sim.run(workload, 3)
        assert result.handshakes_abandoned == 3
        assert result.requests_completed == 0
        assert result.failures == 0
        assert result.profiler.region_cycles("get_client_kx") == 0
        # The hello flight was processed (and the ServerHello flight
        # built -- the wasted work the flood aims for).
        assert result.profiler.region_cycles("get_client_hello") > 0

    @pytest.mark.parametrize("mode", [ABANDON_HELLO, ABANDON_MID_KX])
    def test_no_state_leak(self, identity512, mode):
        """An abandoned handshake leaves nothing behind: no session-cache
        entry, no client-pool entry, no completed-handshake latency."""
        sim = make_sim(identity512, client_pool_capacity=8)
        workload = AdversarialWorkload.fixed(
            1024, seed=b"leak", clients=4, flood_rate=1.0, flood_mode=mode,
            mean_gap_rounds=0.0)
        result = sim.run(workload, 4)
        assert result.handshakes_abandoned == 4
        assert len(sim._session_cache) == 0
        assert len(sim._client_sessions) == 0
        assert result.handshake_latencies == []

    def test_mixed_stream_accounting_is_disjoint(self, identity512):
        """Floods and completing connections split the stream exactly:
        completed + abandoned == offered, with latencies only for the
        completers."""
        sim = make_sim(identity512)
        workload = AdversarialWorkload.fixed(
            1024, seed=b"mixed", flood_rate=0.5, mean_gap_rounds=0.0)
        n = 8
        result = sim.run(workload, n)
        assert result.handshakes_abandoned > 0
        assert result.requests_completed > 0
        assert (result.requests_completed
                + result.requests_abandoned) == n
        assert len(result.handshake_latencies) == result.requests_completed
        assert result.failures == 0


# ---------------------------------------------------------------------------
# Accept queue + admission policies
# ---------------------------------------------------------------------------

def group(round_=0, resumable=False):
    return [Request(path="/x", size_bytes=64, resumable=resumable,
                    arrival_round=round_)]


class TestAcceptQueue:
    def test_degenerates_to_fifo(self):
        groups = [group(), group(), group()]
        queue = AcceptQueue(groups, None)
        queue.begin_round()
        assert queue.offered_connections == 3
        assert [queue.pop() for _ in range(3)] == groups
        assert not queue

    def test_arrival_rounds_pace_release(self):
        queue = AcceptQueue([group(0), group(2), group(2)], None)
        queue.begin_round()
        assert queue.depth() == 1
        queue.begin_round()
        assert queue.depth() == 1
        queue.begin_round()
        assert queue.depth() == 3
        assert queue.offered_connections == 3

    def test_wait_rounds_accumulate(self):
        queue = AcceptQueue([group(0)], None)
        queue.begin_round()
        queue.begin_round()
        queue.begin_round()
        queue.pop()
        assert queue.queue_wait_rounds_total == 2

    def test_drop_tail_sheds_at_full_queue(self):
        queue = AcceptQueue([group() for _ in range(5)], DropTailPolicy(2))
        queue.begin_round()
        assert queue.depth() == 2
        assert queue.shed_queue_full == 3
        assert queue.requests_shed == 3
        assert queue.offered_connections == 5
        assert queue.peak_queue_depth == 2

    def test_deadline_sheds_stale_entries(self):
        policy = DeadlineShedPolicy(max_queue=8, deadline_rounds=1)
        queue = AcceptQueue([group(0), group(3)], policy)
        for _ in range(4):
            queue.begin_round()
        # The round-0 arrival outwaited its deadline; the round-3 one is
        # fresh.
        assert queue.shed_deadline == 1
        assert queue.depth() == 1

    def test_resumption_preferred_evicts_full_handshake(self):
        policy = ResumptionPreferredPolicy(2)
        queue = AcceptQueue(
            [group(), group(), group(resumable=True)], policy)
        queue.begin_round()
        assert queue.depth() == 2
        assert queue.shed_queue_full == 1
        # The survivor set prefers the resuming client.
        assert any(g[0].resumable for g, _ in queue._queue)

    def test_resumption_preferred_drops_full_handshake_arrival(self):
        policy = ResumptionPreferredPolicy(1)
        queue = AcceptQueue([group(resumable=True), group()], policy)
        queue.begin_round()
        assert queue.depth() == 1
        assert queue.head()[0].resumable

    def test_base_policy_accepts_everything(self):
        queue = AcceptQueue([group() for _ in range(4)], AdmissionPolicy())
        queue.begin_round()
        assert queue.depth() == 4
        assert queue.connections_shed == 0


# ---------------------------------------------------------------------------
# Suite downgrade engine
# ---------------------------------------------------------------------------

class TestSuitePolicy:
    def test_flips_order_under_pressure(self):
        policy = SuitePolicy(primary=DES_CBC3_SHA, downgrade=RC4_MD5,
                             queue_high=4)
        calm = PressureSignal(queue_depth=1, active=2, slots=4, round=0)
        hot = PressureSignal(queue_depth=4, active=4, slots=4, round=9)
        assert policy.suites_for(calm) == (DES_CBC3_SHA, RC4_MD5)
        assert policy.suites_for(hot) == (RC4_MD5, DES_CBC3_SHA)
        assert not policy.under_pressure(calm)
        assert policy.under_pressure(hot)

    def test_payoff_priced_from_modeled_kernels(self):
        """The decision table is the repo's own Table 11/12 kernel costs:
        RC4/MD5 must come out several times cheaper than 3DES/SHA."""
        policy = SuitePolicy(primary=DES_CBC3_SHA, downgrade=RC4_MD5)
        assert policy.payoff_ratio() > 3.0
        assert suite_cost_per_kb(DES_CBC3_SHA) > suite_cost_per_kb(RC4_MD5)

    def test_rejects_degenerate_config(self):
        with pytest.raises(ValueError):
            SuitePolicy(primary=RC4_MD5, downgrade=RC4_MD5)
        with pytest.raises(ValueError):
            SuitePolicy(queue_high=0)

    @pytest.mark.parametrize("order", [(DES_CBC3_SHA, RC4_MD5),
                                       (RC4_MD5, DES_CBC3_SHA)],
                             ids=["3des-first", "rc4-first"])
    def test_server_order_picks_among_offered(self, identity512, order):
        """The farm steers a connection's suite by the ``suites`` order
        it gives that connection's server: the server picks the first
        suite of its order that the client offers, whatever the
        client's own order, and skips one the client does not offer."""
        key, cert = identity512
        sp, cp = perf.Profiler(), perf.Profiler()
        with perf.activate(sp):
            server = SslServer(key, cert, suites=(AES128_SHA,) + order,
                               rng=PseudoRandom(b"order-s"))
        with perf.activate(cp):
            client = SslClient(suites=(DES_CBC3_SHA, RC4_MD5),
                               rng=PseudoRandom(b"order-c"))
            client.start_handshake()
        pump(client, server, cp, sp)
        assert server.handshake_complete
        assert server.cipher_suite.suite_id == order[0].suite_id

    def test_farm_counts_downgrades(self, identity512):
        """Under a zero-gap burst the farm's suite policy engages and the
        downgraded connections negotiate RC4/MD5."""
        key, cert = identity512
        rsa.reset_error_tables()
        farm = ServerFarm(
            2, topology=SHARED, key=key, cert=cert, use_crt=True,
            suite_policy=SuitePolicy(primary=DES_CBC3_SHA,
                                     downgrade=RC4_MD5, queue_high=2),
            client_suites=(DES_CBC3_SHA, RC4_MD5))
        workload = AdversarialWorkload.fixed(
            2048, seed=b"downgrade", mean_gap_rounds=0.0)
        result = farm.run(workload, 8, concurrency_per_worker=2)
        assert result.connections_downgraded > 0
        assert result.failures == 0


# ---------------------------------------------------------------------------
# Renegotiation storms + latency surface
# ---------------------------------------------------------------------------

class TestRenegotiationStorm:
    def test_storm_serves_extra_handshakes(self, identity512):
        sim = make_sim(identity512)
        workload = AdversarialWorkload.fixed(
            1024, seed=b"storm", reneg_rate=1.0, reneg_storm=2,
            mean_gap_rounds=0.0)
        result = sim.run(workload, 2)
        assert result.renegotiations_served == 4
        # One initial + two renegotiation handshakes per connection, each
        # with its own modeled latency.
        assert len(result.handshake_latencies) == 6
        assert result.requests_completed == 2
        assert result.failures == 0


class TestLatencyPercentiles:
    def test_nearest_rank(self, identity512):
        key, cert = identity512
        rsa.reset_error_tables()
        farm = ServerFarm(2, topology=SHARED, key=key, cert=cert,
                          use_crt=True)
        workload = RequestWorkload.fixed(2048, resumption_rate=0.5)
        result = farm.run(workload, 6, concurrency_per_worker=2)
        lats = sorted(result.handshake_latencies)
        assert len(lats) == 6
        assert result.handshake_latency_percentile(50) == lats[2]
        assert result.handshake_latency_percentile(99) == lats[5]
        assert result.handshake_latency_percentile(100) == lats[5]

    def test_empty_is_zero(self):
        from repro.webserver.farm import FarmResult
        result = FarmResult(nworkers=1, topology=SHARED, policy="x")
        assert result.handshake_latency_percentile(99) == 0.0


# ---------------------------------------------------------------------------
# Workload stream contract
# ---------------------------------------------------------------------------

class TestAdversarialWorkload:
    def test_deterministic_stream(self):
        def stream():
            w = AdversarialWorkload.fixed(
                2048, resumption_rate=0.5, seed=b"det", clients=4,
                mean_gap_rounds=2.0, flash=(3, 4.0), flood_rate=0.3,
                reneg_rate=0.2)
            return list(w.requests(20))
        assert stream() == stream()

    def test_plain_workload_stream_unchanged(self):
        """The overload fields ride on Request defaults: a plain
        RequestWorkload stream is byte-identical to the pre-overload one
        (same draws, defaulted annotations)."""
        w = RequestWorkload.fixed(2048, resumption_rate=0.5,
                                  seed=b"plain", clients=4)
        for request in w.requests(10):
            assert request.arrival_round == 0
            assert request.abandon is None
            assert request.renegotiations == 0

    def test_floods_never_resume(self):
        w = AdversarialWorkload.fixed(
            1024, resumption_rate=1.0, seed=b"floods", clients=2,
            flood_rate=1.0)
        for request in w.requests(10):
            assert request.abandon is not None
            assert not request.resumable
            assert request.renegotiations == 0

    def test_flash_compresses_gaps(self):
        """A flash ramp multiplies the arrival rate: the post-ramp stream
        must arrive denser than the same seed without the ramp."""
        def span(flash):
            w = AdversarialWorkload.fixed(
                1024, seed=b"flash", mean_gap_rounds=4.0, flash=flash)
            return max(r.arrival_round for r in w.requests(30))
        assert span((0, 16.0)) < span(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversarialWorkload.fixed(1024, flood_rate=1.5)
        with pytest.raises(ValueError):
            AdversarialWorkload.fixed(1024, flood_mode="nope")
        with pytest.raises(ValueError):
            AdversarialWorkload.fixed(1024, mean_gap_rounds=-1.0)
        with pytest.raises(ValueError):
            AdversarialWorkload.fixed(1024, flash=(-1, 2.0))
