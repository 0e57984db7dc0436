"""Sharded server farm: N=1 bit-exactness, topologies, balancing policies.

The farm's core invariant (DESIGN.md): a one-worker farm is
*bit-identical* to ``WebServerSimulator.run(..., concurrency=k)`` --
cycle totals, full charge stream, transcript bytes, handshake latencies
-- arrival gaps included.  The remaining tests pin the sharding
semantics: cross-worker resumption works under the shared cache topology
and misses under the partitioned one, session-affinity routing recovers
the partitioned misses, and batch-RSA continuations stay worker-local.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import perf
from repro.crypto import rsa
from repro.crypto.batch_rsa import BatchRsaError, generate_batch_keys
from repro.crypto.rand import PseudoRandom
from repro.ssl.loopback import make_server_identity
from repro.webserver import (
    PARTITIONED, POLICIES, SHARED,
    AdversarialWorkload, RequestWorkload, RoundRobinPolicy, ServerFarm,
    WebServerSimulator, farm_requests_per_second,
)

from tests.test_fastpath_equivalence import snapshot
from tests.test_webserver import record_charged_profilers


@pytest.fixture(scope="module")
def batch_keys():
    return generate_batch_keys(512, 4, rng=PseudoRandom(b"farm-batch"))


def workload(resumption_rate=0.5, size=2048):
    """Fresh builder per run: the workload RNG is stateful across calls."""
    return RequestWorkload.fixed(size, resumption_rate=resumption_rate)


# ---------------------------------------------------------------------------
# N=1 bit-exactness
# ---------------------------------------------------------------------------

class TestSingleWorkerEquivalence:
    def test_bit_identical_to_simulator(self, identity512):
        key, cert = identity512
        # Warmup: the first run through a key lazily builds and caches its
        # Montgomery contexts, charging setup cycles later runs skip.
        WebServerSimulator(key=key, cert=cert).run(workload(), 2,
                                                   concurrency=2)

        base_sim = WebServerSimulator(key=key, cert=cert)
        base = base_sim.run(workload(), 6, concurrency=3)

        farm = ServerFarm(1, key=key, cert=cert)
        fr = farm.run(workload(), 6, concurrency_per_worker=3)
        worker = fr.results[0]

        assert snapshot(worker.profiler) == snapshot(base.profiler)
        assert worker.wire_bytes == base.wire_bytes
        assert worker.requests_completed == base.requests_completed
        assert worker.resumed_handshakes == base.resumed_handshakes
        assert worker.failures == base.failures
        assert worker.bytes_served == base.bytes_served
        assert fr.cross_worker_resumptions == 0

    def test_bit_identical_with_batching(self, batch_keys):
        base_sim = WebServerSimulator(key_set=batch_keys, batch_size=3)
        base_sim.run(workload(0.0), 2, concurrency=2)  # warmup

        base_sim = WebServerSimulator(key_set=batch_keys, batch_size=3)
        base = base_sim.run(workload(0.0), 6, concurrency=3)

        farm = ServerFarm(1, key_set=batch_keys, batch_size=3)
        fr = farm.run(workload(0.0), 6, concurrency_per_worker=3)
        worker = fr.results[0]

        assert snapshot(worker.profiler) == snapshot(base.profiler)
        assert worker.wire_bytes == base.wire_bytes
        assert worker.batched_ops == base.batched_ops
        assert worker.batches == base.batches
        assert base.batched_ops > 0

    def test_bit_identical_on_gapped_arrivals(self):
        # Both sides admit a connection no earlier than its arrival
        # round.  Each side gets its own key object from one seed: the
        # blinding state advances with every private op, so two runs on
        # one shared key object would differ.
        def gapped():
            return AdversarialWorkload.fixed(1024, seed=b"n1",
                                             mean_gap_rounds=4.0)

        sim_key, sim_cert = make_server_identity(512, seed=b"n1-identity")
        farm_key, farm_cert = make_server_identity(512, seed=b"n1-identity")
        rsa.reset_error_tables()
        base = WebServerSimulator(key=sim_key, cert=sim_cert).run(
            gapped(), 6, concurrency=2)
        rsa.reset_error_tables()
        fr = ServerFarm(1, key=farm_key, cert=farm_cert).run(
            gapped(), 6, concurrency_per_worker=2)
        worker = fr.results[0]

        assert snapshot(worker.profiler) == snapshot(base.profiler)
        assert worker.wire_bytes == base.wire_bytes
        assert worker.handshake_latencies == base.handshake_latencies

    def test_farm_aggregates_match_single_worker(self, identity512):
        key, cert = identity512
        fr = ServerFarm(1, key=key, cert=cert).run(workload(), 4)
        assert fr.requests_completed == fr.results[0].requests_completed
        assert fr.wire_bytes == fr.results[0].wire_bytes
        assert fr.total_cycles() == fr.results[0].profiler.total_cycles()
        assert fr.makespan_seconds() == fr.results[0].profiler.seconds()


# ---------------------------------------------------------------------------
# Cache topologies and cross-worker resumption
# ---------------------------------------------------------------------------

class TestTopologies:
    def run_farm(self, identity, topology, policy="round-robin"):
        key, cert = identity
        farm = ServerFarm(2, topology=topology, policy=policy,
                          key=key, cert=cert)
        result = farm.run(workload(resumption_rate=1.0), 4,
                          concurrency_per_worker=1)
        return farm, result

    def test_shared_cache_resumes_across_workers(self, identity512):
        _, result = self.run_farm(identity512, SHARED)
        # txn2 offers the session minted on worker 1 but lands on worker
        # 0: with one shared cache it still resumes.
        assert result.cross_worker_resumptions >= 1
        assert result.resumed_handshakes >= 2
        assert result.failures == 0
        assert len(result.shard_stats) == 1
        assert result.shard_stats[0]["workers"] == [0, 1]
        assert result.shard_stats[0]["hits"] == result.resumed_handshakes

    def test_partitioned_cache_misses_across_workers(self, identity512):
        _, result = self.run_farm(identity512, PARTITIONED)
        # The same cross-worker presentation now misses worker 0's private
        # shard and pays a full handshake.
        assert result.cross_worker_resumptions == 0
        assert result.failures == 0
        assert len(result.shard_stats) == 2
        assert sum(s["misses"] for s in result.shard_stats) >= 1

    def test_affinity_recovers_partitioned_misses(self, identity512):
        _, round_robin = self.run_farm(identity512, PARTITIONED)
        _, affinity = self.run_farm(identity512, PARTITIONED,
                                    policy="session-affinity")
        # Sticky routing sends resuming clients back to the shard that
        # minted their session, so no resumption is lost to partitioning.
        assert (affinity.resumed_handshakes
                > round_robin.resumed_handshakes)
        assert affinity.cross_worker_resumptions == 0
        assert affinity.failures == 0

    def test_partitioned_shards_are_private(self, identity512):
        key, cert = identity512
        farm = ServerFarm(2, topology=PARTITIONED, key=key, cert=cert)
        farm.run(workload(resumption_rate=0.0), 4,
                 concurrency_per_worker=1)
        caches = farm.shard_caches()
        assert len(caches) == 2
        assert caches[0] is not caches[1]
        ids = [set(c._entries) for c in caches]
        assert not (ids[0] & ids[1])

    def test_shared_topology_uses_one_cache(self, identity512):
        key, cert = identity512
        farm = ServerFarm(3, topology=SHARED, key=key, cert=cert)
        caches = farm.shard_caches()
        assert len(caches) == 1
        assert all(sim._session_cache is caches[0]
                   for sim in farm._sims)


# ---------------------------------------------------------------------------
# Balancing policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_registry(self):
        assert set(POLICIES) == {"round-robin", "least-connections",
                                 "session-affinity"}

    def test_round_robin_spreads_work(self, identity512):
        key, cert = identity512
        farm = ServerFarm(2, key=key, cert=cert)
        result = farm.run(workload(0.0), 6, concurrency_per_worker=2)
        assert [r.requests_completed for r in result.results] == [3, 3]

    def test_least_connections_spreads_work(self, identity512):
        key, cert = identity512
        farm = ServerFarm(2, policy="least-connections", key=key, cert=cert)
        result = farm.run(workload(0.0), 6, concurrency_per_worker=2)
        assert result.requests_completed == 6
        assert all(r.requests_completed > 0 for r in result.results)

    def test_policy_instance_accepted(self, identity512):
        key, cert = identity512
        farm = ServerFarm(2, policy=RoundRobinPolicy(), key=key, cert=cert)
        result = farm.run(workload(0.0), 2, concurrency_per_worker=1)
        assert result.policy == "round-robin"
        assert result.requests_completed == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerFarm(0)
        with pytest.raises(ValueError):
            ServerFarm(1, topology="replicated")
        with pytest.raises(ValueError):
            ServerFarm(1, policy="random")


class TestAffinityUnderSaturation:
    """SessionAffinityPolicy's documented saturation fallback: a resuming
    client whose sticky worker has no free slot is *held at the head of
    the accept queue* -- never rerouted to another shard (which would
    trade a guaranteed future hit for a guaranteed miss)."""

    def make_farm(self, identity512):
        from repro.webserver.farm import _WorkerState
        key, cert = identity512
        farm = ServerFarm(2, topology=PARTITIONED,
                          policy="session-affinity", key=key, cert=cert)
        farm._states = [_WorkerState(i, sim)
                        for i, sim in enumerate(farm._sims)]
        farm._concurrency = 1
        return farm

    def minted_session(self, farm, worker):
        from repro.ssl import DES_CBC3_SHA
        from repro.ssl.session import SslSession
        session = SslSession(session_id=bytes([worker + 1]) * 32,
                             cipher_suite_id=DES_CBC3_SHA.suite_id,
                             master_secret=b"m" * 48)
        farm._pool.current_worker = worker
        farm._pool.store(None, session)
        return session

    def test_holds_resuming_client_for_saturated_sticky_worker(
            self, identity512):
        from repro.webserver.workload import Request
        farm = self.make_farm(identity512)
        self.minted_session(farm, worker=0)
        group = [Request(path="/r", size_bytes=1024, resumable=True)]
        # Worker 0 (the session's minter) is saturated: the policy holds
        # the connection rather than breaking affinity, even though
        # worker 1 has a free slot.
        farm._states[0].sched.add(object())
        assert farm.free_slots(1)
        assert farm.policy.select(farm, group) is None
        # The slot frees up next round; the same connection now routes home.
        farm._states[0].sched.clear()
        assert farm.policy.select(farm, group) == 0

    def test_fresh_clients_still_flow_around_saturation(self, identity512):
        from repro.webserver.workload import Request
        farm = self.make_farm(identity512)
        self.minted_session(farm, worker=0)
        farm._states[0].sched.add(object())
        fresh = [Request(path="/f", size_bytes=1024, resumable=False)]
        # Non-resuming connections fall back to round-robin and take the
        # free worker -- saturation of a sticky target never head-blocks
        # the fresh traffic behind a *different* accept-queue entry.
        assert farm.policy.select(farm, fresh) == 1

    def test_saturated_run_completes_without_breaking_affinity(
            self, identity512):
        key, cert = identity512
        farm = ServerFarm(2, topology=PARTITIONED,
                          policy="session-affinity", key=key, cert=cert)
        # concurrency 1 forces repeated sticky-target saturation: every
        # resuming client must wait for its home worker's single slot.
        result = farm.run(workload(1.0), 8, concurrency_per_worker=1)
        assert result.failures == 0
        assert result.requests_completed == 8
        # Affinity was never broken: no resumption was served off-shard.
        assert result.cross_worker_resumptions == 0


# ---------------------------------------------------------------------------
# Batch RSA sharding
# ---------------------------------------------------------------------------

class TestFarmBatching:
    def test_continuations_stay_worker_local(self, batch_keys):
        farm = ServerFarm(2, key_set=batch_keys, batch_size=2)
        result = farm.run(workload(0.0), 8, concurrency_per_worker=2)
        assert result.failures == 0
        assert result.requests_completed == 8
        # Every worker ran its own queue: each one's batched decrypts
        # equal its own completed full handshakes -- nothing crossed over.
        for r in result.results:
            assert r.batched_ops == r.requests_completed
        assert result.batched_ops == 8
        assert sum(size * count
                   for size, count in result.batch_histogram().items()) == 8

    def test_rerun_reports_only_its_own_batches(self, batch_keys,
                                                identity512):
        # Each worker's batcher outlives a run; a second run on the same
        # farm must report its own flushes and ops, not lifetime totals.
        key, cert = identity512
        farm = ServerFarm(2, key=key, cert=cert, key_set=batch_keys,
                          batch_size=2)
        for _ in range(2):
            result = farm.run(workload(0.0), 8, concurrency_per_worker=2)
            assert result.requests_completed == 8
            assert result.batched_ops == 8
            assert result.batch_histogram() == {2: 4}

    def test_keyset_partition_disjoint(self, batch_keys):
        subsets = batch_keys.partition(2)
        assert [len(s) for s in subsets] == [2, 2]
        seen = set()
        for subset in subsets:
            for member in subset.members:
                assert id(member) not in seen
                seen.add(id(member))
        assert len(seen) == len(batch_keys)

    def test_keyset_partition_validation(self, batch_keys):
        with pytest.raises(BatchRsaError):
            batch_keys.partition(0)
        with pytest.raises(BatchRsaError):
            batch_keys.partition(5)  # only 4 members

    def test_more_workers_than_member_keys_rejected(self, batch_keys):
        with pytest.raises(BatchRsaError):
            ServerFarm(5, key_set=batch_keys)


# ---------------------------------------------------------------------------
# Farm-level metrics
# ---------------------------------------------------------------------------

class TestFarmMetrics:
    def test_capacity_and_merged_profile(self, identity512):
        key, cert = identity512
        fr = ServerFarm(2, key=key, cert=cert).run(
            workload(), 6, concurrency_per_worker=2)
        assert fr.capacity_rps() > 0
        assert fr.analytic_capacity_rps() > 0
        merged = fr.merged_profiler()
        assert merged.total_cycles() == pytest.approx(fr.total_cycles())
        shares = fr.module_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)
        stats = fr.worker_stats()
        assert [w.worker for w in stats] == [0, 1]
        assert all(w.cycles > 0 for w in stats)

    def test_every_charge_lands_in_a_worker_profile(self, identity512,
                                                   monkeypatch):
        """The workers are simulators, so each one's clients charge its
        discard sink; the workload's draws charge the caller's active
        profiler, here a sink too."""
        key, cert = identity512
        farm = ServerFarm(2, key=key, cert=cert)
        charged = record_charged_profilers(monkeypatch)
        with perf.activate(perf.Discard()):
            fr = farm.run(workload(), 6, concurrency_per_worker=2)
        assert fr.requests_completed == 6
        workers = [r.profiler for r in fr.results]
        assert len(workers) == 2
        assert [p for p in charged.values()
                if not any(p is w for w in workers)] == []
        assert all(id(w) in charged for w in workers)

    def test_farm_requests_per_second(self):
        # Two workers at 1e9 cycles for 10 requests each on a 1e9 Hz CPU
        # would each serve 10 rps.
        from repro.perf import CpuModel
        cpu = CpuModel(name="unit", frequency_hz=1e9)
        assert farm_requests_per_second(
            [1e9, 1e9], [10, 10], cpu) == pytest.approx(20.0)
        assert farm_requests_per_second([1e9, 0.0], [10, 0],
                                        cpu) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            farm_requests_per_second([1e9], [10, 10], cpu)
        with pytest.raises(ValueError):
            farm_requests_per_second([], [], cpu)
        with pytest.raises(ValueError):
            farm_requests_per_second([-1.0], [1], cpu)


# ---------------------------------------------------------------------------
# Import footprint
# ---------------------------------------------------------------------------

class TestImportFootprint:
    def test_webserver_does_not_load_multiprocessing(self):
        # Every benchmark process imports the package; nothing in it
        # runs in a child process, so importing it must not drag in the
        # multiprocessing machinery.
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        code = ("import sys; import repro.webserver; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing'))")
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
