"""Sharded multi-worker HTTPS server farm.

The paper sizes SSL processing against a single Pentium 4 (Table 1's
secure-vs-plain capacity collapse).  This module scales that methodology
across ``N`` worker replicas, the way production sites actually recovered
the lost capacity: each worker owns a
:class:`~repro.webserver.simulator.WebServerSimulator` replica (its own
connection pool, its own :class:`~repro.ssl.server.HandshakeBatcher` queue
when batch RSA is on, and its own virtual clock -- a private
:class:`~repro.perf.Profiler`), fronted by a pluggable load balancer.

Two session-cache topologies are modelled:

* ``partitioned`` -- every worker keeps a private
  :class:`~repro.ssl.session.SessionCache` shard.  A client whose session
  was minted on worker A and who lands on worker B misses and pays a full
  handshake (the classic multi-worker resumption problem);
* ``shared`` -- one cache serves every worker (mod_ssl's shared-memory
  session cache / a distributed cache), so resumption survives
  cross-worker rescheduling.

Three balancing policies ship: round-robin, least-connections and
session-affinity hashing (route a resuming client back to the worker that
minted its session -- which recovers resumption hits even under the
partitioned topology).

**The N=1 invariant**: a one-worker farm is *bit-identical* -- cycle
totals, charge stream, transcript bytes, handshake latencies -- to
``WebServerSimulator.run(..., concurrency=k)`` on every workload.  The
farm does not model anything new at N=1; it only adds the sharding axis.
Both run the same round loop (``simulator._run_rounds``: admission,
stepping order, batch ticking, stall handling), and both admit a
connection no earlier than its :attr:`~repro.webserver.workload.Request.
arrival_round`; the farm adds the balancer, admission and suite
policies, and the owner annotation for cross-worker resumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import perf
from ..crypto.batch_rsa import BatchRsaKeySet
from ..crypto.rsa import RsaPrivateKey
from ..engines.offload import OffloadConfig
from ..ssl.ciphersuites import CipherSuite, DEFAULT_SUITE
from ..ssl.loopback import make_server_identity
from ..ssl.session import SessionCache, SslSession
from ..ssl.ticket import TicketKeyRing
from ..ssl.x509 import Certificate
from .capacity import farm_requests_per_second
from .clientpool import ClientPool
from .costs import DEFAULT_COSTS, SystemCostModel
from .overload import AcceptQueue, AdmissionPolicy, PressureSignal, SuitePolicy
from .simulator import (
    SimulationResult, WebServerSimulator, _Transaction, _WorkerState,
    _admit_transaction, _run_rounds,
)
from .workload import Request, RequestWorkload, connection_groups

PARTITIONED = "partitioned"
SHARED = "shared"
TOPOLOGIES = (PARTITIONED, SHARED)


# ---------------------------------------------------------------------------
# Load-balancing policies
# ---------------------------------------------------------------------------

class LoadBalancerPolicy:
    """Admission-time worker selection.

    :meth:`select` returns the index of a worker with a free connection
    slot, or ``None`` to hold the connection at the head of the accept
    queue for this scheduling round (e.g. a sticky target is saturated).
    """

    name = "abstract"

    def select(self, farm: "ServerFarm",
               group: Sequence[Request]) -> Optional[int]:
        raise NotImplementedError


class RoundRobinPolicy(LoadBalancerPolicy):
    """Cycle through the workers, skipping saturated ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, farm: "ServerFarm",
               group: Sequence[Request]) -> Optional[int]:
        for offset in range(farm.nworkers):
            worker = (self._next + offset) % farm.nworkers
            if farm.free_slots(worker):
                self._next = (worker + 1) % farm.nworkers
                return worker
        return None


class LeastConnectionsPolicy(LoadBalancerPolicy):
    """Pick the worker with the fewest in-flight connections."""

    name = "least-connections"

    def select(self, farm: "ServerFarm",
               group: Sequence[Request]) -> Optional[int]:
        candidates = [w for w in range(farm.nworkers) if farm.free_slots(w)]
        if not candidates:
            return None
        return min(candidates, key=lambda w: (farm.active_connections(w), w))


class SessionAffinityPolicy(LoadBalancerPolicy):
    """Route a resuming client to the worker that minted its session.

    This is sticky routing keyed on the offered session id: under the
    partitioned cache topology it is what turns guaranteed cross-worker
    misses back into hits.  Fresh (non-resuming) connections fall back to
    round-robin; a saturated sticky target holds the connection back
    rather than breaking affinity.
    """

    name = "session-affinity"

    def __init__(self) -> None:
        self._fallback = RoundRobinPolicy()

    def select(self, farm: "ServerFarm",
               group: Sequence[Request]) -> Optional[int]:
        session = farm.offered_session(group)
        if session is not None:
            owner = farm.session_owner(session.session_id)
            if owner is not None:
                return owner if farm.free_slots(owner) else None
        return self._fallback.select(farm, group)


POLICIES = {cls.name: cls for cls in
            (RoundRobinPolicy, LeastConnectionsPolicy,
             SessionAffinityPolicy)}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class WorkerStats:
    """Per-worker summary row of one farm run."""

    worker: int
    cycles: float
    seconds: float
    requests_completed: int
    failures: int
    resumed_handshakes: int
    wire_bytes: int
    batched_ops: int


@dataclass
class FarmResult:
    """Aggregate + per-shard measurements of one farm run.

    Every time figure here is **virtual (modeled) time**: each worker's
    private :class:`~repro.perf.Profiler` accumulates the Pentium 4
    cycles the paper's cost model charges, and :meth:`makespan_seconds`,
    :meth:`capacity_rps` and :meth:`analytic_capacity_rps` are derived
    from it.  Virtual figures are *deterministic* and independent of the
    host backend (fast path or faithful loops); how long the host took
    to run the simulation is not part of the result.
    """

    nworkers: int
    topology: str
    policy: str
    #: Per-worker results; ``results[i].profiler`` is worker ``i``'s
    #: virtual clock.
    results: List[SimulationResult] = field(default_factory=list)
    #: Per-*shard* cache counters (N shards when partitioned, 1 when
    #: shared), each ``{"shard", "workers", "hits", "misses",
    #: "evictions", "size", "capacity"}``.
    shard_stats: List[Dict] = field(default_factory=list)
    #: Resumptions served by a worker other than the session's minter
    #: (only possible under the shared topology).
    cross_worker_resumptions: int = 0

    # -- aggregates ---------------------------------------------------------
    @property
    def requests_completed(self) -> int:
        return sum(r.requests_completed for r in self.results)

    @property
    def failures(self) -> int:
        return sum(r.failures for r in self.results)

    @property
    def resumed_handshakes(self) -> int:
        return sum(r.resumed_handshakes for r in self.results)

    @property
    def bytes_served(self) -> int:
        return sum(r.bytes_served for r in self.results)

    @property
    def wire_bytes(self) -> int:
        return sum(r.wire_bytes for r in self.results)

    @property
    def batched_ops(self) -> int:
        return sum(r.batched_ops for r in self.results)

    @property
    def tickets_minted(self) -> int:
        return sum(r.tickets_minted for r in self.results)

    @property
    def tickets_accepted(self) -> int:
        return sum(r.tickets_accepted for r in self.results)

    @property
    def tickets_rejected(self) -> int:
        return sum(r.tickets_rejected for r in self.results)

    @property
    def tickets_renewed(self) -> int:
        return sum(r.tickets_renewed for r in self.results)

    # -- overload anatomy ---------------------------------------------------
    #: Connections the workload offered (arrived at the accept queue).
    offered_connections: int = 0
    #: Connections the admission policy shed at a full backlog.
    shed_queue_full: int = 0
    #: Connections the admission policy shed past their queue deadline.
    shed_deadline: int = 0
    #: Requests lost with the shed connections.
    requests_shed: int = 0
    #: Deepest the accept queue ever got.
    peak_queue_depth: int = 0
    #: Total scheduling rounds admitted connections spent queued.
    queue_wait_rounds_total: int = 0
    #: Connections whose ServerHello the :class:`~repro.webserver.
    #: overload.SuitePolicy` steered to the downgrade suite.
    connections_downgraded: int = 0

    @property
    def connections_shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline

    @property
    def handshakes_abandoned(self) -> int:
        return sum(r.handshakes_abandoned for r in self.results)

    @property
    def requests_abandoned(self) -> int:
        return sum(r.requests_abandoned for r in self.results)

    @property
    def renegotiations_served(self) -> int:
        return sum(r.renegotiations_served for r in self.results)

    @property
    def handshake_latencies(self) -> List[float]:
        """Every completed handshake's modeled latency, concatenated in
        worker-index order (each worker's list is in completion order on
        its own clock) -- deterministic across backends."""
        return [lat for r in self.results for lat in r.handshake_latencies]

    @property
    def completed_handshakes(self) -> int:
        """Handshakes that reached Finished (full, resumed and
        renegotiation handshakes alike) -- the numerator of the overload
        knee curves, which abandoned floods never enter."""
        return sum(len(r.handshake_latencies) for r in self.results)

    def handshake_latency_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of the modeled handshake latency, in
        virtual seconds (``pct`` in (0, 100]); 0.0 with no completed
        handshakes."""
        latencies = sorted(self.handshake_latencies)
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * len(latencies)))
        return latencies[min(rank, len(latencies)) - 1]

    def offload_summary(self) -> Optional[Dict]:
        """Farm-wide crypto-engine offload stats; ``None`` when the run
        had no engine pool.

        Sums the per-worker pool snapshots (``results[i].offload``) into
        ``ops`` / ``fallbacks`` / ``skipped_small`` counters, reports the
        worst queue pressure any worker saw, and averages unit
        utilization across workers (each worker owns its own pool of the
        same layout).
        """
        per_worker = [r.offload for r in self.results
                      if r.offload is not None]
        if not per_worker:
            return None
        nunits = len(per_worker[0]["units"])
        utilization = [
            perf.left_sum(w["units"][u]["utilization"] for w in per_worker)
            / len(per_worker) for u in range(nunits)]
        return {
            "ops": sum(w["ops"] for w in per_worker),
            "record_ops": sum(w["record_ops"] for w in per_worker),
            "modexp_ops": sum(w["modexp_ops"] for w in per_worker),
            "fallbacks": sum(w["fallbacks"] for w in per_worker),
            "skipped_small": sum(w["skipped_small"] for w in per_worker),
            "engine_cycles": round(
                perf.left_sum(w["engine_cycles"] for w in per_worker), 3),
            "peak_backlog_cycles": max(
                w["peak_backlog_cycles"] for w in per_worker),
            "peak_queue_depth": max(
                w["peak_queue_depth"] for w in per_worker),
            "unit_utilization": [round(u, 6) for u in utilization],
        }

    def worker_stats(self) -> List[WorkerStats]:
        return [WorkerStats(
            worker=i, cycles=r.profiler.total_cycles(),
            seconds=r.profiler.seconds(),
            requests_completed=r.requests_completed, failures=r.failures,
            resumed_handshakes=r.resumed_handshakes,
            wire_bytes=r.wire_bytes, batched_ops=r.batched_ops)
            for i, r in enumerate(self.results)]

    def total_cycles(self) -> float:
        return perf.left_sum(r.profiler.total_cycles() for r in self.results)

    def makespan_seconds(self) -> float:
        """**Virtual** duration of the run: the busiest worker's modeled
        clock (charged cycles over the modeled CPU frequency)."""
        return max(r.profiler.seconds() for r in self.results)

    def capacity_rps(self) -> float:
        """Achieved farm capacity in **virtual** requests/second:
        completed requests over :meth:`makespan_seconds`.

        This is the farm-scale analogue of the paper's Table 1 capacity
        (requests/s at saturation): the modeled workers run on one CPU
        each, so the run "takes" as long as its most loaded worker.  It
        says nothing about host execution speed.
        """
        makespan = self.makespan_seconds()
        if makespan <= 0.0:
            return 0.0
        return self.requests_completed / makespan

    def analytic_capacity_rps(self) -> float:
        """Sum of per-worker analytic ceilings, in **virtual** (modeled)
        requests/second (see :func:`~repro.webserver.capacity.
        farm_requests_per_second`)."""
        return farm_requests_per_second(
            [r.profiler.total_cycles() for r in self.results],
            [r.requests_completed for r in self.results],
            self.results[0].profiler.cpu)

    def merged_profiler(self) -> perf.Profiler:
        """All workers folded into one profile (Table 1 at farm scale)."""
        target = perf.Profiler(self.results[0].profiler.cpu)
        return perf.merge_profilers(target,
                                    *[r.profiler for r in self.results])

    def module_shares(self) -> Dict[str, float]:
        merged = self.merged_profiler()
        return {name: share
                for name, _, share in merged.module_breakdown()}

    def batch_histogram(self) -> Dict[int, int]:
        """Union of the per-worker batch-size histograms."""
        merged: Dict[int, int] = {}
        for r in self.results:
            for size, count in r.batches.items():
                merged[size] = merged.get(size, 0) + count
        return merged


# ---------------------------------------------------------------------------
# The farm
# ---------------------------------------------------------------------------

class ServerFarm:
    """N web-server worker replicas behind a load balancer.

    All workers serve the same identity (one certificate, like a real
    farm) and the same suite/version configuration; what varies per
    worker is its connection pool, its virtual clock, its batch queue and
    -- under the partitioned topology -- its session-cache shard.
    """

    def __init__(self, nworkers: int, *,
                 topology: str = PARTITIONED,
                 policy: Union[str, LoadBalancerPolicy] = "round-robin",
                 suite: CipherSuite = DEFAULT_SUITE,
                 key: Optional[RsaPrivateKey] = None,
                 cert: Optional[Certificate] = None,
                 costs: SystemCostModel = DEFAULT_COSTS,
                 use_crt: bool = False,
                 version: int = 0x0300,
                 seed: bytes = b"webserver",
                 key_set: Optional[BatchRsaKeySet] = None,
                 batch_size: Optional[int] = None,
                 batch_timeout: int = 8,
                 session_lifetime: float = 300.0,
                 session_cache_capacity: int = 1024,
                 engines: Optional[OffloadConfig] = None,
                 tickets: Optional[TicketKeyRing] = None,
                 client_pool_capacity: int = 64,
                 admission: Optional[AdmissionPolicy] = None,
                 suite_policy: Optional[SuitePolicy] = None,
                 client_suites: Optional[Sequence[CipherSuite]] = None):
        """``key_set`` enables batch RSA: the member keys are partitioned
        round-robin into one disjoint sub-keyset per worker (see
        :meth:`BatchRsaKeySet.partition`), so every worker's batch queue
        -- and therefore every suspended-handshake continuation -- stays
        worker-local.  Requires at least one member key per worker.

        ``engines`` attaches crypto-engine offload: every worker gets its
        *own* :class:`~repro.engines.OffloadPool` built from the config --
        engines are per-machine hardware, like the batcher and the
        partitioned cache shards.

        ``tickets`` attaches one :class:`~repro.ssl.ticket.TicketKeyRing`
        shared by every worker (the ring is pure configuration -- all
        workers derive identical keys), enabling stateless resumption
        under every topology; ``client_pool_capacity`` bounds the
        farm-global per-client session pool.

        ``admission`` installs an :class:`~repro.webserver.overload.
        AdmissionPolicy` in front of the load balancer (``None`` keeps
        the unbounded pre-overload accept queue); ``suite_policy``
        installs a :class:`~repro.webserver.overload.SuitePolicy` that
        steers ServerHello suite selection under accept-queue pressure;
        ``client_suites`` is the ClientHello offer list every simulated
        client sends (default: just ``suite`` -- offer the downgrade
        suite too, or the policy has nothing to steer to).  All three
        are evaluated once per connection, in admission order."""
        if nworkers < 1:
            raise ValueError("need at least one worker")
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown cache topology {topology!r}")
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise ValueError(f"unknown balancing policy {policy!r}")
            policy = POLICIES[policy]()
        self.nworkers = nworkers
        self.topology = topology
        self.policy = policy
        if key is None or cert is None:
            # Same derivation as WebServerSimulator's default, generated
            # once and shared by every worker.
            key, cert = make_server_identity(1024, seed=seed + b"-identity")
        # Pre-fork key distribution: the identity (numbers, certificate,
        # warmed Montgomery contexts) is generated once, then every worker
        # gets its own key *replica* with private blinding state -- the
        # way each prefork server process owns its OpenSSL key structure.
        # A single shared key would couple the workers' modeled charges
        # through the order its blinding pair is consumed.  At N=1 the
        # original key is used directly, preserving the bit-identity
        # with ``WebServerSimulator``.
        worker_keys = ([key] if nworkers == 1 else
                       [key.replica() for _ in range(nworkers)])
        shared_cache = (SessionCache(session_cache_capacity)
                        if topology == SHARED else None)
        subsets: Optional[List[BatchRsaKeySet]] = None
        if key_set is not None:
            subsets = key_set.partition(nworkers)
        self._pool = ClientPool(client_pool_capacity)
        self._sims: List[WebServerSimulator] = []
        for i in range(nworkers):
            sim = WebServerSimulator(
                suite=suite, key=worker_keys[i], cert=cert, costs=costs,
                use_crt=use_crt, version=version, seed=seed,
                key_set=subsets[i] if subsets is not None else None,
                batch_size=batch_size, batch_timeout=batch_timeout,
                session_cache=(shared_cache if shared_cache is not None
                               else SessionCache(session_cache_capacity)),
                session_lifetime=session_lifetime,
                engines=engines, tickets=tickets,
                client_pool_capacity=client_pool_capacity,
                client_suites=client_suites)
            # Clients resume against whatever worker they land on next:
            # the client-session pool is farm-global.
            sim._client_sessions = self._pool
            self._sims.append(sim)
        self._shared_cache = shared_cache
        self.admission = admission
        self.suite_policy = suite_policy
        self._downgraded = 0
        self._states: List[_WorkerState] = []

    # -- policy callbacks ---------------------------------------------------
    def free_slots(self, worker: int) -> bool:
        return len(self._states[worker].sched) < self._concurrency

    def active_connections(self, worker: int) -> int:
        return len(self._states[worker].sched)

    def offered_session(self, group: Sequence[Request],
                        ) -> Optional[SslSession]:
        """The session the next client for ``group`` would offer (the same
        per-client pool rule as ``_Transaction.__init__``)."""
        return self._pool.offer(group[0])

    def session_owner(self, session_id: bytes) -> Optional[int]:
        return self._pool.owners.get(session_id)

    def shard_caches(self) -> List[SessionCache]:
        if self._shared_cache is not None:
            return [self._shared_cache]
        return [sim._session_cache for sim in self._sims]

    # -- admission ----------------------------------------------------------
    def _suites_for_admission(self, queue: AcceptQueue,
                              ) -> Optional[Tuple[CipherSuite, ...]]:
        """Consult the suite policy for the connection being admitted:
        once per admission, in admission order, before the connection
        leaves the queue.  ``None`` means no policy: the worker's
        default single-suite preference applies.
        """
        if self.suite_policy is None:
            return None
        pressure = PressureSignal(
            queue_depth=queue.depth(),
            active=sum(self.active_connections(w)
                       for w in range(self.nworkers)),
            slots=self.nworkers * self._concurrency,
            round=queue.round)
        order = self.suite_policy.suites_for(pressure)
        if order[0].suite_id != self.suite_policy.primary.suite_id:
            self._downgraded += 1
        return order

    def _admit(self, queue: AcceptQueue, txn_id: int) -> int:
        """Drain the accept queue through the balancing policy (which
        may hold the head connection for this round), building
        transactions in place.  Returns the next transaction id."""
        while True:
            group = queue.head()
            if group is None:
                break
            worker = self.policy.select(self, group)
            if worker is None:
                break
            offered = self.offered_session(group)
            owner = (self.session_owner(offered.session_id)
                     if offered is not None else None)
            suites = self._suites_for_admission(queue)
            queue.pop()
            state = self._states[worker]
            txn = _admit_transaction(state.sim, txn_id, group,
                                     state.profiler, state.result,
                                     server_suites=suites)
            txn_id += 1
            if txn is None:
                continue
            txn._farm_offered_owner = owner
            state.sched.add(txn)
        return txn_id

    # -- the experiment -----------------------------------------------------
    def run(self, workload: RequestWorkload, nrequests: int,
            requests_per_connection: int = 1,
            concurrency_per_worker: int = 4) -> FarmResult:
        """Process ``nrequests`` requests across the farm.

        Scheduling interleaves the workers round by round in the round
        loop ``WebServerSimulator.run`` also uses: admit from the global
        accept queue through the balancing policy, advance every
        in-flight transaction of every worker one step, then tick each
        worker's batch clock.  That makes the N=1 farm bit-identical to
        the single simulator (see the module docstring).
        """
        if requests_per_connection < 1:
            raise ValueError("requests_per_connection must be >= 1")
        if concurrency_per_worker < 1:
            raise ValueError("concurrency_per_worker must be >= 1")
        self._concurrency = concurrency_per_worker
        groups = connection_groups(workload.requests(nrequests),
                                   requests_per_connection)

        self._states = [_WorkerState(i, sim)
                        for i, sim in enumerate(self._sims)]
        queue = AcceptQueue(groups, self.admission)
        self._downgraded = 0
        pool = self._pool
        cross_resumed = 0

        def on_done(txn: _Transaction) -> None:
            # A resumption served by a worker other than the minter.
            nonlocal cross_resumed
            owner = txn._farm_offered_owner
            if (txn.server.resumed and owner is not None
                    and owner != pool.current_worker):
                cross_resumed += 1

        _run_rounds(queue, self._states, self._admit, on_done)
        return self._assemble_result(queue, cross_resumed)

    def _assemble_result(self, queue: AcceptQueue,
                         cross_resumed: int) -> FarmResult:
        shard_stats = []
        if self._shared_cache is not None:
            shard_stats.append({"shard": 0,
                                "workers": list(range(self.nworkers)),
                                **self._shared_cache.stats()})
        else:
            for i, sim in enumerate(self._sims):
                shard_stats.append({"shard": i, "workers": [i],
                                    **sim._session_cache.stats()})
        return FarmResult(
            nworkers=self.nworkers, topology=self.topology,
            policy=self.policy.name,
            results=[s.finish() for s in self._states],
            shard_stats=shard_stats,
            cross_worker_resumptions=cross_resumed,
            offered_connections=queue.offered_connections,
            shed_queue_full=queue.shed_queue_full,
            shed_deadline=queue.shed_deadline,
            requests_shed=queue.requests_shed,
            peak_queue_depth=queue.peak_queue_depth,
            queue_wait_rounds_total=queue.queue_wait_rounds_total,
            connections_downgraded=self._downgraded)
