"""The HTTPS web-server experiment (setup 3.1 of the paper).

Runs a stream of HTTPS transactions against a simulated Apache+Linux stack:
the SSL processing is the real instrumented protocol implementation; the
kernel/httpd/libc components are the calibrated cost models of
:mod:`repro.webserver.costs`.  Measurements are taken on the *server* side
(its profiler), exactly as in the paper; the client machine computes every
byte but charges into a :class:`~repro.perf.Discard` sink, which keeps
nothing.  :class:`SimulationResult` carries the run's
:class:`~repro.webserver.counters.RunCounters`, its accept queue's
included, and a run raises unless its requests add up.

Regenerates the data behind Table 1 (module breakdown) and Figure 2
(crypto-category split versus request size).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..crypto.batch_rsa import BatchRsaKeySet
from ..crypto.rand import PseudoRandom
from ..crypto.rsa import RsaPrivateKey
from ..engines.offload import OffloadConfig, OffloadPool
from ..perf.categories import crypto_breakdown
from ..ssl.ciphersuites import CipherSuite, DEFAULT_SUITE
from ..ssl.client import SslClient
from ..ssl.errors import SslError
from ..ssl.loopback import make_server_identity
from ..ssl.server import HandshakeBatcher, SslServer
from ..ssl.session import SessionCache
from ..ssl.ticket import TicketKeyRing
from ..ssl.x509 import Certificate, make_self_signed
from .clientpool import ClientPool
from .costs import DEFAULT_COSTS, SystemCostModel
from .counters import RunCounters
from .events import TxnScheduler
from .httpd import ApacheWorker, build_request, parse_response
from .overload import AcceptQueue
from .workload import Request, RequestWorkload, connection_groups


@dataclass
class SimulationResult(RunCounters):
    """Aggregate measurements of one simulation run: the
    :class:`~repro.webserver.counters.RunCounters` fields plus what is
    not an integer counter."""

    profiler: perf.Profiler
    #: Batch-size histogram from the handshake batcher ({size: flushes});
    #: empty when batching is off.
    batches: Dict[int, int] = field(default_factory=dict)
    #: Crypto-engine offload snapshot (:meth:`OffloadPool.snapshot`);
    #: ``None`` when the run had no engine pool.
    offload: Optional[Dict[str, object]] = None
    #: Modeled latency of every *completed* handshake (including resumed
    #: and renegotiation handshakes), in virtual seconds on the server's
    #: clock, in completion order: the time from transaction admission
    #: (or renegotiation start) to Finished, including modeled-CPU
    #: queueing behind concurrent transactions.  Deterministic; the p50
    #: and p99 of the overload scenarios are computed from it.
    handshake_latencies: List[float] = field(default_factory=list)
    #: Scheduler-work snapshot (:meth:`~repro.webserver.events.
    #: TxnScheduler.stats`: transactions touched -- every live one in
    #: each executed round -- and rounds executed vs virtual), set when
    #: the run finishes.  Host-execution accounting -- never part of
    #: baseline signatures.
    scheduler: Optional[Dict[str, int]] = None

    def module_shares(self) -> Dict[str, float]:
        """Module -> share of total cycles (Table 1)."""
        return {name: share
                for name, _, share in self.profiler.module_breakdown()}

    def crypto_category_shares(self) -> Dict[str, float]:
        """Crypto category -> share of libcrypto cycles (Figure 2)."""
        breakdown = crypto_breakdown(self.profiler)
        total = perf.left_sum(breakdown.values()) or 1.0
        return {k: v / total for k, v in breakdown.items()}

    def cycles_per_request(self) -> float:
        if not self.requests_completed:
            return 0.0
        return self.profiler.total_cycles() / self.requests_completed

    HANDSHAKE_REGIONS = (
        "init", "get_client_hello", "send_server_hello",
        "send_server_cert", "send_server_kx", "send_server_done",
        "get_client_kx", "get_finished", "send_cipher_spec",
        "send_finished", "send_session_ticket", "server_flush",
    )

    def phase_breakdown(self) -> Dict[str, float]:
        """Cycles split into handshake / bulk transfer / everything else.

        The handshake share is the sum of the Table 2 step regions; bulk
        is the record-layer data path; "system" is the modelled kernel,
        httpd and libc work plus whatever falls outside both.
        """
        handshake = perf.left_sum(self.profiler.region_cycles(r)
                                  for r in self.HANDSHAKE_REGIONS)
        bulk = self.profiler.region_cycles("bulk_transfer")
        total = self.profiler.total_cycles()
        return {"handshake": handshake, "bulk": bulk,
                "system": max(0.0, total - handshake - bulk)}


def _first_record(data: bytes) -> bytes:
    """The first SSL record of a flight, cut at the record boundary.

    A mid-key-exchange abandon must deliver the ClientKeyExchange (so
    the server burns the RSA decrypt) but *not* the CCS/Finished records
    the client emits in the same flight; the 5-byte record header
    (type, version, 16-bit length) gives the cut point.
    """
    if len(data) < 5:
        return data
    return data[:5 + int.from_bytes(data[3:5], "big")]


def _admit_transaction(sim: "WebServerSimulator", txn_id: int,
                       requests: List[Request],
                       server_prof: perf.Profiler,
                       result: SimulationResult,
                       server_suites: Optional[Tuple[CipherSuite, ...]]
                       = None) -> Optional["_Transaction"]:
    """Construct a transaction, folding setup failures into the result.

    ``_Transaction.__init__`` runs real handshake openings (server setup,
    the client's first flight); an :class:`SslError` escaping it would
    crash the scheduling loop while :meth:`_Transaction.step` failures are
    counted.  Admission failures are accounted the same way -- every
    request of the would-be connection becomes a failure -- and ``None``
    is returned so the caller simply does not schedule it.
    """
    try:
        return _Transaction(sim, txn_id, requests, server_prof, result,
                            server_suites=server_suites)
    except SslError:
        result.failures += len(requests)
        return None


class _Transaction:
    """One interleavable HTTPS transaction (connection + its requests).

    The work of one connection -- kernel setup charges, handshake, the
    keep-alive requests, close -- split into :meth:`step` increments: one
    client/server byte exchange or one HTTP request per call.  Every
    simulator and farm run steps transactions through a
    :class:`~repro.webserver.events.TxnScheduler`; at concurrency 1 that
    is one connection at a time, and above it many transactions are open
    at once, exactly the concurrency batch RSA needs.  An
    :class:`SslError` in any step is counted as a failure, never raised.
    """

    HANDSHAKE, REQUESTS, CLOSING, DONE = range(4)

    # Slotted: at high concurrency the per-transaction bookkeeping is
    # allocated once per connection; slots also pin the attribute set
    # (e.g. a typo'd farm annotation would now raise instead of silently
    # growing a dict).  ``_farm_offered_owner`` is the farm's
    # cross-resumption annotation, defaulted here so simulator-only
    # transactions stay readable.
    __slots__ = ("_sim", "_requests", "_nrequests", "_server_prof",
                 "_result", "phase", "_hs_start",
                 "_abandon", "_abandon_step", "_renegs_left",
                 "_client_key", "server", "client", "_farm_offered_owner")

    def __init__(self, sim: "WebServerSimulator", txn_id: int,
                 requests: List[Request], server_prof: perf.Profiler,
                 result: SimulationResult,
                 server_suites: Optional[Tuple[CipherSuite, ...]] = None):
        self._sim = sim
        self._requests = deque(requests)
        self._nrequests = len(requests)
        self._server_prof = server_prof
        self._result = result
        self.phase = _Transaction.HANDSHAKE
        # Handshake latency starts at admission, before the kernel's
        # connection-setup charges: time already on this worker's clock
        # is queueing the new connection experiences.
        self._hs_start = server_prof.seconds()
        # Adversarial behaviour is a connection-level property, read off
        # the group's first request.
        self._abandon = requests[0].abandon
        self._abandon_step = 0
        self._renegs_left = requests[0].renegotiations
        self._farm_offered_owner: Optional[int] = None
        tag = str(txn_id).encode()

        total_kb = sum(r.size_bytes for r in requests) / 1024.0
        with perf.activate(server_prof):
            perf.charge_cycles(sim._costs.kernel_cycles(total_kb),
                               function="tcp_stack", module=perf.VMLINUX)
            perf.charge_cycles(sim._costs.other_cycles(total_kb),
                               function="libc_misc", module=perf.OTHER)

        resume = sim._client_sessions.offer(requests[0])
        self._client_key = requests[0].client_id

        key, cert = sim._next_server_identity()
        with perf.activate(server_prof):
            self.server = SslServer(
                key, cert,
                suites=(server_suites if server_suites is not None
                        else (sim._suite,)),
                session_cache=sim._session_cache,
                rng=PseudoRandom(sim._seed + b"-s" + tag),
                batcher=sim._batcher,
                clock=server_prof.seconds,
                session_lifetime=sim._session_lifetime,
                offload=sim._engines,
                ticket_keys=sim._tickets)
        with perf.activate(sim._client_sink):
            self.client = SslClient(suites=sim._client_suites,
                                    session=resume,
                                    version=sim._version,
                                    rng=PseudoRandom(sim._seed + b"-c" + tag),
                                    session_tickets=sim._tickets is not None)
            self.client.start_handshake()

    @property
    def done(self) -> bool:
        return self.phase == _Transaction.DONE

    def _fail(self) -> None:
        # Only requests not yet individually accounted for become
        # failures; requests stay queued until their response is parsed,
        # and a transaction dying in CLOSING has already counted every
        # request as completed or failed.
        self._result.failures += len(self._requests)
        self._account_wire()
        self.phase = _Transaction.DONE

    def _account_wire(self) -> None:
        """Fold the server endpoint's transcript bytes (and its ticket
        counters) into the result; runs exactly once per transaction."""
        server = getattr(self, "server", None)
        if server is not None:
            result = self._result
            result.wire_bytes += (server.stats.bytes_sent
                                  + server.stats.bytes_received)
            result.tickets_minted += server.tickets_minted
            result.tickets_accepted += server.tickets_accepted
            result.tickets_rejected += server.tickets_rejected
            result.tickets_renewed += server.tickets_renewed
            result.renegotiations_served += server.renegotiations

    def step(self) -> bool:
        """Advance one increment; returns True if any progress was made."""
        try:
            if self.phase == _Transaction.HANDSHAKE:
                return self._step_handshake()
            if self.phase == _Transaction.REQUESTS:
                return self._step_request()
            if self.phase == _Transaction.CLOSING:
                return self._step_close()
        except SslError:
            self._fail()
            return True
        return False

    def _exchange(self) -> bool:
        """Relay pending bytes both ways once (one flight each)."""
        with perf.activate(self._sim._client_sink):
            c_out = self.client.pending_output()
        with perf.activate(self._server_prof):
            s_out = self.server.pending_output()
            if c_out:
                self.server.receive(c_out)
        with perf.activate(self._sim._client_sink):
            if s_out:
                self.client.receive(s_out)
        return bool(c_out or s_out)

    def _step_handshake(self) -> bool:
        if self._abandon is not None:
            return self._step_abandon()
        progressed = self._exchange()
        if self.server.handshake_complete and self.client.handshake_complete:
            self.phase = _Transaction.REQUESTS
            self._result.handshake_latencies.append(
                self._server_prof.seconds() - self._hs_start)
            if self.server.resumed:
                self._result.resumed_handshakes += 1
            return True
        return progressed

    def _step_abandon(self) -> bool:
        """Handshake flood: the client walks away mid-handshake.

        ``"hello"`` delivers the ClientHello and lets the server build
        (and queue on the wire) its full response flight -- certificate
        serialization and all -- before the socket dies.  ``"mid_kx"``
        additionally feeds that flight to the client and delivers *only
        the first record* of the client's second flight -- the
        ClientKeyExchange, cut at the record boundary -- so the server
        pays the Table 2 RSA decrypt but never sees CCS/Finished.  The
        burned work stays charged to the server profile; nothing is
        stored in the session cache or the client pool.
        """
        self._abandon_step += 1
        if self._abandon_step == 1:
            with perf.activate(self._sim._client_sink):
                c_out = self.client.pending_output()
            with perf.activate(self._server_prof):
                self.server.receive(c_out)
                if self._abandon == "hello":
                    # The response flight hits the wire before the
                    # server notices the peer is gone.
                    self.server.pending_output()
            if self._abandon == "hello":
                return self._abandon_now()
            return True
        with perf.activate(self._server_prof):
            s_out = self.server.pending_output()
        with perf.activate(self._sim._client_sink):
            self.client.receive(s_out)
            c_out = self.client.pending_output()
        with perf.activate(self._server_prof):
            self.server.receive(_first_record(c_out))
        return self._abandon_now()

    def _abandon_now(self) -> bool:
        self._result.handshakes_abandoned += 1
        self._result.requests_abandoned += len(self._requests)
        self._requests.clear()
        self._account_wire()
        self.phase = _Transaction.DONE
        return True

    def _step_request(self) -> bool:
        if not self._requests:
            if self._renegs_left > 0:
                # Renegotiation storm: force another full handshake on
                # the established connection (no session offered, so the
                # server burns a fresh RSA decrypt each time).
                self._renegs_left -= 1
                self._hs_start = self._server_prof.seconds()
                with perf.activate(self._sim._client_sink):
                    self.client.renegotiate()
                self.phase = _Transaction.HANDSHAKE
                return True
            self.phase = _Transaction.CLOSING
            return True
        request = self._requests[0]
        with perf.activate(self._sim._client_sink):
            self.client.write(build_request(request.path))
            wire = self.client.pending_output()
        with perf.activate(self._server_prof):
            self.server.receive(wire)
            worker = ApacheWorker(self._sim._costs, request.size_bytes)
            response = worker.handle(self.server.read())
            self.server.write(response)
            wire = self.server.pending_output()
        with perf.activate(self._sim._client_sink):
            self.client.receive(wire)
            status, body = parse_response(self.client.read())
        self._requests.popleft()
        if status.startswith("HTTP/1.1 200"):
            self._result.requests_completed += 1
            self._result.bytes_served += len(body)
        else:
            self._result.failures += 1
        return True

    def _step_close(self) -> bool:
        with perf.activate(self._sim._client_sink):
            self.client.close()
            wire = self.client.pending_output()
        with perf.activate(self._server_prof):
            self.server.receive(wire)
            self.server.close()
        self._sim._client_sessions.store(self._client_key,
                                         self.client.session)
        self._account_wire()
        self.phase = _Transaction.DONE
        return True


class WebServerSimulator:
    """Drives HTTPS transactions through the full stack."""

    def __init__(self, *, suite: CipherSuite = DEFAULT_SUITE,
                 key: Optional[RsaPrivateKey] = None,
                 cert: Optional[Certificate] = None,
                 costs: SystemCostModel = DEFAULT_COSTS,
                 use_crt: bool = False,
                 version: int = 0x0300,
                 seed: bytes = b"webserver",
                 key_set: Optional[BatchRsaKeySet] = None,
                 batch_size: Optional[int] = None,
                 batch_timeout: int = 8,
                 session_cache: Optional[SessionCache] = None,
                 session_lifetime: float = 300.0,
                 engines: Optional[OffloadConfig] = None,
                 tickets: Optional[TicketKeyRing] = None,
                 client_pool_capacity: int = 64,
                 client_suites: Optional[Sequence[CipherSuite]] = None):
        """``use_crt`` defaults to False: the paper's handshake
        measurements (Tables 1-3) are consistent with a non-CRT private
        operation; see DESIGN.md.  ``version`` is the protocol the
        simulated curl client offers (SSLv3, the paper's setup, or TLS
        1.0).  ``key_set`` switches the server to batch RSA: connections
        are assigned member keys round-robin and their ClientKeyExchange
        decrypts amortize through one shared
        :class:`~repro.ssl.server.HandshakeBatcher`.  ``session_cache``
        injects an externally owned cache (the farm's shared topology
        hands one cache to every worker); by default each simulator owns a
        private one.  ``session_lifetime`` bounds minted sessions in
        virtual seconds -- lookups check it against the server profiler's
        :meth:`~repro.perf.Profiler.seconds` clock.  ``engines`` attaches
        a crypto-engine pool (:class:`repro.engines.OffloadConfig`): every
        server connection offloads record crypto and RSA decrypts to it,
        falling back to software when the pool is saturated.  ``tickets``
        attaches a :class:`~repro.ssl.ticket.TicketKeyRing`: servers mint
        stateless session tickets, clients advertise support and offer
        stored tickets, and the id cache stays empty.
        ``client_pool_capacity`` bounds the LRU
        :class:`~repro.webserver.clientpool.ClientPool` of per-client
        resumable sessions -- total retained client state is O(capacity)
        no matter how many distinct clients the workload draws.
        ``client_suites`` is the ClientHello offer list (default: just
        ``suite``); offering more than one suite is what gives a
        server-side :class:`~repro.webserver.overload.SuitePolicy` a
        cheaper suite to downgrade to."""
        if key is None or cert is None:
            key, cert = make_server_identity(1024, seed=seed + b"-identity")
        key.use_crt = use_crt
        self._suite = suite
        self._client_suites = (tuple(client_suites) if client_suites
                               else (suite,))
        self._costs = costs
        self._version = version
        self._seed = seed
        self._session_cache = (session_cache if session_cache is not None
                               else SessionCache())
        self._session_lifetime = session_lifetime
        self._tickets = tickets
        self._client_sessions = ClientPool(client_pool_capacity)
        self._batcher: Optional[HandshakeBatcher] = None
        self._identities: List[tuple] = [(key, cert)]
        if key_set is not None:
            for member in key_set.members:
                member.use_crt = use_crt
            self._batcher = HandshakeBatcher(key_set, batch_size=batch_size,
                                             timeout_ticks=batch_timeout)
            self._identities = [
                (member, make_self_signed(f"CN=repro-batch-{i}", member))
                for i, member in enumerate(key_set.members)]
        self._next_identity = 0
        self._engines = OffloadPool(engines) if engines is not None else None
        # The client machine's charges: measurements are server-side.  A
        # step never leaves a client region open, so every transaction
        # shares this one sink.
        self._client_sink = perf.Discard()

    def _next_server_identity(self) -> tuple:
        """Round-robin (key, cert) assignment across batch members."""
        identity = self._identities[self._next_identity
                                    % len(self._identities)]
        self._next_identity += 1
        return identity

    # -- the experiment ------------------------------------------------------------
    def run(self, workload: RequestWorkload, nrequests: int,
            requests_per_connection: int = 1,
            concurrency: int = 1) -> SimulationResult:
        """Process ``nrequests`` transactions; returns server-side results.

        ``requests_per_connection > 1`` enables HTTP keep-alive: the
        paper's per-request full handshake (Table 1) corresponds to 1;
        long B2B-style sessions amortize the handshake across many
        requests.  ``concurrency > 1`` keeps that many transactions in
        flight simultaneously (required for batch RSA: handshakes must
        overlap for the batch queue to fill).  No connection is admitted
        before its :attr:`~repro.webserver.workload.Request.arrival_round`:
        the run is the one-worker case of the farm's round loop
        (:func:`_run_rounds`) behind a policy-free accept queue, whose
        counters the result carries.  Handshake failures are counted in
        :attr:`SimulationResult.failures`, not raised; a result whose
        requests do not add up raises (:meth:`RunCounters.check`).
        """
        if requests_per_connection < 1:
            raise ValueError("requests_per_connection must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        state = _WorkerState(0, self)
        # The grouper pulls the request stream lazily, but a policy-free
        # accept queue backlogs every connection that has arrived: a
        # stream whose requests all arrive at round 0 is held in full.
        queue = AcceptQueue(connection_groups(workload.requests(nrequests),
                                              requests_per_connection))

        def admit(queue: AcceptQueue, txn_id: int) -> int:
            while len(state.sched) < concurrency and queue.head() is not None:
                txn = _admit_transaction(self, txn_id, queue.pop(),
                                         state.profiler, state.result)
                txn_id += 1
                if txn is not None:
                    state.sched.add(txn)
            return txn_id

        _run_rounds(queue, [state], admit)
        result = state.finish()
        result.merge(queue.counters)
        result.check()
        return result


class _WorkerState:
    """Run-time bookkeeping for one worker replica: its virtual clock,
    result and scheduler."""

    __slots__ = ("index", "sim", "profiler", "result", "sched",
                 "_batch_mark")

    def __init__(self, index: int, sim: WebServerSimulator):
        batcher = sim._batcher
        self.index = index
        self.sim = sim
        self.profiler = perf.Profiler()
        self.result = SimulationResult(profiler=self.profiler)
        self.sched = TxnScheduler(batcher)
        #: The batcher's lifetime counters -- batch-size histogram and
        #: ops submitted -- before this run.
        self._batch_mark: Tuple[Dict[int, int], int] = (
            (dict(batcher.batches), batcher.ops_submitted)
            if batcher is not None else ({}, 0))

    def finish(self) -> SimulationResult:
        """Fold the run's scheduler stats, batch counts and engine
        snapshot into the result, and return it."""
        result = self.result
        result.scheduler = self.sched.stats()
        batcher = self.sim._batcher
        if batcher is not None:
            if len(batcher):
                raise RuntimeError(
                    f"run ended with {len(batcher)} decrypt(s) still "
                    "queued in the batcher")
            # The batcher outlives a run and its counters cover its
            # whole life: report only this run's flushes and ops.
            sizes, ops = self._batch_mark
            result.batches = {size: count - sizes.get(size, 0)
                              for size, count in batcher.batches.items()
                              if count > sizes.get(size, 0)}
            result.batched_ops = batcher.ops_submitted - ops
        if self.sim._engines is not None:
            result.offload = self.sim._engines.snapshot(self.profiler.now())
        return result


def _next_round_target(queue: AcceptQueue,
                       worker_events: List[Optional[int]]) -> int:
    """The next round the round loop must execute, given each worker's
    next-event round (``None`` = nothing live and nothing queued).

    The candidates, each an upper bound on how far the clock may jump:

    * every worker's own next event (``round + 1`` while it has a live
      transaction or a queued decrypt);
    * ``round + 1`` while the accept backlog is nonempty -- admission
      retries, deadline pruning and wait counters are per-round
      observable there, so no skipping;
    * the next arrival's release round (never before ``round + 1``).

    With no candidate at all the loop is about to terminate; ``round +
    1`` keeps the clock sane.
    """
    candidates = [ev for ev in worker_events if ev is not None]
    if queue.depth() > 0:
        candidates.append(queue.round + 1)
    arrival = queue.next_arrival_round()
    if arrival is not None:
        candidates.append(max(queue.round + 1, arrival))
    return min(candidates) if candidates else queue.round + 1


def _run_rounds(queue: AcceptQueue, states: Sequence[_WorkerState],
                admit: Callable[[AcceptQueue, int], int],
                on_done: Optional[Callable[[_Transaction], None]] = None,
                ) -> None:
    """The round loop of every run, one worker or many.

    Each executed round starts the accept queue's round, which releases
    that round's arrivals.  ``admit(queue, txn_id)`` then moves
    backlogged connections into worker schedulers and returns the next
    transaction id (ids double as the per-connection rng tags: reusing
    one seed across connections would let a fresh server re-mint the
    very session id it just declined).  Then every worker, in index
    order, runs one round: step its live transactions, retire done ones
    (``on_done`` sees each), tick/flush its batch clock.  The clock then
    moves to the next round; it jumps only an idle arrival gap, in which
    no worker has anything live or queued.  The run ends when nothing
    is backlogged or yet to arrive and every worker's next event is
    ``None``: a decrypt queued by an abandoned handshake still gets its
    round and is flushed into this run.
    """
    txn_id = 0
    target = 0
    events: List[Optional[int]] = []
    while queue or any(ev is not None for ev in events):
        ticks = target - queue.round
        queue.begin_round(target)
        txn_id = admit(queue, txn_id)
        for state in states:
            # Sessions stored during this worker's round were minted by
            # it (the farm's cross-worker resumption accounting).
            state.sim._client_sessions.current_worker = state.index
            state.sched.run_round(ticks, state.profiler, on_done=on_done)
        events = [s.sched.next_event_round(queue.round) for s in states]
        target = _next_round_target(queue, events)


def run_experiment(file_size_bytes: int, nrequests: int = 3, *,
                   suite: CipherSuite = DEFAULT_SUITE,
                   use_crt: bool = False,
                   resumption_rate: float = 0.0,
                   key: Optional[RsaPrivateKey] = None,
                   cert: Optional[Certificate] = None,
                   ) -> SimulationResult:
    """Convenience wrapper: fixed-size workload, fresh simulator."""
    sim = WebServerSimulator(suite=suite, use_crt=use_crt, key=key,
                             cert=cert)
    workload = RequestWorkload.fixed(file_size_bytes,
                                     resumption_rate=resumption_rate)
    return sim.run(workload, nrequests)
