"""The benchmark's three campaigns, driven through the public API.

Each campaign is a fixed deployment (keys from fixed configuration
seeds, so a workload seed changes the traffic but never the server) plus
a request stream generated by the library's own ``RequestWorkload`` /
``AdversarialWorkload`` from the workload seed.  The stream is
materialized before timing and replayed (:class:`Replay`), so the timed
``run()`` call pays for simulation only, never for request generation.

* ``full_handshake`` -- the paper's Table 1 server (section 3.1): one
  ``WebServerSimulator`` with a 1024-bit non-CRT identity and the default
  SSLv3 DES-CBC3-SHA suite; one closed-loop client (concurrency 1), one
  1 KB request per connection, no resumption.  RSA, per-Montgomery-op
  charging and 3DES dominate; the scheduler, AES, tickets and batch RSA
  never run (this is the sequential per-connection path).
* ``bulk_resume`` -- a 2-worker shared-cache ``ServerFarm``, 1024-bit CRT
  identity, AES128-SHA, 4/16/32 KB documents weighted 1:2:1, four clients
  resuming at rate 0.9, two requests per connection and two connections
  per worker.  AES, SHA-1, CBC, MAC and record sealing dominate; the
  session cache is mostly read; the farm loop is dense.
* ``flash_crowd`` -- a 2-worker shared farm with a 512-bit CRT identity,
  a 4-key batch-RSA set, session tickets, deadline shedding and a
  DES-CBC3-SHA -> RC4-MD5 suite downgrade, under an open-loop
  adversarial stream (Pareto gaps, a x4 flash crowd, handshake floods,
  renegotiation storms).  The only campaign where the scheduler parks
  and skips rounds and where admission, suite policy, tickets, the
  client pool and batch RSA run.

Modeled results are checked, never measured: every repetition's result
counters and cycle totals hash into a :meth:`Campaign.fingerprint`, and
a run's whole signature (:func:`repro.perf.baseline.capture` over the
server profile plus the counters) into a :meth:`Campaign.digest`, which
at the default seed must equal the one pinned in ``digests.json``.
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro import perf
from repro.crypto.batch_rsa import generate_batch_keys
from repro.crypto.rand import PseudoRandom
from repro.perf import Profiler, baseline
from repro.ssl.ciphersuites import AES128_SHA, DES_CBC3_SHA, RC4_MD5
from repro.ssl.loopback import make_server_identity
from repro.ssl.session import SessionCache
from repro.ssl.ticket import TicketKeyRing
from repro.webserver import (
    SHARED, AdversarialWorkload, DeadlineShedPolicy, RequestWorkload,
    ServerFarm, SuitePolicy, WebServerSimulator,
)

class Replay:
    """A materialized request stream, replayed through the only two
    attributes ``WebServerSimulator.run`` and ``ServerFarm.run`` read:
    ``requests()`` and ``adversarial``."""

    def __init__(self, workload: RequestWorkload, count: int):
        self.adversarial = workload.adversarial
        self._requests = tuple(workload.requests(count))

    def __len__(self) -> int:
        return len(self._requests)

    def requests(self, count: int) -> Iterator:
        if count != len(self._requests):
            raise ValueError(f"stream holds {len(self._requests)} requests, "
                             f"run asked for {count}")
        return iter(self._requests)


@dataclass
class Outcome:
    """What one ``run()`` did, in the counters the checks and ratios use."""

    offered: int
    completed: int
    failed: int
    shed: int
    abandoned: int
    resumed: int
    handshakes: int
    cache_hits: int
    cache_misses: int
    tickets_accepted: int
    tickets_rejected: int
    batched_ops: int
    flushes: int
    offered_connections: int
    admitted_connections: int
    #: Everything above plus the modeled extras that enter the digest.
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Built:
    """A constructed server and the session caches its counters live in."""

    server: object
    caches: List[SessionCache]


@contextmanager
def counting_lookups(counter: List[int]) -> Iterator[None]:
    """Count ``SessionCache.get`` calls into ``counter[0]`` -- the
    lookups side of the hits + misses = lookups identity."""
    original = vars(SessionCache)["get"]

    def get(self, *args, **kwargs):
        counter[0] += 1
        return original(self, *args, **kwargs)

    SessionCache.get = get
    try:
        yield
    finally:
        SessionCache.get = original


def _scratch(fn, *args):
    """Run configuration work under a discarded profiler, so it charges
    neither a measured profile nor the process-wide default one."""
    with perf.activate(Profiler()):
        return fn(*args)


def _cache_totals(caches: Sequence[SessionCache]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for cache in caches:
        for k, v in cache.stats().items():
            totals[k] = totals.get(k, 0) + v
    return totals


class Campaign:
    """One named workload: deployment, traffic and the timed call."""

    name = ""
    #: Offered requests per timed ``run()`` call.
    requests = 0

    def __init__(self, requests: Optional[int] = None):
        if requests is not None:
            self.requests = requests

    def keys(self):
        """Keys and identities (``setup.keys_s``)."""
        raise NotImplementedError

    def workload(self, seed: bytes) -> RequestWorkload:
        """The library's generator for one stream."""
        raise NotImplementedError

    def stream(self, seed: int, index: int = 0) -> Replay:
        """Materialized request stream ``index`` of workload ``seed``."""
        return Replay(self.workload(_workload_seed(self.name, seed, index)),
                      self.requests)

    def build(self, keys) -> Built:
        """A fresh server over a private copy of ``keys``: runs mutate
        key state (blinding, Montgomery caches), and every repetition
        must start from the same state to repeat its signature."""
        return _scratch(self._build, copy.deepcopy(keys))

    def _build(self, keys) -> Built:
        raise NotImplementedError

    def run(self, built: Built, stream) -> object:
        raise NotImplementedError

    def outcome(self, built: Built, result) -> Outcome:
        raise NotImplementedError

    def profile(self, result) -> Profiler:
        raise NotImplementedError

    def digest(self, result, out: Outcome) -> str:
        """SHA-256 of the canonical modeled signature of one run: the
        whole profile (region tree, functions, instruction mix) plus the
        result counters."""
        return _sha256(baseline.capture(self.profile(result),
                                        scenario=self.name, extra=out.extra))

    def fingerprint(self, out: Outcome) -> str:
        """SHA-256 of the result counters and cycle totals alone: the
        cheap per-repetition check that traced and untraced runs agree.
        The full signature folds every charge the run made (0.5-1.5 s)."""
        return _sha256(out.extra)


class _SimulatorCampaign(Campaign):
    def outcome(self, built: Built, result) -> Outcome:
        cache = _cache_totals(built.caches)
        out = Outcome(
            offered=self.requests,
            completed=result.requests_completed,
            failed=result.failures,
            shed=0,
            abandoned=result.requests_abandoned,
            resumed=result.resumed_handshakes,
            handshakes=len(result.handshake_latencies),
            cache_hits=cache["hits"], cache_misses=cache["misses"],
            tickets_accepted=result.tickets_accepted,
            tickets_rejected=result.tickets_rejected,
            batched_ops=result.batched_ops,
            flushes=sum(result.batches.values()),
            # No accept queue: every connection is admitted.
            offered_connections=0, admitted_connections=0)
        out.extra = {**_counters(out),
                     "cycles": result.profiler.total_cycles(),
                     "bytes_served": result.bytes_served,
                     "wire_bytes": result.wire_bytes,
                     "renegotiations": result.renegotiations_served,
                     "handshake_latencies": result.handshake_latencies,
                     "cache": cache}
        return out

    def profile(self, result) -> Profiler:
        return result.profiler


class _FarmCampaign(Campaign):
    def outcome(self, built: Built, result) -> Outcome:
        cache = _cache_totals(built.caches)
        out = Outcome(
            offered=self.requests,
            completed=result.requests_completed,
            failed=result.failures,
            shed=result.requests_shed,
            abandoned=result.requests_abandoned,
            resumed=result.resumed_handshakes,
            handshakes=result.completed_handshakes,
            cache_hits=cache["hits"], cache_misses=cache["misses"],
            tickets_accepted=result.tickets_accepted,
            tickets_rejected=result.tickets_rejected,
            batched_ops=result.batched_ops,
            flushes=sum(result.batch_histogram().values()),
            offered_connections=result.offered_connections,
            admitted_connections=(result.offered_connections
                                  - result.connections_shed))
        out.extra = {**_counters(out),
                     "bytes_served": result.bytes_served,
                     "wire_bytes": result.wire_bytes,
                     "renegotiations": result.renegotiations_served,
                     "handshake_latencies": result.handshake_latencies,
                     "per_worker_cycles": [w.cycles
                                           for w in result.worker_stats()],
                     "cross_worker_resumptions":
                         result.cross_worker_resumptions,
                     "downgraded": result.connections_downgraded,
                     "peak_queue_depth": result.peak_queue_depth,
                     "queue_wait_rounds": result.queue_wait_rounds_total,
                     "cache": cache}
        return out

    def profile(self, result) -> Profiler:
        return result.merged_profiler()


def _sha256(value) -> str:
    return hashlib.sha256(baseline.canonical_json(value).encode()).hexdigest()


def _counters(out: Outcome) -> Dict[str, int]:
    return {k: v for k, v in vars(out).items() if k != "extra"}


def _workload_seed(name: str, seed: int, index: int) -> bytes:
    return f"perfbench/{name}/{seed}/{index}".encode()


class FullHandshake(_SimulatorCampaign):
    name = "full_handshake"
    requests = 12

    def keys(self):
        return _scratch(make_server_identity, 1024,
                        b"perfbench/full_handshake/identity")

    def workload(self, seed: bytes) -> RequestWorkload:
        return RequestWorkload.fixed(1024, seed=seed)

    def _build(self, keys) -> Built:
        key, cert = keys
        cache = SessionCache()
        return Built(WebServerSimulator(key=key, cert=cert, use_crt=False,
                                        session_cache=cache), [cache])

    def run(self, built: Built, stream):
        return built.server.run(stream, self.requests)


class BulkResume(_FarmCampaign):
    name = "bulk_resume"
    requests = 48

    def keys(self):
        return _scratch(make_server_identity, 1024,
                        b"perfbench/bulk_resume/identity")

    def workload(self, seed: bytes) -> RequestWorkload:
        return RequestWorkload([(4096, 1), (16384, 2), (32768, 1)],
                               resumption_rate=0.9, clients=4, seed=seed)

    def _build(self, keys) -> Built:
        key, cert = keys
        farm = ServerFarm(2, topology=SHARED, suite=AES128_SHA, key=key,
                          cert=cert, use_crt=True)
        return Built(farm, farm.shard_caches())

    def run(self, built: Built, stream):
        return built.server.run(stream, self.requests,
                                requests_per_connection=2,
                                concurrency_per_worker=2)


class FlashCrowd(_FarmCampaign):
    name = "flash_crowd"
    requests = 200

    def keys(self):
        def make():
            identity = make_server_identity(
                512, seed=b"perfbench/flash_crowd/identity")
            key_set = generate_batch_keys(
                512, 4, rng=PseudoRandom(b"perfbench/flash_crowd/batch"))
            return identity, key_set
        return _scratch(make)

    def workload(self, seed: bytes) -> RequestWorkload:
        return AdversarialWorkload.fixed(
            1024, resumption_rate=0.5, clients=48, seed=seed,
            mean_gap_rounds=1.0,
            flash=(40, 4.0), flood_rate=0.2, reneg_rate=0.1)

    def _build(self, keys) -> Built:
        (key, cert), key_set = keys
        farm = ServerFarm(
            2, topology=SHARED, key=key, cert=cert, use_crt=True,
            key_set=key_set, tickets=TicketKeyRing(
                b"perfbench/flash_crowd/tickets"),
            admission=DeadlineShedPolicy(max_queue=6, deadline_rounds=6),
            suite_policy=SuitePolicy(primary=DES_CBC3_SHA,
                                     downgrade=RC4_MD5, queue_high=3),
            client_suites=(DES_CBC3_SHA, RC4_MD5))
        return Built(farm, farm.shard_caches())

    def run(self, built: Built, stream):
        return built.server.run(stream, self.requests,
                                concurrency_per_worker=6)


CAMPAIGNS: Dict[str, type] = {
    c.name: c for c in (FullHandshake, BulkResume, FlashCrowd)}


def identity_problems(out: Outcome, lookups: int) -> List[str]:
    """The accounting identities every run must satisfy, on any seed."""
    problems = []
    ended = out.completed + out.failed + out.shed + out.abandoned
    if ended != out.offered:
        problems.append(f"completed {out.completed} + failed {out.failed} "
                        f"+ shed {out.shed} + abandoned {out.abandoned} "
                        f"!= offered {out.offered}")
    if out.cache_hits + out.cache_misses != lookups:
        problems.append(f"cache hits {out.cache_hits} + misses "
                        f"{out.cache_misses} != lookups {lookups}")
    return problems
