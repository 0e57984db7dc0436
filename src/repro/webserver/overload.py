"""Overload anatomy: adversarial traffic, admission control and
cipher-suite downgrade for the server farm.

The paper characterizes SSL processing cost at steady state; this module
is what a production deployment does with those numbers when offered load
exceeds capacity.  Three pieces:

* :class:`AdversarialWorkload` -- a streaming, seeded traffic generator
  layered on :class:`~repro.webserver.workload.RequestWorkload`:
  heavy-tailed (Pareto-shaped) bursty arrivals, flash-crowd ramps,
  handshake-flood clients that abandon after the ClientHello or
  mid-key-exchange (the server burns the Table 2 RSA decrypt, the
  client never finishes), and renegotiation storms.  Every draw comes
  from the workload's own :class:`~repro.crypto.rand.PseudoRandom`
  stream, so runs are deterministic and perfgate-signable.

* :class:`AdmissionPolicy` and the :class:`AcceptQueue` -- a
  round-structured accept queue in front of the farm's load balancer.
  Connections arrive in their :attr:`~repro.webserver.workload.Request.
  arrival_round`; the policy decides, at arrival and at each round
  boundary, which of them ever reach a worker: :class:`DropTailPolicy`
  (bounded backlog), :class:`DeadlineShedPolicy` (bounded backlog plus
  queue-wait deadline), :class:`ResumptionPreferredPolicy` (a full
  backlog evicts the youngest full-handshake connection in favour of a
  resuming client -- resumption is ~10x cheaper, Table 2 vs the
  abbreviated handshake).

* :class:`SuitePolicy` -- the cipher-suite downgrade engine.  Under
  measured pressure (accept-queue depth) the ServerHello preference
  order is flipped toward the cheap suite; the decision table is the
  repo's *own* modeled kernel costs (:func:`suite_cost_per_kb`, the
  Table 11/12 record-path kernels), so the downgrade payoff is exactly
  the paper's RC4/MD5-vs-3DES/SHA cost ratio, not a magic constant.

Everything here is pure policy + bookkeeping: no modeled cycles are
charged by this module, which is why a policy-off run remains
bit-identical to the pre-overload farm.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..ssl.ciphersuites import CipherSuite, DEFAULT_SUITE, RC4_MD5
from .workload import Request, RequestWorkload, _DRAW_SPAN

#: ``Request.abandon`` markers for the two handshake-flood behaviours.
ABANDON_HELLO = "hello"
ABANDON_MID_KX = "mid_kx"
ABANDON_MODES = (ABANDON_HELLO, ABANDON_MID_KX)


# ---------------------------------------------------------------------------
# Adversarial workload
# ---------------------------------------------------------------------------

class AdversarialWorkload(RequestWorkload):
    """A hostile request stream: bursty arrivals, floods, reneg storms.

    ``mean_gap_rounds`` sets the mean inter-arrival gap in scheduling
    rounds; gaps are drawn from a Pareto(alpha=2)-shaped distribution
    (many zero gaps -- bursts -- plus a heavy tail of lulls), computed
    via ``sqrt`` only so draws are bit-identical across platforms.
    ``flash=(round, factor)`` multiplies the arrival *rate* by ``factor``
    once the stream reaches ``round`` -- a flash crowd ramp.
    ``flood_rate`` is the fraction of connections that are handshake
    floods; ``flood_mode`` picks their behaviour (``"hello"``,
    ``"mid_kx"`` or ``"mix"`` for a per-flood 50/50 draw).
    ``reneg_rate``/``reneg_storm``: fraction of completing connections
    that force ``reneg_storm`` full renegotiation handshakes before
    closing.

    Per-request draw order is fixed (size, resumption, client, gap,
    flood, reneg) so a given seed + configuration always produces the
    same stream.
    """

    def __init__(self, size_mix: Sequence[Tuple[int, float]],
                 resumption_rate: float = 0.0,
                 seed: bytes = b"overload",
                 clients: Optional[int] = None, *,
                 mean_gap_rounds: float = 1.0,
                 flash: Optional[Tuple[int, float]] = None,
                 flood_rate: float = 0.0,
                 flood_mode: str = "mix",
                 reneg_rate: float = 0.0,
                 reneg_storm: int = 2):
        super().__init__(size_mix, resumption_rate, seed, clients=clients)
        if mean_gap_rounds < 0.0:
            raise ValueError("mean_gap_rounds must be non-negative")
        if not 0.0 <= flood_rate <= 1.0:
            raise ValueError("flood_rate must be in [0, 1]")
        if not 0.0 <= reneg_rate <= 1.0:
            raise ValueError("reneg_rate must be in [0, 1]")
        if flood_mode != "mix" and flood_mode not in ABANDON_MODES:
            raise ValueError(f"unknown flood_mode {flood_mode!r}")
        if reneg_storm < 0:
            raise ValueError("reneg_storm must be non-negative")
        if flash is not None and (flash[0] < 0 or flash[1] <= 0.0):
            raise ValueError("flash must be (round >= 0, factor > 0)")
        self._mean_gap = float(mean_gap_rounds)
        self._flash = flash
        self._flood_rate = flood_rate
        self._flood_mode = flood_mode
        self._reneg_rate = reneg_rate
        self._reneg_storm = reneg_storm

    @classmethod
    def fixed(cls, size_bytes: int, resumption_rate: float = 0.0,
              seed: bytes = b"overload", clients: Optional[int] = None,
              **kwargs) -> "AdversarialWorkload":
        """Fixed file size, adversarial keyword knobs passed through."""
        return cls([(size_bytes, 1.0)], resumption_rate, seed,
                   clients=clients, **kwargs)

    @property
    def adversarial(self) -> bool:
        """Whether this configuration can stamp abandons or
        renegotiation storms on its stream.  Pure bursty arrivals
        (``flood_rate == reneg_rate == 0``) are not adversarial in this
        sense -- every connection still completes normally, exactly the
        distinction the old ``any()`` scan over the materialized groups
        drew per stream."""
        return self._flood_rate > 0.0 or self._reneg_rate > 0.0

    def _next_gap(self, at_round: int) -> int:
        """Pareto(alpha=2)-shaped inter-arrival gap, in whole rounds.

        With scale ``s`` the gap is ``floor(s * (1/sqrt(u) - 1))`` for a
        uniform ``u`` in (0, 1]; its mean is ``s``.  A flash crowd
        divides the scale (rate *= factor) once ``at_round`` passes the
        ramp point.  ``math.sqrt`` is correctly rounded per IEEE-754, so
        the draw is platform-stable (no ``pow`` with fractional
        exponents).
        """
        if self._mean_gap <= 0.0:
            return 0
        scale = self._mean_gap
        if self._flash is not None and at_round >= self._flash[0]:
            scale /= self._flash[1]
        u = (self._rng.int_below(_DRAW_SPAN) + 1) / _DRAW_SPAN
        return int(scale * (math.sqrt(1.0 / u) - 1.0))

    def requests(self, count: int) -> Iterator[Request]:
        if count < 0:
            raise ValueError("count must be non-negative")
        at_round = 0
        for i in range(count):
            size = self._pick_size()
            resume = (self._resumption_rate > 0.0
                      and self._rng.int_below(_DRAW_SPAN) / _DRAW_SPAN
                      < self._resumption_rate)
            client_id = (self._rng.int_below(self._clients)
                         if self._clients is not None else None)
            at_round += self._next_gap(at_round)
            abandon = None
            if (self._flood_rate > 0.0
                    and self._rng.int_below(_DRAW_SPAN) / _DRAW_SPAN
                    < self._flood_rate):
                if self._flood_mode == "mix":
                    abandon = (ABANDON_MID_KX if self._rng.int_below(2)
                               else ABANDON_HELLO)
                else:
                    abandon = self._flood_mode
                # A flood client never completes a handshake, so it has
                # no session to resume (and nothing to store).
                resume = False
            renegotiations = 0
            if (abandon is None and self._reneg_rate > 0.0
                    and self._rng.int_below(_DRAW_SPAN) / _DRAW_SPAN
                    < self._reneg_rate):
                renegotiations = self._reneg_storm
            yield Request(path=f"/doc-{size}-{i}.html", size_bytes=size,
                          resumable=resume, client_id=client_id,
                          arrival_round=at_round, abandon=abandon,
                          renegotiations=renegotiations)


# ---------------------------------------------------------------------------
# Admission: the accept queue and its shedding policies
# ---------------------------------------------------------------------------

class AcceptQueue:
    """Round-structured accept queue in front of the round loop's
    admission step (the farm's balancer, or the simulator's free slot).

    Connection groups enter at their ``arrival_round`` (normalised to be
    non-decreasing) and wait until admission finds them a free worker
    slot.  An optional :class:`AdmissionPolicy` decides, at arrival and
    at each round boundary, which ever make it that far.
    With no policy and all-zero arrival rounds this degenerates to the
    plain FIFO ``deque`` the farm used before -- the exact admission
    sequence, which is what keeps every pre-overload baseline signature
    unchanged.

    ``groups`` may be any iterable, a *lazy* one included: the queue
    holds a single group of lookahead (the next arrival and its
    normalised release round) and pulls the rest as they arrive, so
    arrivals not yet released never materialize.  Released ones wait in
    the backlog, which only an admission policy bounds: without one, a
    stream whose groups all arrive at round 0 is held in full.
    ``next_arrival_round`` -- the lookahead's release round -- is what
    lets the round loop jump the clock across empty arrival gaps; the
    companion ``begin_round(to_round=...)`` form lands the clock
    directly on a target round.  Skipping is only sound while the
    backlog is empty: policy ``prune`` hooks must be no-ops on an empty
    queue (true of every shipped policy -- they only inspect queued
    entries), which the round loop guarantees by never jumping past
    ``round + 1`` at nonzero depth.
    """

    def __init__(self, groups: Iterable[List[Request]],
                 admission: Optional["AdmissionPolicy"] = None):
        self._pending = iter(groups)
        self._release = 0  # running max: releases are non-decreasing
        self._next: Optional[Tuple[List[Request], int]] = None
        self._advance()
        self._queue: deque = deque()  # (group, round it was queued)
        self.admission = admission
        self.round = -1  # becomes 0 on the first begin_round()
        self.offered_connections = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0
        self.requests_shed = 0
        self.peak_queue_depth = 0
        self.queue_wait_rounds_total = 0

    def _advance(self) -> None:
        """Pull the next arrival into the one-group lookahead."""
        group = next(self._pending, None)
        if group is None:
            self._next = None
            return
        self._release = max(self._release, group[0].arrival_round)
        self._next = (group, self._release)

    # -- bookkeeping the policies call --------------------------------------
    def shed(self, group: List[Request], reason: str) -> None:
        if reason == "deadline":
            self.shed_deadline += 1
        else:
            self.shed_queue_full += 1
        self.requests_shed += len(group)

    @property
    def connections_shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline

    # -- round structure ----------------------------------------------------
    def begin_round(self, to_round: Optional[int] = None) -> None:
        """Advance the round clock: prune stale queue entries, then take
        this round's arrivals through the admission policy.

        ``to_round`` jumps the clock directly to a target round (the
        round loop skipping an idle arrival gap); the caller guarantees
        the skipped rounds were no-ops -- empty backlog, no arrival
        released in them.  The default advances one round.
        """
        if to_round is None:
            self.round += 1
        else:
            if to_round <= self.round:
                raise ValueError("round clock can only move forward")
            self.round = to_round
        if self.admission is not None:
            self.admission.prune(self)
        while self._next is not None and self._next[1] <= self.round:
            group, _ = self._next
            self._advance()
            self.offered_connections += 1
            if self.admission is None or self.admission.admit(self, group):
                self._queue.append((group, self.round))
        if len(self._queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._queue)

    def next_arrival_round(self) -> Optional[int]:
        """Release round of the next pending arrival (``None`` when the
        stream is exhausted) -- how far the round loop may jump the
        round clock across an idle gap."""
        return self._next[1] if self._next is not None else None

    # -- the surface the farm's admission loop uses -------------------------
    def depth(self) -> int:
        return len(self._queue)

    def head(self) -> Optional[List[Request]]:
        return self._queue[0][0] if self._queue else None

    def pop(self) -> List[Request]:
        group, queued_round = self._queue.popleft()
        self.queue_wait_rounds_total += self.round - queued_round
        return group

    def __bool__(self) -> bool:
        return self._next is not None or bool(self._queue)


class AdmissionPolicy:
    """Accept-queue admission: which offered connections ever reach a
    worker.  The base class accepts everything (the pre-overload farm).

    ``admit`` runs once per arriving connection group and returns
    ``True`` to queue it; a policy that sheds must call
    :meth:`AcceptQueue.shed` itself (that is where the offered/shed
    anatomy counters live).  ``prune`` runs at each round boundary
    before new arrivals and may shed already-queued entries (deadline
    shedding).
    """

    name = "accept-all"

    def admit(self, queue: AcceptQueue, group: List[Request]) -> bool:
        return True

    def prune(self, queue: AcceptQueue) -> None:
        return None


class DropTailPolicy(AdmissionPolicy):
    """Classic bounded listen backlog: a full queue drops new arrivals."""

    name = "drop-tail"

    def __init__(self, max_queue: int):
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.max_queue = max_queue

    def admit(self, queue: AcceptQueue, group: List[Request]) -> bool:
        if queue.depth() < self.max_queue:
            return True
        queue.shed(group, "queue-full")
        return False


class DeadlineShedPolicy(DropTailPolicy):
    """Bounded backlog plus a queue-wait deadline: an entry that has
    waited more than ``deadline_rounds`` scheduling rounds is shed at
    the round boundary -- the client would have timed out anyway, so
    serving it would burn a full handshake for an abandoned page."""

    name = "deadline-shed"

    def __init__(self, max_queue: int, deadline_rounds: int):
        super().__init__(max_queue)
        if deadline_rounds < 0:
            raise ValueError("deadline_rounds must be non-negative")
        self.deadline_rounds = deadline_rounds

    def prune(self, queue: AcceptQueue) -> None:
        kept: deque = deque()
        for group, queued_round in queue._queue:
            if queue.round - queued_round > self.deadline_rounds:
                queue.shed(group, "deadline")
            else:
                kept.append((group, queued_round))
        queue._queue = kept


class ResumptionPreferredPolicy(DropTailPolicy):
    """Bounded backlog that prefers resuming clients under overflow.

    An abbreviated handshake skips the RSA decrypt entirely (Table 2's
    dominant cost), so when the backlog is full and a *resuming* client
    arrives, the youngest queued full-handshake connection is evicted in
    its favour; a full-handshake arrival at a full queue is simply
    dropped.  Handshake floods never offer a session, so under pressure
    this policy preferentially sheds exactly the traffic that burns
    server cycles without ever completing.
    """

    name = "resumption-preferred"

    def admit(self, queue: AcceptQueue, group: List[Request]) -> bool:
        if queue.depth() < self.max_queue:
            return True
        if group[0].resumable:
            for i in range(len(queue._queue) - 1, -1, -1):
                queued, _ = queue._queue[i]
                if not queued[0].resumable:
                    del queue._queue[i]
                    queue.shed(queued, "queue-full")
                    return True
        queue.shed(group, "queue-full")
        return False


ADMISSION_POLICIES = {cls.name: cls for cls in
                      (DropTailPolicy, DeadlineShedPolicy,
                       ResumptionPreferredPolicy)}


# ---------------------------------------------------------------------------
# Cipher-suite downgrade engine
# ---------------------------------------------------------------------------

#: (cipher, mac) -> modeled record-path cycles per KiB, measured once.
_SUITE_COST_CACHE: Dict[Tuple[str, str], float] = {}


def suite_cost_per_kb(suite: CipherSuite) -> float:
    """Modeled record-path cost of ``suite`` in cycles per KiB.

    Runs the repo's own Table 11/12 kernels (one 1 KiB bulk encrypt plus
    one 1 KiB MAC digest, each under a private profiler) rather than
    hard-coding the paper's printed numbers -- the downgrade decision
    table is therefore always consistent with whatever the modeled
    kernels actually charge, on either host backend (the fast path is
    bit-identical by contract).  Includes the kernels' key-setup cost,
    which slightly favours stream ciphers exactly as the paper's
    per-connection accounting does.  Cached per (cipher, mac) pair.
    """
    cache_key = (suite.cipher, suite.mac)
    cached = _SUITE_COST_CACHE.get(cache_key)
    if cached is not None:
        return cached
    from ..crypto.bench import measure_cipher, measure_hash
    cost = measure_hash(suite.mac, 1024).cycles
    if suite.cipher != "null":
        cost += measure_cipher(suite.cipher, 1024).cycles
    _SUITE_COST_CACHE[cache_key] = cost
    return cost


@dataclass(frozen=True)
class PressureSignal:
    """What the farm measures at each admission decision."""

    #: Accept-queue depth (connections waiting for a worker slot).
    queue_depth: int
    #: In-flight connections across all workers.
    active: int
    #: Total connection slots (workers x concurrency per worker).
    slots: int
    #: Current scheduling round.
    round: int

    @property
    def utilization(self) -> float:
        return self.active / self.slots if self.slots else 0.0


class SuitePolicy:
    """Steer ServerHello suite selection toward the cheap suite under
    pressure.

    The server picks the first of *its* preference order that the client
    offered, so flipping the order is the entire downgrade mechanism: no
    protocol change, just a different ServerHello.  The decision is made
    once per connection at admission and priced from
    :func:`suite_cost_per_kb` -- for the paper's suites the payoff is the
    Table 11 vs Table 12 ratio, roughly an order of magnitude of
    record-path cycles per byte.
    """

    def __init__(self, primary: CipherSuite = DEFAULT_SUITE,
                 downgrade: CipherSuite = RC4_MD5, *,
                 queue_high: int = 4):
        """``queue_high``: accept-queue depth at or above which the
        downgrade order is served."""
        if primary.suite_id == downgrade.suite_id:
            raise ValueError("primary and downgrade must differ")
        if queue_high < 1:
            raise ValueError("queue_high must be positive")
        self.primary = primary
        self.downgrade = downgrade
        self.queue_high = queue_high

    def payoff_ratio(self) -> float:
        """Record-path cycles/KiB of the primary over the downgrade
        suite -- how much bulk work each downgraded connection saves."""
        return suite_cost_per_kb(self.primary) / suite_cost_per_kb(
            self.downgrade)

    def under_pressure(self, pressure: PressureSignal) -> bool:
        return pressure.queue_depth >= self.queue_high

    def suites_for(self, pressure: PressureSignal,
                   ) -> Tuple[CipherSuite, ...]:
        """Server-side preference order for the next admitted
        connection."""
        if self.under_pressure(pressure):
            return (self.downgrade, self.primary)
        return (self.primary, self.downgrade)
