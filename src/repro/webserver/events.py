"""Discrete-event scheduler core for the simulator and farm round loop.

The round loop (``repro.webserver.simulator._run_rounds``, which
``WebServerSimulator.run`` drives with one worker and
``ServerFarm.run`` with N) steps each worker's transactions through a
:class:`TxnScheduler`: an event heap keyed
``(wake_round, admission_order)``, so one round costs O(runnable + log
heap) rather than O(active).  The scheduler also tells its driver the
round of the *next* event, so rounds in which nothing is runnable (the
idle arrival gaps an :class:`~repro.webserver.overload.
AdversarialWorkload` produces by construction) are skipped outright:
the virtual round clock jumps (see ``next_event_round``).

**The reference schedule.**  The committed golden baselines were
recorded under a loop that stepped *every* in-flight transaction every
round -- parked ones and idle rounds included.  The heap reproduces that
schedule exactly -- same step order, same round numbering, same batcher
tick/flush placement, same stalled-straggler accounting -- because of
three facts about it:

* **no-op steps are free.**  A transaction whose ``step()`` returned
  ``False`` is waiting on a batch flush; until one happens, re-stepping
  it relays empty buffers -- no modeled charges, no state change
  (``SslConnection.pending_output`` on an empty buffer is
  side-effect-free).  Parking it instead of re-stepping it is therefore
  invisible in every modeled number.
* **only a flush wakes a parked transaction.**  Within one round, a
  flush triggered mid-step (``SslServer._after_receive`` on a full
  batch) un-parks transactions *after* the current one in admission
  order this round and the rest next round -- exactly the order a full
  sweep would have reached them.  The scheduler watches
  :attr:`~repro.ssl.server.HandshakeBatcher.flushes` to reproduce this.
* **heap order is sweep order.**  Runnable transactions pop in
  ``(wake_round, admission_order)`` order; every wake pushed during
  round ``r`` is ``(r, .)`` or ``(r + 1, .)``, so within a round the
  pops are exactly the admission-order sweep of the runnable subset.

**The round-skip rule.**  A round may be skipped only when executing it
would provably be a no-op for every party: no heap entry wakes in it,
the batch queue is empty (a non-empty queue flushes next round -- by
deadline tick or by the loop's not-progressed flush -- so the next
event is always ``round + 1``), and the driver guarantees no admission
can happen in it (a nonempty accept backlog, or the next
:class:`~repro.webserver.overload.AcceptQueue` arrival release, each
caps the jump).  Skipped rounds still advance the batch clock
(``tick(ticks)``) and the straggler counter (``stalled += ticks``),
because the reference schedule's no-op rounds did.  When in doubt the
driver executes the round: executing a no-op round is always
bit-identical, only *skipping* is the optimization.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from .. import perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ssl.server import HandshakeBatcher
    from .simulator import _Transaction

#: Consecutive no-progress rounds tolerated before the stragglers are
#: failed (``stalled > STALL_LIMIT``).
STALL_LIMIT = 4


class TxnScheduler:
    """Event-heap transaction scheduler for one worker's round loop.

    Each live transaction is either *runnable* -- it has exactly one
    entry ``(wake_round, admission_order)`` in the heap -- or *parked*
    (waiting on a batch flush) with no heap entry at all.  ``run_round``
    pops and steps this round's runnable transactions in admission
    order, reproduces the reference batcher tick/flush placement, and
    maintains the stalled-straggler counter; ``next_event_round`` tells
    the driver the earliest future round that can differ from a no-op.

    Transactions are keyed by a per-scheduler admission counter; the
    key doubles as the O(1) completion-removal handle.
    """

    def __init__(self, batcher: Optional["HandshakeBatcher"] = None):
        self.batcher = batcher
        self._txns: Dict[int, "_Transaction"] = {}  # admission order -> txn
        self._heap: List[Tuple[int, int]] = []      # (wake_round, order)
        self._parked: Set[int] = set()
        self._next_order = 0
        self.stalled = 0
        # -- scheduler-work counters (diagnostics; never in signatures) --
        #: Transactions actually stepped.
        self.touched = 0
        #: Rounds this scheduler executed.
        self.rounds_executed = 0
        #: Rounds the virtual clock covered (executed + skipped).
        self.rounds_virtual = 0

    # -- membership -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._txns)

    def __bool__(self) -> bool:
        return bool(self._txns)

    def add(self, txn: "_Transaction", round_no: int) -> None:
        """Admit a transaction, runnable in ``round_no`` (its admission
        round -- new admissions step the same round)."""
        order = self._next_order
        self._next_order += 1
        self._txns[order] = txn
        heapq.heappush(self._heap, (round_no, order))

    def clear(self) -> None:
        self._txns.clear()
        self._parked.clear()
        self._heap.clear()

    def stats(self) -> Dict[str, int]:
        """Scheduler-work snapshot for diagnostics."""
        return {"touched": self.touched,
                "rounds_executed": self.rounds_executed,
                "rounds_virtual": self.rounds_virtual}

    # -- wake bookkeeping -----------------------------------------------------
    def _wake_parked(self, round_no: int, after_order: int = -1) -> None:
        """Un-park everything after a flush.  Orders past ``after_order``
        (the transaction being stepped when a mid-step flush fired) wake
        *this* round -- a full sweep would still reach them -- and the
        rest wake next round."""
        for order in self._parked:
            wake = round_no if order > after_order else round_no + 1
            heapq.heappush(self._heap, (wake, order))
        self._parked.clear()

    # -- one scheduling round -------------------------------------------------
    def run_round(self, round_no: int, ticks: int,
                  profiler: perf.Profiler,
                  on_done: Optional[Callable[["_Transaction"], None]] = None,
                  ) -> bool:
        """Execute round ``round_no``; ``ticks`` is how far the virtual
        clock advanced since the last executed round (1 = consecutive;
        more = skipped no-op rounds, all provably progress-free).

        ``on_done`` fires for each transaction retiring through its own
        completion (the farm's cross-resumption accounting) -- not for
        stragglers failed by the stall limit.  Returns whether anything
        progressed (a step or a batch flush).
        """
        self.rounds_executed += 1
        self.rounds_virtual += ticks
        batcher = self.batcher
        flushes = batcher.flushes if batcher is not None else 0
        progressed = False
        heap = self._heap
        while heap and heap[0][0] <= round_no:
            _, order = heapq.heappop(heap)
            txn = self._txns[order]
            self.touched += 1
            stepped = txn.step()
            if stepped:
                progressed = True
            if txn.done:
                del self._txns[order]
                if on_done is not None:
                    on_done(txn)
            elif stepped:
                heapq.heappush(heap, (round_no + 1, order))
            else:
                # Waiting on a batch flush; off the heap until one.
                self._parked.add(order)
            if batcher is not None and batcher.flushes != flushes:
                # A mid-step flush (a full batch formed inside this
                # step's receive) resumed suspended handshakes.
                flushes = batcher.flushes
                self._wake_parked(round_no, after_order=order)
        if batcher is not None:
            with perf.activate(profiler):
                batcher.tick(ticks)
                if not progressed and len(batcher):
                    batcher.flush()
                    progressed = True
            if batcher.flushes != flushes:
                # Deadline-tick or not-progressed flush: every still-
                # parked transaction steps productively next round.
                self._wake_parked(round_no + 1)
        if progressed:
            self.stalled = 0
            return True
        self.stalled += ticks
        if self.stalled > STALL_LIMIT:
            # Nothing is moving and nothing is queued: give up on the
            # stragglers instead of spinning forever.
            for txn in self._txns.values():
                txn._fail()
            self.clear()
        return False

    # -- the driver's skip decision -------------------------------------------
    def next_event_round(self, round_no: int) -> Optional[int]:
        """Earliest future round in which this scheduler can do real
        work, or ``None`` with no live transactions.  ``round_no`` is
        the round just executed.

        Every heap entry pushed during round ``r`` wakes by ``r + 1``,
        and a non-empty batch queue forces a flush in ``r + 1`` (either
        its deadline tick fires, or the not-progressed flush does), so
        the only multi-round jump a live scheduler offers is the
        straggler countdown: all transactions parked, batch queue empty,
        nothing left but ``stalled`` ticking up to the fail round.
        """
        if self.batcher is not None and len(self.batcher):
            # A queued continuation can outlive its transaction (a
            # mid-handshake abandon retires the transaction, not its
            # submitted decrypt), and the not-progressed flush fires
            # next round even with nothing else live.
            return round_no + 1
        if not self._txns:
            return None
        if self._heap:
            return self._heap[0][0]
        return round_no + max(1, STALL_LIMIT + 1 - self.stalled)
