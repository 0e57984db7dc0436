"""Round scheduler for the simulator and farm round loop.

The round loop (``repro.webserver.simulator._run_rounds``, which
``WebServerSimulator.run`` drives with one worker and
``ServerFarm.run`` with N) steps each worker's transactions through a
:class:`TxnScheduler`.  Each executed round is a sweep: every live
transaction steps once, in admission order, and the finished ones
retire.  Then the batcher ticks, flushing if its deadline passed or if
nothing progressed.  That is the schedule every committed golden
baseline was recorded under.

A transaction whose ``step()`` returns ``False`` is waiting on a batch
flush (batch RSA, :class:`~repro.ssl.server.HandshakeBatcher`).  Until
one happens, stepping it relays empty buffers: no modeled charge and
no state change.  A flush that fires inside a step (a full batch
formed in ``SslServer._after_receive``) resumes every waiter; those
after the flushing transaction progress in this round's sweep, those
before it in the next.

**The one skip.**  With no live transaction and an empty batch queue,
nothing can happen until the next admission, so ``next_event_round``
returns ``None`` and the round loop jumps the clock to the next
arrival.  These are the idle arrival gaps an
:class:`~repro.webserver.overload.AdversarialWorkload` produces by
construction.  The round after a jump still ticks the batch clock and
the stalled counter by the whole distance (``ticks``), as executing the
skipped no-op rounds would have.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .. import perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ssl.server import HandshakeBatcher
    from .simulator import _Transaction

#: Consecutive no-progress rounds tolerated before the stragglers are
#: failed (``stalled > STALL_LIMIT``).
STALL_LIMIT = 4


class TxnScheduler:
    """Sweep scheduler for one worker's round loop.

    ``run_round`` steps every live transaction in admission order, then
    ticks and flushes the batcher and keeps the stalled-straggler
    counter; ``next_event_round`` tells the round loop whether the next
    round must execute.
    """

    def __init__(self, batcher: Optional["HandshakeBatcher"] = None):
        self.batcher = batcher
        self._txns: List["_Transaction"] = []  # live, in admission order
        self.stalled = 0
        # -- scheduler-work counters (diagnostics; never in signatures) --
        #: Transactions stepped: every live one in each executed round.
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

    def add(self, txn: "_Transaction") -> None:
        """Admit a transaction; it steps from this round on, after every
        transaction admitted before it."""
        self._txns.append(txn)

    def clear(self) -> None:
        self._txns = []

    def stats(self) -> Dict[str, int]:
        """Scheduler-work snapshot for diagnostics."""
        return {"touched": self.touched,
                "rounds_executed": self.rounds_executed,
                "rounds_virtual": self.rounds_virtual}

    # -- one scheduling round -------------------------------------------------
    def run_round(self, ticks: int, profiler: perf.Profiler,
                  on_done: Optional[Callable[["_Transaction"], None]] = None,
                  ) -> bool:
        """Execute one round; ``ticks`` is how far the virtual clock
        advanced since the last executed round (1 = consecutive; more =
        an idle arrival gap skipped).

        ``on_done`` fires for each transaction retiring through its own
        completion (the farm's cross-resumption accounting) -- not for
        stragglers failed by the stall limit.  Returns whether anything
        progressed (a step or a batch flush).
        """
        self.rounds_executed += 1
        self.rounds_virtual += ticks
        self.touched += len(self._txns)
        progressed = False
        live = []
        for txn in self._txns:
            if txn.step():
                progressed = True
            if not txn.done:
                live.append(txn)
            elif on_done is not None:
                on_done(txn)
        self._txns = live
        batcher = self.batcher
        if batcher is not None:
            with perf.activate(profiler):
                batcher.tick(ticks)
                if not progressed and len(batcher):
                    batcher.flush()
                    progressed = True
        if progressed:
            self.stalled = 0
            return True
        self.stalled += ticks
        if self.stalled > STALL_LIMIT:
            # Nothing is moving and nothing is queued: give up on the
            # stragglers instead of spinning forever.
            for txn in self._txns:
                txn._fail()
            self.clear()
        return False

    # -- the round loop's skip decision ---------------------------------------
    def next_event_round(self, round_no: int) -> Optional[int]:
        """``round_no + 1`` while a transaction is live or a decrypt is
        queued, else ``None``.  ``round_no`` is the round just executed.

        A queued decrypt can outlive its transaction (a mid-handshake
        abandon retires the transaction, not its submitted decrypt); the
        next executed round flushes it even with nothing else live.
        """
        if self._txns or (self.batcher is not None and len(self.batcher)):
            return round_no + 1
        return None
