"""Round scheduler: unit semantics, bit-identity against the committed
golden baselines, and streaming-admission memory bounds.

The contract under test (``repro.webserver.events``): every executed
round steps every live transaction once, in admission order -- waiters
on a batch flush included -- then ticks and flushes the batcher and
fails stragglers that stop progressing; the round clock jumps only idle
arrival gaps, in which nothing is live or queued.
"""

import tracemalloc
from pathlib import Path

import pytest

from repro.crypto import rsa
from repro.perf import baseline
from repro.ssl.loopback import make_server_identity
from repro.webserver import ServerFarm, WebServerSimulator
from repro.webserver.events import STALL_LIMIT, TxnScheduler
from repro.webserver.overload import AcceptQueue, AdversarialWorkload
from repro.webserver.workload import Request, connection_groups
from repro.perf import Profiler


# ---------------------------------------------------------------------------
# Scheduler unit semantics (fake transactions, fake batcher)
# ---------------------------------------------------------------------------

class FakeTxn:
    """Scripted transaction: pops one behaviour per step.

    ``"go"`` progresses, ``"wait"`` reports no progress (a batch wait),
    ``"done"`` progresses and completes.  The step log records the
    global interleaving the scheduler produced.
    """

    def __init__(self, name, script, log):
        self.name = name
        self.script = list(script)
        self.log = log
        self.done = False
        self.failed = False

    def step(self):
        action = self.script.pop(0) if self.script else "go"
        self.log.append((self.name, action))
        if action == "done":
            self.done = True
            return True
        return action != "wait"

    def _fail(self):
        self.failed = True
        self.done = True


class FakeBatcher:
    """Just enough of HandshakeBatcher's surface for the scheduler:
    ``__len__``/``tick``/``flush``, plus ``submit`` to queue a resume
    callback that the next flush calls."""

    def __init__(self):
        self.queue = []
        self.ticks = 0

    def __len__(self):
        return len(self.queue)

    def submit(self, resume):
        self.queue.append(resume)

    def tick(self, ticks=1):
        self.ticks += ticks

    def flush(self):
        queue, self.queue = self.queue, []
        for resume in queue:
            resume()


class WaitingTxn(FakeTxn):
    """Submits a decrypt when built and reports ``"wait"`` (no progress)
    until a batch flush resumes it; then runs its script."""

    def __init__(self, name, script, log, batcher):
        super().__init__(name, script, log)
        self.resumed = False
        batcher.submit(self.resume)

    def resume(self):
        self.resumed = True

    def step(self):
        if not self.resumed:
            self.log.append((self.name, "wait"))
            return False
        return super().step()


def drive(sched, profiler=None, max_rounds=50):
    """Run the scheduler the way the farm does: execute, ask for the
    next event, jump.  Returns the list of executed round numbers."""
    profiler = profiler or Profiler()
    executed = []
    round_no, prev = 0, -1
    while sched and len(executed) < max_rounds:
        sched.run_round(round_no - prev, profiler)
        executed.append(round_no)
        prev = round_no
        nxt = sched.next_event_round(round_no)
        if nxt is None:
            break
        round_no = nxt
    return executed


class TestTxnScheduler:
    def test_admission_order_within_a_round(self):
        log = []
        sched = TxnScheduler()
        for name in ("a", "b", "c"):
            sched.add(FakeTxn(name, ["go", "done"], log))
        drive(sched)
        # Each round sweeps the live set in admission order.
        assert [e[0] for e in log] == ["a", "b", "c", "a", "b", "c"]

    def test_completion_is_constant_time_removal(self):
        log = []
        sched = TxnScheduler()
        done_names = []
        sched.add(FakeTxn("a", ["done"], log))
        sched.add(FakeTxn("b", ["go", "done"], log))
        sched.run_round(1, Profiler(),
                        on_done=lambda t: done_names.append(t.name))
        assert done_names == ["a"]
        assert len(sched) == 1

    def test_every_live_transaction_steps_each_round(self):
        log = []
        sched = TxnScheduler(FakeBatcher())
        scripts = {
            "a": ["go", "go", "go", "done"],
            "b": ["wait", "wait", "wait", "done"],
            "c": ["go", "wait", "wait", "done"],
            "d": ["wait", "go", "wait", "done"],
            "e": ["go", "go", "go", "done"],
        }
        for name, script in scripts.items():
            sched.add(FakeTxn(name, script, log))
        for _ in range(4):
            mark = len(log)
            sched.run_round(1, Profiler())
            # Waiters are stepped too, in their admission slot.
            assert [name for name, _ in log[mark:]] == list(scripts)
        assert not sched
        assert sched.touched == 4 * len(scripts)

    def test_mid_step_flush_wakes_later_orders_same_round(self):
        log = []
        batcher = FakeBatcher()
        sched = TxnScheduler(batcher)

        class FlushingTxn(FakeTxn):
            """Forms a full batch inside its second step's receive."""

            steps = 0

            def step(self):
                self.steps += 1
                result = super().step()
                if self.steps == 2:
                    batcher.flush()
                return result

        early = WaitingTxn("early", ["done"], log, batcher)   # order 0
        flusher = FlushingTxn("mid", ["go", "go", "done"], log)
        late = WaitingTxn("late", ["go", "done"], log, batcher)  # order 2
        for txn in (early, flusher, late):
            sched.add(txn)
        sched.run_round(1, Profiler())
        assert log == [("early", "wait"), ("mid", "go"), ("late", "wait")]
        mark = len(log)
        sched.run_round(1, Profiler())   # mid flushes during its step
        # late (after the flusher) progresses within the same round's
        # sweep; early was already stepped and progresses next round.
        assert log[mark:] == [("early", "wait"), ("mid", "go"),
                              ("late", "go")]
        mark = len(log)
        sched.run_round(1, Profiler())
        assert log[mark:] == [("early", "done"), ("mid", "done"),
                              ("late", "done")]
        assert not sched

    def test_straggler_countdown_jump_and_fail(self):
        log = []
        sched = TxnScheduler(FakeBatcher())
        txn = FakeTxn("s", ["wait"] * 20, log)
        sched.add(txn)
        for round_no in range(STALL_LIMIT):
            assert not sched.run_round(1, Profiler())
            assert not txn.failed
            # Something is live, so the next round executes.
            assert sched.next_event_round(round_no) == round_no + 1
        # The (STALL_LIMIT + 1)-th consecutive round without progress
        # fails the straggler, and nothing is left to execute.
        assert not sched.run_round(1, Profiler())
        assert txn.failed and not sched
        assert log == [("s", "wait")] * (STALL_LIMIT + 1)
        assert sched.next_event_round(STALL_LIMIT) is None

    def test_next_event_round_tracks_batcher_continuations(self):
        # A queued decrypt can outlive its transaction (mid-handshake
        # abandons); it still flushes next round.
        batcher = FakeBatcher()
        resumed = []
        batcher.submit(lambda: resumed.append(True))
        sched = TxnScheduler(batcher)
        assert sched.next_event_round(7) == 8
        # Nothing stepped, so the round flushes the queue itself and
        # counts that as progress.
        assert sched.run_round(1, Profiler())
        assert resumed == [True] and sched.stalled == 0
        assert sched.next_event_round(8) is None

    def test_work_counters(self):
        log = []
        sched = TxnScheduler()
        sched.add(FakeTxn("a", ["go", "done"], log))
        drive(sched)
        stats = sched.stats()
        assert stats["touched"] == 2
        assert stats["rounds_executed"] == 2
        assert stats["rounds_virtual"] >= stats["rounds_executed"]


# ---------------------------------------------------------------------------
# Bit-identity: the round loop vs committed baselines
# ---------------------------------------------------------------------------

#: One representative per golden scenario family the round loop drives
#: (simulator, farm, engines, tickets, overload).
FAMILY_SCENARIOS = (
    "webserver_https",
    "farm_2workers",
    "engines_preferential_farm",
    "ticket_resumption",
    "overload_flash_crowd",
)


@pytest.mark.parametrize("name", FAMILY_SCENARIOS)
def test_event_core_matches_committed_baseline(name):
    from repro.tools.perfgate import baseline_path, capture_scenario
    committed = baseline.load_json(baseline_path(Path("baselines"), name))
    fresh = capture_scenario(name)
    assert baseline.diff_signatures(committed, fresh) == []


@pytest.mark.parametrize("server", ["farm", "simulator"])
def test_event_core_skips_idle_rounds(server):
    # Pareto gaps averaging four rounds leave idle rounds between
    # arrivals; the round clock must jump over them rather than execute
    # them one by one, in the farm and in the simulator alike.
    rsa.reset_error_tables()
    key, cert = make_server_identity(512, seed=b"evcore-test")
    workload = AdversarialWorkload.fixed(
        2048, resumption_rate=0.5, seed=b"evcore-wl", clients=8,
        mean_gap_rounds=4.0, flood_rate=0.25)
    if server == "farm":
        farm = ServerFarm(2, key=key, cert=cert, use_crt=True,
                          seed=b"evcore")
        results = farm.run(workload, 24, concurrency_per_worker=4).results
    else:
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True,
                                 seed=b"evcore")
        results = [sim.run(workload, 24, concurrency=4)]
    stats = [r.scheduler for r in results]
    assert (sum(s["rounds_executed"] for s in stats)
            < sum(s["rounds_virtual"] for s in stats))


# ---------------------------------------------------------------------------
# Streaming admission: O(lookahead + capacity) memory
# ---------------------------------------------------------------------------

def _synthetic_requests(nrequests):
    for i in range(nrequests):
        yield Request(path=f"/doc-{i}.html", size_bytes=1024,
                      resumable=bool(i & 1), client_id=i % 32,
                      arrival_round=i // 8)


def test_million_request_stream_drains_in_flat_memory():
    """The full admission path (generator -> grouper -> AcceptQueue)
    holds one group of lookahead: a 10^6-request stream must drain
    within a small constant peak, nowhere near the ~200 MB an eager
    groups list would pin."""
    nrequests = 10 ** 6
    tracemalloc.start()
    queue = AcceptQueue(connection_groups(_synthetic_requests(nrequests), 4))
    drained = 0
    while queue:
        target = queue.round + 1
        upcoming = queue.next_arrival_round()
        if queue.depth() == 0 and upcoming is not None:
            target = max(target, upcoming)
        queue.begin_round(target)
        while queue.depth():
            drained += len(queue.pop())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert drained == nrequests
    # Measured ~4 KiB; 64 KiB leaves slack without letting a
    # re-materialization (tens of MB) sneak back in.
    assert peak < 64 * 1024, f"streaming admission peaked at {peak} bytes"


def test_farm_consumes_workload_lazily():
    # A one-shot generator is sufficient: nothing may materialize or
    # re-iterate the stream.
    rsa.reset_error_tables()
    key, cert = make_server_identity(512, seed=b"evcore-test")
    farm = ServerFarm(1, key=key, cert=cert, use_crt=True, seed=b"evcore")
    workload = AdversarialWorkload.fixed(1024, seed=b"evcore-lazy",
                                         mean_gap_rounds=1.0)
    result = farm.run(workload, 6, concurrency_per_worker=2)
    assert result.requests_completed == 6
