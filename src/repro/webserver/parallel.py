"""Process-parallel execution backend for :class:`~repro.webserver.farm.
ServerFarm` -- deterministic, cycle-exact.

The farm's workload is embarrassingly parallel *almost* everywhere: each
worker replica owns its connection pool, its virtual clock, its batch
queue and (under the partitioned topology) its session-cache shard.  The
pieces that are *not* worker-local are exactly the pieces the serial
scheduling loop touches between worker rounds:

* the **balancing policy** and global accept queue (admission order);
* the farm-global **client session pool** (clients resume against
  whichever worker they land on next, so worker A's minted session must
  be offerable to worker B one round later);
* the one **shared server-side session cache** under the ``shared``
  topology (mod_ssl's shared-memory cache): every worker's lookups,
  stores, expiry drops and LRU evictions mutate one structure whose
  counters the run reports;
* one **process-global one-shot charge**: OpenSSL loads its error
  strings the first time any RSA private decryption runs
  (``ERR_load_BN_strings``, see :mod:`repro.crypto.rsa`), and the paper's
  cost model charges it exactly once per process lifetime.

This module keeps all four in the parent and runs the per-worker inner
loops -- the *same* ``_run_worker_round`` the serial path executes -- in
child processes, synchronised once per scheduling round ("lockstep").
Because the serial loop already quantises all cross-worker interaction
to round boundaries (the pool is read only at admission, written only at
connection close; the policy runs only at admission; a shared-cache
lookup can only target a session that finished -- and was therefore
stored -- in a strictly earlier round), replaying the round structure
reproduces the serial interleaving *exactly*: modeled cycles,
transcripts, cache counters and batch histograms are bit-identical to
``ServerFarm.run`` with ``parallel=0``, enforced against the committed
baselines by ``tests/test_parallel_farm.py`` /
``tests/test_parallel_shared.py`` and the CI parallel-farm smoke job.

Protocol (one duplex pipe per child process)::

    parent -> child   ("init",   {fastpath, err_tables, states})
    parent -> child   ("round",  {worker: [(txn_id, group, offered,
                                            owner, cache_entry,
                                            server_suites), ...]},
                                 ticks)
    child  -> parent  ("report", {worker: (minted, cross, active,
                                           cache_ops, next_event)})
    parent -> child   ("finish",)
    child  -> parent  ("done",   [worker states])
    child  -> parent  ("error",  traceback text)   -- any time

``ticks`` is the virtual-round advance since the previous round message
(> 1 when the event core skipped no-op rounds); each child adds it to
its private round clock, so parent and children agree on the round
number without ever shipping it.  ``next_event`` is the worker's
:meth:`~repro.webserver.events.TxnScheduler.next_event_round` -- computed
child-side by the same scheduler code the serial loop runs, then folded
through the same :func:`~repro.webserver.farm._next_round_target`, which
is what makes the two backends' skip decisions identical by
construction.

Determinism notes:

* **Admission** is planned entirely in the parent: the policy object
  (and its internal state, e.g. round-robin position) never leaves the
  parent, per-worker in-flight counts are mirrored from the round
  reports (:attr:`ServerFarm._parallel_active`), and the offered session
  is resolved against the parent's pool and shipped with the admission
  -- so worker selection, transaction ids and resumption offers are the
  serial ones by construction.
* **Minted sessions** travel back in the round report as
  ``(client_id, session)`` pairs and are stored into the parent pool in
  worker-index order -- the order the serial loop stores them -- before
  the next round's admissions read the pool.
* **The shared session cache** stays authoritative in the parent and is
  synchronised at round boundaries.  The only lookups a round can issue
  are for the sessions its own admissions offered (a ClientHello is
  processed on a transaction's first step, in its admission round), so
  the parent ships, with each admission, the authoritative cache entry
  for the offered id -- a view of the one cache *sufficient for that
  round's lookups*.  Inside the child a
  :class:`~repro.webserver.parallel._SharedCacheMirror` serves those
  entries (applying the worker's own clock for expiry, exactly like
  :meth:`~repro.ssl.session.SessionCache.get`) and records every touch
  -- hits, misses, expiry drops, stores -- as a mutation log.  The
  round report carries the per-worker logs back and the parent replays
  them in worker-index order through
  :meth:`~repro.ssl.session.SessionCache.replay`, so the real cache's
  contents, LRU order and ``stats()`` counters are the serial ones by
  construction.  A replayed lookup that disagrees with what the worker
  observed (possible only when two workers race on the same entry
  within one round: an expiry-boundary duplicate offer, or a capacity
  eviction landing on the session another worker is resuming) raises
  :class:`~repro.ssl.session.CacheReplayDivergence` rather than merging
  a result that is no longer bit-identical.
* **The ERR_LOAD one-shot** travels *with each worker's key*: a farm at
  ``N >= 2`` hands every worker a key replica carrying its own
  :class:`~repro.crypto.rsa.ErrorTables`, so each worker pays the
  error-string load exactly once, on its own clock, at its first
  private-key operation -- in the serial loop and in a child process
  alike.  Workers therefore fan out at round 0; no serial prefix, no
  special case.  (The module-global flag still exists for keys owned by
  the main process and is mirrored to children in ``init`` so a child
  is a faithful process clone.)
* **Pickle boundary**: worker states cross the pipe via pickle.
  :class:`~repro.perf.cpu.CpuModel` interns on unpickle (identity-based
  merge checks survive), :class:`~repro.perf.isa.MixAccumulator` folds
  before serializing, and each child's states ship in one message so
  within-process object sharing (key, cert, suite) is preserved by the
  pickle memo.

Start method: ``fork`` where the platform offers it (cheap -- the child
inherits the imported modules), ``spawn`` otherwise; both are supported
and the choice is not observable in the results.  Override with
``REPRO_PARALLEL_START=fork|spawn|forkserver``.  Spawn safety is why
:func:`_worker_main` is a module-level function fed exclusively through
its pipe.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Dict, List, Optional, TYPE_CHECKING

from .. import runtime
from ..crypto import rsa
from ..ssl.session import CacheOp, SslSession
from .overload import AcceptQueue
from .simulator import _admit_transaction
from .workload import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .farm import FarmResult, ServerFarm, _WorkerState


class _ClientPoolMirror:
    """Child-side stand-in for the farm-global client session pool.

    The real :class:`~repro.webserver.clientpool.ClientPool` lives in the
    parent.  Inside a worker process the simulator touches the pool at
    exactly two points, and the mirror covers both:

    * ``_Transaction.__init__`` calls ``pool.offer(request)`` to pick the
      session a resuming client offers.  The parent resolves that against
      its authoritative pool and ships the session with the admission;
      the mirror replays it via :attr:`offered`.
    * ``_step_close`` calls ``pool.store(client_id, session)`` with the
      connection's (possibly freshly minted or ticket-renewed) session.
      The mirror collects the ``(client_id, session)`` pairs in
      :attr:`minted`, which the round report carries back for the parent
      to fold into the real pool in worker-index order.
    """

    def __init__(self, index: int) -> None:
        self.current_worker = index
        self.offered: Optional[SslSession] = None
        self.minted: List[tuple] = []

    def offer(self, request: Request) -> Optional[SslSession]:
        return self.offered

    def store(self, client_id, session: Optional[SslSession]) -> None:
        if session is not None:
            self.minted.append((client_id, session))


class _SharedCacheMirror:
    """Child-side stand-in for the farm's one shared ``SessionCache``.

    The authoritative cache lives in the parent.  Per scheduling round
    the mirror is loaded with the cache entries the round's admissions
    can look up (:attr:`entries`, keyed by session id -- the
    round-boundary "view sufficient for this round's lookups"), serves
    :meth:`get` against them with the same expiry semantics as the real
    cache, and records every touch in :attr:`ops` as a replayable
    mutation log (see :meth:`~repro.ssl.session.SessionCache.replay`).

    The mirror holds no LRU order and no counters: eviction decisions
    and ``stats()`` accounting belong to the parent's replay, which
    re-executes each logged ``get``/``put``/``remove`` on the real cache
    in serial worker order.  An expiry drop *is* applied locally (the
    entry leaves :attr:`entries`) so a second lookup of the same id
    later in the same round -- the serial loop's same-worker
    read-after-drop -- misses here too.

    One mirror per child process, shared by all its worker states
    (exactly as the real cache is shared by all workers); per-worker op
    logs are separated by draining :meth:`take_ops` after each worker's
    round.
    """

    def __init__(self) -> None:
        self.entries: Dict[bytes, SslSession] = {}
        self.ops: List[CacheOp] = []

    def begin_round(self) -> None:
        self.entries.clear()
        self.ops.clear()

    def take_ops(self) -> List[CacheOp]:
        """Drain the mutation log recorded since the last drain."""
        ops, self.ops = self.ops, []
        return ops

    # -- the SessionCache surface the server touches ------------------------
    def get(self, session_id: bytes,
            now: Optional[float] = None) -> Optional[SslSession]:
        session = self.entries.get(session_id)
        if session is None:
            self.ops.append(("get", session_id, now, False))
            return None
        if now is not None and session.expired_at(now):
            del self.entries[session_id]
            self.ops.append(("get", session_id, now, False))
            return None
        self.ops.append(("get", session_id, now, True))
        return session

    def put(self, session: SslSession) -> None:
        self.ops.append(("put", session))

    def remove(self, session_id: bytes) -> None:
        self.entries.pop(session_id, None)
        self.ops.append(("remove", session_id))


def _start_method() -> str:
    override = os.environ.get("REPRO_PARALLEL_START", "").strip().lower()
    available = multiprocessing.get_all_start_methods()
    if override:
        if override not in available:
            raise ValueError(
                f"REPRO_PARALLEL_START={override!r} not available "
                f"(choices: {available})")
        return override
    return "fork" if "fork" in available else "spawn"


def _worker_main(conn) -> None:
    """Child process entry point: owns a subset of worker states, runs
    their rounds in lockstep with the parent.  Module-level (and fed
    only through ``conn``) so the spawn start method can import it."""
    try:
        kind, payload = conn.recv()
        if kind != "init":  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected init message, got {kind!r}")
        runtime.set_fastpath(payload["fastpath"])
        rsa.set_error_tables_loaded(payload["err_tables"])
        # Imported here so a spawn child pays for it once, after init.
        from .farm import _run_worker_round
        states: List["_WorkerState"] = payload["states"]
        # Under the shared topology every shipped state references one
        # _SharedCacheMirror (the pickle memo preserves the sharing, just
        # as the real cache is shared); partitioned states carry their
        # own private shards and no mirror.
        cache = states[0].sim._session_cache
        cache_mirror = cache if isinstance(cache, _SharedCacheMirror) \
            else None
        round_no = -1  # advanced by each round message's ticks
        while True:
            msg = conn.recv()
            if msg[0] == "round":
                admissions: Dict[int, list] = msg[1]
                ticks = msg[2] if len(msg) > 2 else 1
                round_no += ticks
                if cache_mirror is not None:
                    cache_mirror.begin_round()
                # Admission first for every worker, then every worker's
                # round -- the serial phase order.
                for state in states:
                    mirror = state.sim._client_sessions
                    for (txn_id, group, offered, owner, cache_entry,
                         suites) in admissions.get(state.index, ()):
                        if cache_entry is not None:
                            cache_mirror.entries[
                                cache_entry.session_id] = cache_entry
                        mirror.offered = offered
                        txn = _admit_transaction(state.sim, txn_id, group,
                                                 state.profiler,
                                                 state.result,
                                                 server_suites=suites)
                        if txn is not None:
                            txn._farm_offered_owner = owner
                            state.sched.add(txn, round_no)
                        mirror.offered = None
                report = {}
                for state in states:
                    mirror = state.sim._client_sessions
                    cross = _run_worker_round(state, mirror, round_no,
                                              ticks)
                    cache_ops = (cache_mirror.take_ops()
                                 if cache_mirror is not None else [])
                    report[state.index] = (
                        mirror.minted, cross, len(state.sched), cache_ops,
                        state.sched.next_event_round(round_no))
                conn.send(("report", report))
                for state in states:
                    state.sim._client_sessions.minted = []
            elif msg[0] == "finish":
                conn.send(("done", states))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except EOFError:  # parent died; nothing to report to
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _recv(conn, proc, workers: List[int]):
    """Receive one protocol message, turning every way a child can die
    into a diagnostic that names the dead worker process.

    A child that hits an exception sends an ``("error", traceback)``
    message; a child that dies outright (killed, segfaulted interpreter,
    ``os._exit``) just closes its end of the pipe, which surfaces here as
    ``EOFError`` -- wrapped rather than leaked, with the worker indices
    and exit code attached.
    """
    try:
        msg = conn.recv()
    except EOFError:
        proc.join(timeout=5)
        exitcode = proc.exitcode
        raise RuntimeError(
            f"parallel farm worker process for workers {workers} died "
            f"mid-protocol (exit code {exitcode})") from None
    if msg[0] == "error":
        raise RuntimeError(
            f"parallel farm worker process for workers {workers} "
            f"failed:\n{msg[1]}")
    return msg


def _join_worker(proc, workers: List[int], timeout: float = 10.0) -> None:
    """Join a finished child and raise -- rather than silently letting
    the ``finally`` cleanup terminate it -- if it hangs past ``timeout``
    or exited with a nonzero status."""
    proc.join(timeout=timeout)
    if proc.is_alive():
        raise RuntimeError(
            f"parallel farm worker process for workers {workers} did "
            f"not exit within {timeout:g}s of the finish message")
    if proc.exitcode:
        raise RuntimeError(
            f"parallel farm worker process for workers {workers} "
            f"exited with code {proc.exitcode}")


def run_parallel(farm: "ServerFarm", queue, nprocs: int) -> "FarmResult":
    """Drive ``farm``'s scheduling loop with worker states distributed
    over ``nprocs`` child processes.  Called by :meth:`ServerFarm.run`
    (never directly); ``farm._states`` is already initialised and the
    workload already grouped into the :class:`~repro.webserver.overload.
    AcceptQueue` (a plain deque/list of groups is also accepted for
    back-compat and wrapped in a policy-free queue)."""
    from .farm import _next_round_target

    if not isinstance(queue, AcceptQueue):
        queue = AcceptQueue(list(queue), None)
        farm._accept_queue = queue

    states = farm._states
    pool = farm._pool
    txn_id = 0
    cross = 0

    if not queue and not any(s.sched for s in states):
        # Empty workload: don't spawn a pool to do nothing.
        return farm._assemble_result(cross, backend="serial")

    # -- snapshot worker states and fan out ---------------------------------
    workers_of = [[i for i in range(farm.nworkers) if i % nprocs == p]
                  for p in range(nprocs)]
    proc_of = {i: p for p in range(nprocs) for i in workers_of[p]}
    for state in states:
        state.sim._client_sessions = _ClientPoolMirror(state.index)
    shared_cache = farm._shared_cache
    if shared_cache is not None:
        # One mirror replaces the one shared cache on every state that
        # ships (per child, the pickle memo collapses it back to a single
        # object).  Nothing is in flight yet -- fan-out happens at round
        # 0 -- but rebind any active transactions defensively: a server
        # object holds its own cache reference, and a stale one would
        # mutate a pickled copy instead of entering the mutation log.
        cache_stub = _SharedCacheMirror()
        for state in states:
            state.sim._session_cache = cache_stub
            for txn in state.sched.transactions():
                txn.server._cache = cache_stub

    ctx = multiprocessing.get_context(_start_method())
    procs: List = []
    conns: List = []
    try:
        for p in range(nprocs):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn,),
                               daemon=True)
            proc.start()
            child_conn.close()
            parent_conn.send(("init", {
                "fastpath": runtime.fastpath_enabled(),
                "err_tables": rsa.error_tables_loaded(),
                "states": [states[i] for i in workers_of[p]],
            }))
            procs.append(proc)
            conns.append(parent_conn)

        active = [len(s.sched) for s in states]
        farm._parallel_active = active
        next_events: List[Optional[int]] = [None] * farm.nworkers
        target = 0

        # -- lockstep rounds ------------------------------------------------
        while queue or any(active):
            ticks = target - queue.round
            queue.begin_round(target)
            admissions: List[Dict[int, list]] = [{} for _ in range(nprocs)]
            while True:
                group = queue.head()
                if group is None:
                    break
                plan = farm._admission_plan(group)
                if plan is None:
                    break
                worker, offered, owner = plan
                suites = farm._suites_for_admission(queue)
                # The round-boundary cache view: the only session this
                # admission's handshake can look up is the one it offers,
                # so the authoritative entry (or its absence) rides along.
                cache_entry = (shared_cache.peek(offered.session_id)
                               if shared_cache is not None
                               and offered is not None else None)
                queue.pop()
                admissions[proc_of[worker]].setdefault(worker, []).append(
                    (txn_id, group, offered, owner, cache_entry, suites))
                active[worker] += 1
                txn_id += 1
            for p in range(nprocs):
                conns[p].send(("round", admissions[p], ticks))
            reports = [_recv(conns[p], procs[p], workers_of[p])[1]
                       for p in range(nprocs)]
            # Fold round effects in worker-index order -- the order the
            # serial loop iterates workers, hence the order sessions land
            # in the pool and cache mutations land in the shared cache.
            for i in range(farm.nworkers):
                (minted, delta, count, cache_ops,
                 next_event) = reports[proc_of[i]][i]
                pool.current_worker = i
                for client_id, session in minted:
                    pool.store(client_id, session)
                if cache_ops:
                    shared_cache.replay(cache_ops)
                cross += delta
                active[i] = count
                next_events[i] = next_event
            target = _next_round_target(queue, next_events)

        # -- collect final worker states ------------------------------------
        for p in range(nprocs):
            conns[p].send(("finish",))
        for p in range(nprocs):
            for state in _recv(conns[p], procs[p], workers_of[p])[1]:
                state.sim._client_sessions = pool
                if shared_cache is not None:
                    state.sim._session_cache = shared_cache
                farm._states[state.index] = state
                farm._sims[state.index] = state.sim
        for p in range(nprocs):
            _join_worker(procs[p], workers_of[p])
    finally:
        farm._parallel_active = None
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)

    return farm._assemble_result(cross, backend=f"parallel:{nprocs}")
