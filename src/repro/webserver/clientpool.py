"""Bounded LRU pool of per-client resumable sessions.

The simulator used to append every completed connection's session to an
unbounded list and only ever read the last element -- O(clients) retained
memory in long runs, and no notion of *which* client a session belongs
to.  :class:`ClientPool` replaces it: sessions are keyed by the
workload's client identity and held in an LRU of at most ``capacity``
entries, so a 10^6-distinct-client run retains O(active clients) state
while short-population runs resume exactly as before.

``None`` is a valid client key: requests with no client identity (the
default workload) all collapse onto one slot, which reproduces the old
"offer the most recent session" behaviour byte for byte.

The pool also carries the farm's session-ownership map (which worker
minted a session), preserving the cross-worker resumption accounting the
old farm-private list subclass provided.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional

from ..ssl.session import SslSession


class ClientPool:
    """LRU map of client identity -> most recent resumable session."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, SslSession]" = OrderedDict()
        #: session_id -> worker index that minted it (farm bookkeeping).
        self.owners: Dict[bytes, int] = {}
        #: Worker currently storing (the farm sets this before folding).
        self.current_worker = 0
        self.evictions = 0
        self.stores = 0
        self.peak_size = 0

    # -- write side --------------------------------------------------------
    def store(self, client_id: Hashable, session: Optional[SslSession]) -> None:
        """Record ``client_id``'s latest session (MRU); ``None`` sessions
        (failed/unresumable handshakes) are ignored."""
        if session is None:
            return
        old = self._entries.pop(client_id, None)
        if old is not None and old.session_id != session.session_id:
            self.owners.pop(old.session_id, None)
        self._entries[client_id] = session
        self.owners[session.session_id] = self.current_worker
        self.stores += 1
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.owners.pop(evicted.session_id, None)
            self.evictions += 1
        if len(self._entries) > self.peak_size:
            self.peak_size = len(self._entries)

    # -- read side ---------------------------------------------------------
    def offer(self, request) -> Optional[SslSession]:
        """The session a connection opening with ``request`` should offer.

        Non-resumable requests offer nothing.  A request without a client
        identity offers the most recently stored session (the legacy
        single-stream behaviour); identified clients offer their own last
        session, or nothing if it was evicted.  Lookups do not mutate LRU
        order -- only :meth:`store` refreshes an entry.
        """
        if not request.resumable or not self._entries:
            return None
        if request.client_id is None:
            return self.latest()
        return self._entries.get(request.client_id)

    def latest(self) -> Optional[SslSession]:
        """The most recently stored session, if any."""
        if not self._entries:
            return None
        return next(reversed(self._entries.values()))

    def session_owner(self, session_id: bytes) -> Optional[int]:
        return self.owners.get(session_id)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def stats(self) -> dict:
        """Occupancy and churn counters, for scenario extras and tests."""
        return {"size": len(self._entries), "capacity": self.capacity,
                "peak_size": self.peak_size, "stores": self.stores,
                "evictions": self.evictions}
