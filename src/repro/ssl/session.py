"""SSL session objects and the server-side session cache.

The paper observes that "session re-negotiation using the previously setup
keys can avoid the public key encryption, therefore greatly reduces the
handshake overhead" (Section 4.1).  The session cache enables exactly that:
a client presenting a cached session id resumes with an abbreviated
handshake -- no certificate, no ClientKeyExchange, no RSA private operation.
The resumption ablation benchmark quantifies the saving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class SslSession:
    """Negotiated parameters kept for resumption.

    ``created_at`` / ``lifetime`` support cache expiry (SSL_CTX_set_timeout
    semantics; OpenSSL's default was 300 s for SSLv3).  Timestamps are
    caller-supplied virtual time so experiments stay deterministic.
    """

    session_id: bytes
    cipher_suite_id: int
    master_secret: bytes
    created_at: float = 0.0
    lifetime: float = 300.0
    #: Opaque RFC-5077-style session ticket (see :mod:`repro.ssl.ticket`);
    #: ``None`` for id-only sessions.  A client holding one offers the
    #: ticket instead of relying on server-side cache state.
    ticket: Optional[bytes] = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.session_id) <= 32:
            raise ValueError("session id must be 1..32 bytes")
        if len(self.master_secret) != 48:
            raise ValueError("master secret must be 48 bytes")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")

    def expired_at(self, now: float) -> bool:
        return now - self.created_at > self.lifetime


class SessionCache:
    """LRU cache of resumable sessions, keyed by session id.

    Every way an entry can leave the cache early is counted in one
    ``evictions`` counter: capacity-driven LRU drops in :meth:`put`,
    expired entries dropped on lookup in :meth:`get`, sweeps by
    :meth:`purge_expired`, and explicit :meth:`remove` calls.
    ``hits``/``misses`` count lookups only, so a farm shard's resumption
    hit-rate and its churn can be read separately.

    Storing a session under an id that is already live is *replacement*:
    the new session takes the entry's place (and its LRU slot moves to
    most-recent, exactly as a fresh insert's would), and the displaced
    session is counted in ``replacements`` -- it left the cache early but
    not through any eviction path, so folding it into ``evictions`` would
    double-book churn.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, SslSession]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.replacements = 0

    def put(self, session: SslSession) -> None:
        sid = session.session_id
        if sid in self._entries:
            # A live entry is being overwritten in place; count the
            # displaced session so churn accounting stays complete.
            self._entries.move_to_end(sid)
            self.replacements += 1
        self._entries[sid] = session
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get(self, session_id: bytes,
            now: Optional[float] = None) -> Optional[SslSession]:
        """Look up a session; expired entries are dropped and miss.

        ``now`` is virtual time; omit it to skip expiry checking (the
        default keeps experiment determinism unless a clock is modelled).
        """
        session = self._entries.get(session_id)
        if session is None:
            self.misses += 1
            return None
        if now is not None and session.expired_at(now):
            del self._entries[session_id]
            self.misses += 1
            self.evictions += 1
            return None
        self._entries.move_to_end(session_id)
        self.hits += 1
        return session

    def purge_expired(self, now: float) -> int:
        """Drop every expired session; returns how many were removed."""
        dead = [sid for sid, s in self._entries.items()
                if s.expired_at(now)]
        for sid in dead:
            del self._entries[sid]
        self.evictions += len(dead)
        return len(dead)

    def remove(self, session_id: bytes) -> Optional[SslSession]:
        """Drop an entry explicitly; counted as an eviction when present.

        Removing an id that is not cached is a no-op (and not churn).
        Returns the removed session, if any.
        """
        session = self._entries.pop(session_id, None)
        if session is not None:
            self.evictions += 1
        return session

    def peek(self, session_id: bytes) -> Optional[SslSession]:
        """Non-mutating lookup: no counters, no LRU reordering, no expiry
        drop -- a probe that leaves the cache exactly as it was."""
        return self._entries.get(session_id)

    def stats(self) -> dict:
        """Lookup/churn counters plus current occupancy, for farm metrics."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "replacements": self.replacements,
                "size": len(self._entries), "capacity": self.capacity}

    def __len__(self) -> int:
        return len(self._entries)
