"""Workload generation: the request stream the curl-based client issues.

The paper's client "makes HTTP requests as fast as the server can handle
them" for fixed file sizes (1 KB in Table 1, swept 1-32 KB in Figure 2).
Beyond fixed sizes, :class:`RequestWorkload` supports mixes so the example
applications can model more realistic distributions (e.g. a banking-style
small-transfer workload versus a B2B bulk-transfer workload, the two
regimes the paper contrasts in its conclusions).

With ``clients`` set, each request also carries a client identity drawn
uniformly from ``range(clients)``, so resumption models a *population* --
each client resumes its own session via the simulator's
:class:`~repro.webserver.clientpool.ClientPool` -- instead of one
infinitely-fast client hammering the server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..crypto.rand import PseudoRandom
from ..perf import Discard, activate, left_sum

#: Resolution of the size/resumption draws: one draw in [0, 10^6).
_DRAW_SPAN = 1_000_000

#: What the workload generators' draws charge.  The draws are the
#: clients' traffic, not server work, so they charge neither a worker's
#: profile nor the caller's.  A stream closes its ``with`` before each
#: ``yield``: the active-profiler stack is process-wide, and a suspended
#: generator must not leave the sink on top of it.
_DRAWS = Discard()


@dataclass(frozen=True, slots=True)
class Request:
    """One HTTP request in the stream.

    The three trailing fields are the adversarial-traffic annotations the
    overload workloads (:mod:`repro.webserver.overload`) stamp on their
    streams; plain workloads leave them at their defaults, which keeps
    every pre-overload request stream -- and therefore every committed
    baseline signature -- byte-identical.  Slotted: at streaming scale
    the requests in flight (lookahead + queued groups) are the bulk of
    the admission layer's footprint.
    """

    path: str
    size_bytes: int
    resumable: bool = False  # client will offer its cached session
    client_id: Optional[int] = None  # population identity; None = anonymous
    #: Scheduling round this connection arrives in (farm accept-queue
    #: pacing; 0 = offered immediately, the classic as-fast-as-possible
    #: client).  Only the first request of a connection group is read.
    arrival_round: int = 0
    #: Handshake-flood behaviour: ``None`` completes normally,
    #: ``"hello"`` abandons after the ClientHello, ``"mid_kx"`` abandons
    #: after delivering the ClientKeyExchange (the server burns the RSA
    #: decrypt; the client never finishes).
    abandon: Optional[str] = None
    #: Renegotiation storm: full handshakes the client forces on the
    #: established connection after its requests complete.
    renegotiations: int = 0


def document_bytes(path: str, size: int) -> bytes:
    """Deterministic pseudo-content for a served document."""
    unit = (f"<!-- {path} -->" + "0123456789abcdef" * 4).encode()
    reps = size // len(unit) + 1
    return (unit * reps)[:size]


class RequestWorkload:
    """A reproducible stream of requests."""

    def __init__(self, size_mix: Sequence[Tuple[int, float]],
                 resumption_rate: float = 0.0,
                 seed: bytes = b"workload",
                 clients: Optional[int] = None):
        """``size_mix``: (size_bytes, weight) pairs; weights need not sum
        to 1.  ``resumption_rate``: fraction of requests that reuse an SSL
        session (0 reproduces the paper's full-handshake-per-request
        setup).  ``clients``: population size; when set, every request is
        stamped with a uniformly drawn client id in ``range(clients)``."""
        if not size_mix:
            raise ValueError("size mix must not be empty")
        if not 0.0 <= resumption_rate <= 1.0:
            raise ValueError("resumption rate must be in [0, 1]")
        total = left_sum(w for _, w in size_mix)
        if total <= 0:
            raise ValueError("size mix weights must be positive")
        if clients is not None and clients < 1:
            raise ValueError("clients must be positive")
        # Integer cumulative thresholds over the int_below draw: floating
        # cumulative shares drift for weight mixes that don't sum cleanly
        # (e.g. three 1/3 shares accumulate to 0.9999...), misassigning
        # boundary draws.  Rounding each *cumulative* share once -- and
        # pinning the final threshold to the full span -- keeps every
        # bucket within half a draw-unit of its exact share.
        self._thresholds: List[Tuple[int, int]] = []
        acc = 0.0
        for size, weight in size_mix:
            acc += weight
            self._thresholds.append((round(acc / total * _DRAW_SPAN), size))
        self._thresholds[-1] = (_DRAW_SPAN, self._thresholds[-1][1])
        self._resumption_rate = resumption_rate
        self._clients = clients
        with activate(_DRAWS):
            self._rng = PseudoRandom(seed)

    @classmethod
    def fixed(cls, size_bytes: int, resumption_rate: float = 0.0,
              seed: bytes = b"workload",
              clients: Optional[int] = None) -> "RequestWorkload":
        """The paper's workload: every request fetches the same file."""
        return cls([(size_bytes, 1.0)], resumption_rate, seed,
                   clients=clients)

    @property
    def adversarial(self) -> bool:
        """True when the stream can carry adversarial annotations
        (abandons, renegotiation storms).  Declared up front -- a
        property of the generator's configuration -- so a caller can
        tell without materializing (and consuming) the stream; plain
        workloads never produce them."""
        return False

    def _pick_size(self) -> int:
        x = self._rng.int_below(_DRAW_SPAN)
        for bound, size in self._thresholds:
            if x < bound:
                return size
        return self._thresholds[-1][1]

    def _draw(self) -> Tuple[int, bool, Optional[int]]:
        """One request's size, resumption and client draws, in order."""
        size = self._pick_size()
        resume = (self._resumption_rate > 0.0
                  and self._rng.int_below(_DRAW_SPAN) / _DRAW_SPAN
                  < self._resumption_rate)
        client_id = (self._rng.int_below(self._clients)
                     if self._clients is not None else None)
        return size, resume, client_id

    def requests(self, count: int) -> Iterator[Request]:
        """Yield ``count`` requests."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for i in range(count):
            with activate(_DRAWS):
                size, resume, client_id = self._draw()
            yield Request(path=f"/doc-{size}-{i}.html", size_bytes=size,
                          resumable=resume, client_id=client_id)

    def as_list(self, count: int) -> List[Request]:
        return list(self.requests(count))


def connection_groups(requests: Iterator[Request],
                      per_connection: int) -> Iterator[List[Request]]:
    """Chunk a request stream into connection groups of
    ``per_connection`` requests (the last group may be short), lazily.

    This is the streaming replacement for the eager ``groups`` lists the
    simulator and farm used to materialize before scheduling: consumed
    through it, a run holds one group of lookahead instead of the whole
    workload, so admission-layer memory is O(concurrency + lookahead +
    queued groups) no matter the request count.
    """
    group: List[Request] = []
    for request in requests:
        group.append(request)
        if len(group) == per_connection:
            yield group
            group = []
    if group:
        yield group
