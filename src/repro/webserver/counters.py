"""The counter record of one run, :class:`RunCounters`: both result
types extend it, the accept queue counts into one, a farm's totals are
one :meth:`~RunCounters.merge` of its workers', its queue's and its own,
and both ``run()`` calls end with :meth:`~RunCounters.check`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(kw_only=True)
class RunCounters:
    """Every integer counter one run reports, all zero to start.

    Each offered request ends one way: completed, failed, shed by the
    admission policy, or abandoned with a handshake flood (deliberate
    client behaviour, not a failure; the server work it burned stays
    charged).  ``wire_bytes`` is the transcript volume into and out of
    every server endpoint; ``batched_ops`` counts the RSA decrypts that
    went through the batch queue.
    """

    requests_offered: int = 0
    requests_completed: int = 0
    failures: int = 0
    requests_shed: int = 0
    requests_abandoned: int = 0
    bytes_served: int = 0
    wire_bytes: int = 0
    resumed_handshakes: int = 0
    handshakes_abandoned: int = 0
    renegotiations_served: int = 0
    batched_ops: int = 0
    tickets_minted: int = 0
    tickets_accepted: int = 0
    tickets_rejected: int = 0
    tickets_renewed: int = 0
    #: Connections that arrived at the accept queue, those shed at a
    #: full backlog or past their queue deadline, the deepest the queue
    #: got and the rounds admitted connections spent in it.
    offered_connections: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    peak_queue_depth: int = 0
    queue_wait_rounds_total: int = 0
    #: Resumptions a worker served for a session another worker minted,
    #: and connections a :class:`~repro.webserver.overload.SuitePolicy`
    #: steered to its downgrade suite.
    cross_worker_resumptions: int = 0
    connections_downgraded: int = 0

    @property
    def connections_shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline

    def merge(self, *records: RunCounters) -> None:
        """Add ``records`` into this one field by field;
        ``peak_queue_depth`` keeps the maximum."""
        for f in fields(RunCounters):
            mine = getattr(self, f.name)
            values = [getattr(r, f.name) for r in records]
            setattr(self, f.name, max([mine, *values])
                    if f.name == "peak_queue_depth" else mine + sum(values))

    def check(self) -> None:
        """Raise :class:`RuntimeError` unless completed + failed + shed +
        abandoned requests add up to ``requests_offered``."""
        ended = (self.requests_completed + self.failures
                 + self.requests_shed + self.requests_abandoned)
        if ended != self.requests_offered:
            raise RuntimeError(
                f"run counters do not add up: completed "
                f"{self.requests_completed} + failed {self.failures} + shed "
                f"{self.requests_shed} + abandoned {self.requests_abandoned}"
                f" = {ended}, but {self.requests_offered} were offered")
