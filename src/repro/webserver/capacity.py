"""Server capacity: analytic model + discrete-event load simulation.

The paper's methodology keeps "the server load ... always maintained at
more than 90%" with a client issuing requests "as fast as the server can
handle them".  This module closes the loop on that setup:

* :func:`requests_per_second` -- the analytic ceiling: the modelled CPU's
  frequency divided by the measured cycles per transaction;
* :class:`LoadSimulator` -- a discrete-event simulation of N concurrent
  closed-loop clients against the server (one CPU by default; SMP via
  ``nservers``), in *virtual time* derived from the instrumented cycle
  costs: it reports achieved throughput, CPU utilization and latency
  percentiles, and shows the saturation knee the paper's ">90% load"
  sits beyond;
* :class:`MixedLoadSimulator` -- the same with heterogeneous per-request
  costs (e.g. full versus resumed handshakes).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..perf import CpuModel, PENTIUM4, left_sum


def requests_per_second(cycles_per_request: float,
                        cpu: CpuModel = PENTIUM4) -> float:
    """The analytic capacity ceiling of a fully loaded single CPU."""
    if cycles_per_request <= 0:
        raise ValueError("cycles per request must be positive")
    return cpu.frequency_hz / cycles_per_request


def farm_requests_per_second(worker_cycles: Sequence[float],
                             worker_requests: Sequence[int],
                             cpu: CpuModel = PENTIUM4) -> float:
    """Aggregate analytic ceiling of a worker farm.

    Each worker replica runs on its own CPU, so the farm's ceiling is the
    sum of per-worker ceilings computed from that worker's *own* measured
    cycles-per-request (shards see different request mixes -- e.g. a
    session-affinity balancer concentrates cheap resumed handshakes).
    Workers that served nothing contribute nothing.
    """
    if len(worker_cycles) != len(worker_requests):
        raise ValueError("need one cycle total per worker request count")
    if not worker_cycles:
        raise ValueError("need at least one worker")
    total = 0.0
    for cycles, requests in zip(worker_cycles, worker_requests):
        if requests < 0 or cycles < 0:
            raise ValueError("worker totals cannot be negative")
        if requests:
            total += requests_per_second(cycles / requests, cpu)
    return total


@dataclass
class LoadResult:
    """What the load simulation measured."""

    offered_clients: int
    completed: int
    sim_seconds: float
    utilization: float
    latencies: List[float] = field(repr=False, default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.sim_seconds if self.sim_seconds else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class LoadSimulator:
    """N closed-loop clients against the server, in virtual time.

    Each client repeats: think for ``think_seconds``, then submit a
    transaction costing ``cycles_per_request`` of server CPU.  Requests
    are served FIFO by the first free CPU (one by default -- the paper's
    single P4).  Virtual time advances from the cycle costs -- no
    wall-clock measurement is involved, so results are deterministic.
    """

    def __init__(self, cycles_per_request: float,
                 think_seconds: float = 0.0,
                 cpu: CpuModel = PENTIUM4,
                 nservers: int = 1):
        """``nservers`` models an SMP box: requests are served by the
        first free CPU (the paper's client machine was a dual-processor
        Xeon; its server a single P4)."""
        if cycles_per_request <= 0:
            raise ValueError("cycles per request must be positive")
        if think_seconds < 0:
            raise ValueError("think time cannot be negative")
        if nservers < 1:
            raise ValueError("need at least one server CPU")
        self.service_s = cycles_per_request / cpu.frequency_hz
        self.think_s = think_seconds
        self.cpu = cpu
        self.nservers = nservers

    def run(self, nclients: int, duration_seconds: float = 10.0,
            ) -> LoadResult:
        if nclients < 1:
            raise ValueError("need at least one client")
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        # Event heap: (time, seq, kind, client). Kinds: "arrive" only --
        # service completion is computed inline via the server-free clock.
        events: List[Tuple[float, int, int]] = []
        for client in range(nclients):
            heapq.heappush(events, (0.0, client, client))
        cpus: List[float] = [0.0] * self.nservers  # free-at heap
        heapq.heapify(cpus)
        busy = 0.0
        completed = 0
        latencies: List[float] = []
        seq = nclients
        last_done = 0.0
        while events:
            arrival, _, client = heapq.heappop(events)
            if arrival >= duration_seconds:
                continue
            service = self._next_service()
            free_at = heapq.heappop(cpus)
            start = max(arrival, free_at)
            done = start + service
            heapq.heappush(cpus, done)
            last_done = max(last_done, done)
            busy += service
            completed += 1
            latencies.append(done - arrival)
            next_arrival = done + self.think_s
            seq += 1
            heapq.heappush(events, (next_arrival, seq, client))
        sim_end = max(duration_seconds, last_done)
        return LoadResult(offered_clients=nclients, completed=completed,
                          sim_seconds=sim_end,
                          utilization=min(1.0, busy / (
                              sim_end * self.nservers)),
                          latencies=latencies)

    def _next_service(self) -> float:
        """Service time of the next request served."""
        return self.service_s

    def saturation_sweep(self, client_counts: Tuple[int, ...],
                         duration_seconds: float = 10.0,
                         ) -> List[LoadResult]:
        """Run the simulation across offered-load levels."""
        return [self.run(n, duration_seconds) for n in client_counts]


class MixedLoadSimulator(LoadSimulator):
    """Closed-loop load with heterogeneous per-request costs.

    Real request streams mix full handshakes with cheap resumed ones;
    pass the measured cycle costs (e.g. ``[full, resumed, resumed,
    resumed]`` for 75% resumption) and each served request cycles through
    them deterministically.
    """

    def __init__(self, cycles_per_request_mix: Sequence[float],
                 think_seconds: float = 0.0,
                 cpu: CpuModel = PENTIUM4,
                 nservers: int = 1):
        if not cycles_per_request_mix:
            raise ValueError("need at least one request cost")
        if any(c <= 0 for c in cycles_per_request_mix):
            raise ValueError("request costs must be positive")
        mean = left_sum(cycles_per_request_mix) / len(cycles_per_request_mix)
        super().__init__(mean, think_seconds, cpu, nservers)
        self._services = [c / cpu.frequency_hz
                          for c in cycles_per_request_mix]
        self._next = 0

    def _next_service(self) -> float:
        service = self._services[self._next % len(self._services)]
        self._next += 1
        return service

    def run(self, nclients: int, duration_seconds: float = 10.0,
            ) -> LoadResult:
        self._next = 0
        return super().run(nclients, duration_seconds)
