"""Host-speed probe: a fixed reference computation sampled during a run.

Host speed on a shared machine drifts: on the 2-vCPU VM this benchmark
was built on, one pure-Python loop took anywhere from 0.04 s to 0.09 s
within minutes (co-tenants on shared cores; steal time ~0, so CPU time
drifts with wall time).  Benchmark runs land in different phases, so
raw host rates spread as widely as the drift, whatever their length.

:class:`SpeedProbe` measures the drift where it happens: while a timed
block runs, an interval timer interrupts it every :data:`INTERVAL`
seconds to time one :func:`reference_work` (~1 ms) in the same thread.
The block's host seconds, less the probe's own time, are then scaled
by ``REFERENCE_SECONDS / mean probe time``: *reference seconds*, the
time the block would have taken with the host running the reference at
its nominal speed.  A phase that slows the program and the reference
alike cancels out.

The reference computation belongs to the benchmark, not to ``src/``, so
no change to the library moves it.  It mixes the operation kinds the
simulator spends its time on: 32-bit integer mixing of 64-byte blocks
(the hash and cipher kernels), dict and float accounting through a
bound method (the profiler's charging) and big-integer modular
exponentiation (RSA).  Editing it changes the unit every time metric
is reported in.
"""

import gc
import signal
import statistics
import time

#: Nominal seconds of one :func:`reference_work`: the unit's fixed point.
REFERENCE_SECONDS = 0.001
#: Seconds between probe samples.
INTERVAL = 0.05

_MASK = 0xFFFFFFFF


class _Ledger:
    __slots__ = ("counts", "total", "log")

    def __init__(self):
        self.counts = {}
        self.total = 0.0
        self.log = []

    def add(self, key, value):
        counts = self.counts
        counts[key] = counts.get(key, 0) + value
        self.total += value * 1.5
        self.log.append((key, value))
        if len(self.log) > 256:
            self.log.clear()


def reference_work(blocks: int = 40) -> int:
    ledger = _Ledger()
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    block = bytes(range(64))
    for _ in range(blocks):
        a, b, c, d = state
        for j in range(0, 64, 4):
            w = int.from_bytes(block[j:j + 4], "little")
            t = (a + ((b & c) | (~b & d)) + w + j) & _MASK
            a, b, c, d = d, (b + ((t << 7) | (t >> 25))) & _MASK, b, c
            ledger.add(j, 1.0)
        state = (a, b, c, d)
        block = block[1:] + block[:1]
    return pow(0x1234567890ABCDEF << 400, 65537 + state[0], (1 << 512) - 569)


class SpeedProbe:
    """Samples :func:`reference_work` every :data:`INTERVAL` seconds
    while active.  Use as a context manager; read :attr:`spent` after
    :meth:`stop` and convert with :meth:`reference_seconds`."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        #: Host seconds of each probe sample.
        self.samples = []
        #: Host seconds the samples took away from the timed block.
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        # A collection triggered inside the sample would charge the
        # program's heap to the reference: keep the collector out.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def reference_seconds(self, host_seconds: float) -> float:
        """``host_seconds`` of the probed block (probe time included)
        in reference seconds."""
        samples = self.samples
        if not samples:
            # A block shorter than the interval: sample right after it.
            start = time.perf_counter()
            reference_work()
            samples = [time.perf_counter() - start]
        return ((host_seconds - self.spent) * REFERENCE_SECONDS
                / statistics.fmean(samples))
