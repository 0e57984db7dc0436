"""Asynchronous crypto-engine offload pool (Section 6.2 as a backend).

Section 6.2 proposes hardware assists -- a parallel cipher+MAC record
engine (Figure 6), an AES round unit, and (from the related multi-core
security-processor work, arXiv 1410.7560) pools of heterogeneous crypto
cores fed by a *preferential* scheduler that sends each operation to the
cheapest core able to serve it.  ``repro.engines`` has modeled those
units in isolation; this module turns them into an execution backend the
web-server simulator and farm can actually run on.

The model splits every offloaded operation into two honest halves:

* **CPU-side dispatch** -- building the descriptor, programming the DMA
  engine and taking the completion interrupt.  Charged to the worker's
  profiler as an instruction mix (``engine_dispatch``), a few hundred
  cycles, inside an ``engine_offload`` region.
* **Engine-side latency** -- the unit's service time, tracked on a
  per-unit completion timeline in the *same* virtual clock the profiler
  advances (``Profiler.now``).  The CPU does **not** block on it: the
  whole point of the asynchronous queue is that record processing for
  one connection overlaps CPU work for the others.

Because the CPU only pays dispatch, an offloaded record is almost free
on the host processor -- until the engines can't keep up.  Each unit
carries a backlog (``free_at - now``); once every capable unit's backlog
exceeds ``OffloadConfig.saturation_cycles`` the scheduler refuses the op
and the caller runs the ordinary software path, paying full CPU price.
That software fallback is the knee in the capacity curve: arrival rate
is CPU-driven, so a saturated pool self-throttles (fallback ops burn CPU
cycles, the engine timeline drains) and capacity degrades smoothly
toward the software-only number instead of diverging.

Records need a capable *cipher* unit and a capable *hash* unit (Figure
6's engine drives both from one descriptor); the preferential scheduler
picks, per op and per role, the available unit with the earliest
projected completion.  Cipher and MAC overlap as in the closed form of
:func:`repro.engines.crypto_engine.fragment_latency`: both passes stream
over the data concurrently, then the cipher makes a short serial pass
over the MAC+padding tail.  RSA private-key operations go to a
``modexp`` unit whose per-op cost scales cubically with the modulus
width, as schoolbook multiplication and exponent length both grow
linearly.

Everything here is plain arithmetic over profiler timestamps: a pool is
deterministic and strictly worker-local -- one pool per farm worker,
like the batcher and the partitioned session-cache shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .. import perf
from ..perf import charge, mix

__all__ = [
    "UnitDesign", "OffloadConfig", "OffloadPool",
    "AES_UNIT", "RC4_UNIT", "GENERIC_CIPHER_UNIT", "HASH_UNIT",
    "MODEXP_UNIT", "default_engine_config", "single_engine_config",
]

#: Descriptor build + DMA programming + completion handling for one record.
RECORD_DISPATCH = mix(movl=160, movb=40, addl=40, cmpl=30, jnz=30,
                      pushl=12, popl=12, call=8, ret=8)

#: Dispatching one modular exponentiation (operands are copied into the
#: unit's register file, so the fixed cost is a little higher).
MODEXP_DISPATCH = mix(movl=240, movb=60, addl=50, cmpl=30, jnz=30,
                      pushl=12, popl=12, call=8, ret=8)

#: Modexp engine cost scales with the cube of the modulus width relative
#: to this reference (n^2 multiplication work x n exponent bits).
MODEXP_REF_BITS = 512


@dataclass(frozen=True)
class UnitDesign:
    """One engine core: what it can do and how fast.

    ``kind`` is ``"cipher"``, ``"hash"`` or ``"modexp"``.  ``rates`` maps
    algorithm names (the :class:`~repro.ssl.ciphersuites.CipherSuite`
    ``cipher``/``mac`` strings, or ``"rsa"``) to cycles per byte -- except
    for modexp units, where the rate is cycles per ``MODEXP_REF_BITS``-bit
    exponentiation.  ``fixed_cycles`` is the unit's per-op setup (key
    schedule load, IV latch).
    """

    kind: str
    rates: Mapping[str, float]
    fixed_cycles: float = 50.0
    label: str = ""

    def rate(self, algo: str) -> Optional[float]:
        return self.rates.get(algo)


#: Section 6.2.2's dedicated AES unit: one round per cycle, ~0.25
#: cycles/byte in a 4-lane arrangement.
AES_UNIT = UnitDesign("cipher", {"aes": 0.25}, label="aes-unit")

#: The 1-byte/1-clock RC4 coprocessor (arXiv 1205.1737).
RC4_UNIT = UnitDesign("cipher", {"rc4": 1.0}, label="rc4-unit")

#: A general-purpose cipher core (microcoded, so slower per byte but
#: capable of every suite cipher) -- the heterogeneous pool's safety net
#: and the target the preferential scheduler spills onto.
GENERIC_CIPHER_UNIT = UnitDesign(
    "cipher", {"aes": 1.0, "3des": 2.0, "des": 1.5, "rc4": 1.5},
    label="cipher-unit")

#: Figure 6's MAC half: MD5/SHA-1 digest pipelines.
HASH_UNIT = UnitDesign("hash", {"md5": 0.75, "sha1": 1.25},
                       label="hash-unit")

#: Public-key assist: one 512-bit modular exponentiation in ~120k engine
#: cycles (vs ~2.3M modeled software cycles), scaling cubically in width.
MODEXP_UNIT = UnitDesign("modexp", {"rsa": 120_000.0}, fixed_cycles=500.0,
                         label="modexp-unit")


@dataclass(frozen=True)
class OffloadConfig:
    """A pool layout plus the scheduler's fallback thresholds.

    ``saturation_cycles`` is the backlog (in virtual cycles) beyond which
    a unit stops accepting work; when every capable unit is past it the
    op falls back to software.  ``min_record_bytes`` keeps tiny records
    (handshake finished messages, HTTP request echoes) on the CPU, where
    the dispatch overhead would not pay for itself.
    """

    units: Tuple[UnitDesign, ...]
    saturation_cycles: float = 200_000.0
    min_record_bytes: int = 256


def single_engine_config() -> OffloadConfig:
    """One record engine (AES cipher + hash pipeline) plus a modexp unit."""
    return OffloadConfig(units=(AES_UNIT, HASH_UNIT, MODEXP_UNIT))


def default_engine_config() -> OffloadConfig:
    """A heterogeneous pool exercising preferential assignment: fast
    dedicated cipher units backed by a slower generic core, two hash
    pipelines, and a modexp assist."""
    return OffloadConfig(units=(AES_UNIT, RC4_UNIT, GENERIC_CIPHER_UNIT,
                                HASH_UNIT, HASH_UNIT, MODEXP_UNIT))


@dataclass
class _UnitState:
    """Mutable per-unit scheduling state (worker-local)."""

    design: UnitDesign
    free_at: float = 0.0
    ops: int = 0
    busy_cycles: float = 0.0
    pending: List[float] = field(default_factory=list)

    def prune(self, now: float) -> None:
        if self.pending and self.pending[0] <= now:
            self.pending = [t for t in self.pending if t > now]


class OffloadPool:
    """Worker-local asynchronous offload queue over a pool of engine cores.

    The pool never touches real bytes: callers run the genuine software
    crypto under a :class:`~repro.perf.Discard` sink (so the transcript
    stays bit-identical to a software run) and this class accounts the
    modeled cost -- dispatch mixes on the live profiler, service time on
    the per-unit timelines.
    """

    def __init__(self, config: OffloadConfig):
        if not config.units:
            raise ValueError("offload pool needs at least one unit")
        self.config = config
        self.units = [_UnitState(design=u) for u in config.units]
        self.ops = 0
        self.record_ops = 0
        self.modexp_ops = 0
        self.fallbacks = 0
        self.skipped_small = 0
        self.engine_cycles = 0.0
        self.latency_cycles = 0.0
        self.peak_backlog_cycles = 0.0
        self.peak_queue_depth = 0

    # -- scheduling ---------------------------------------------------------
    def _pick(self, kind: str, algo: str, nbytes: float,
              now: float) -> Optional[int]:
        """Preferential assignment: cheapest capable, unsaturated unit.

        "Cheapest" is the earliest projected completion of this op on
        that unit -- a backlogged fast core loses to an idle slow one,
        which is exactly the spill behaviour the heterogeneous-pool
        scheduler (arXiv 1410.7560) is after.  Ties break on unit index,
        keeping assignment deterministic.
        """
        best = None
        best_done = 0.0
        for i, unit in enumerate(self.units):
            d = unit.design
            if d.kind != kind:
                continue
            rate = d.rate(algo)
            if rate is None:
                continue
            if unit.free_at - now > self.config.saturation_cycles:
                continue
            done = max(unit.free_at, now) + d.fixed_cycles + rate * nbytes
            if best is None or done < best_done:
                best, best_done = i, done
        return best

    def _commit(self, index: int, start: float, done: float,
                now: float) -> None:
        unit = self.units[index]
        unit.prune(now)
        unit.free_at = done
        unit.ops += 1
        unit.busy_cycles += done - start
        unit.pending.append(done)
        self.engine_cycles += done - start
        self.peak_backlog_cycles = max(self.peak_backlog_cycles, done - now)
        depth = sum(len(u.pending) for u in self.units)
        self.peak_queue_depth = max(self.peak_queue_depth, depth)

    # -- record offload -----------------------------------------------------
    def submit_record(self, direction: str, cipher_algo: str,
                      hash_algo: str, data_bytes: int,
                      tail_bytes: int) -> bool:
        """Try to offload one record (seal or open).

        On success the dispatch mix is charged to the live profiler (in
        an ``engine_offload`` region), the chosen cipher+hash units'
        timelines advance, and the caller must run the real crypto under
        a discard sink.  On refusal nothing is charged and the
        caller takes the ordinary software path.
        """
        if data_bytes < self.config.min_record_bytes:
            self.skipped_small += 1
            return False
        now = perf.current().now()
        ci = self._pick("cipher", cipher_algo, data_bytes + tail_bytes, now)
        hi = self._pick("hash", hash_algo, data_bytes, now)
        if ci is None or hi is None:
            self.fallbacks += 1
            return False
        cunit, hunit = self.units[ci], self.units[hi]
        c_rate = cunit.design.rate(cipher_algo)
        h_rate = hunit.design.rate(hash_algo)
        with perf.region("engine_offload"):
            charge(RECORD_DISPATCH, function="engine_dispatch",
                   module=perf.LIBCRYPTO)
            now = perf.current().now()
            # Figure 6 overlap: cipher and MAC stream the payload
            # concurrently; the cipher then covers the MAC+padding tail.
            c_start = max(cunit.free_at, now)
            h_start = max(hunit.free_at, now)
            hash_done = h_start + hunit.design.fixed_cycles + \
                h_rate * data_bytes
            data_done = c_start + cunit.design.fixed_cycles + \
                c_rate * data_bytes
            done = max(data_done, hash_done) + c_rate * tail_bytes
            self._commit(hi, h_start, hash_done, now)
            self._commit(ci, c_start, done, now)
            self.latency_cycles += done - now
            self.ops += 1
            self.record_ops += 1
        return True

    # -- RSA offload --------------------------------------------------------
    def rsa_decrypt(self, key, ciphertext: bytes) -> bytes:
        """Private-key decrypt through the modexp unit, if one is free.

        The real decrypt still runs (under a discard sink) so the
        pre-master bytes, blinding RNG advance and padding-failure
        behaviour are identical to software; only the modeled cost moves
        to the engine.  Saturated or absent modexp units fall back to
        the plain software decrypt.
        """
        bits = key.n.nbits()
        # Exponent length and operand width both scale the engine's
        # schoolbook multiplier cubically.
        scale = (bits / MODEXP_REF_BITS) ** 3
        mi = self._pick("modexp", "rsa", 0.0, perf.current().now())
        if mi is None:
            self.fallbacks += 1
            return key.decrypt(ciphertext)
        unit = self.units[mi]
        service = unit.design.rate("rsa") * scale
        with perf.region("engine_offload"):
            # The one-shot error-string load is CPU-side library state;
            # pay it on the live profiler before the discarded run.
            key.charge_error_load()
            charge(MODEXP_DISPATCH, function="engine_dispatch",
                   module=perf.LIBCRYPTO)
            now = perf.current().now()
            start = max(unit.free_at, now)
            done = start + unit.design.fixed_cycles + service
            self._commit(mi, start, done, now)
            self.latency_cycles += done - now
            self.ops += 1
            self.modexp_ops += 1
        with perf.activate(perf.Discard()):
            return key.decrypt(ciphertext)

    # -- reporting ----------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Stats dict for results/baselines (deterministic, JSON-safe)."""
        if now is None:
            now = perf.current().now()
        units = []
        for unit in self.units:
            utilization = unit.busy_cycles / now if now > 0 else 0.0
            units.append({
                "label": unit.design.label or unit.design.kind,
                "kind": unit.design.kind,
                "ops": unit.ops,
                "busy_cycles": round(unit.busy_cycles, 3),
                "utilization": round(min(utilization, 1.0), 6),
            })
        return {
            "ops": self.ops,
            "record_ops": self.record_ops,
            "modexp_ops": self.modexp_ops,
            "fallbacks": self.fallbacks,
            "skipped_small": self.skipped_small,
            "engine_cycles": round(self.engine_cycles, 3),
            "latency_cycles": round(self.latency_cycles, 3),
            "peak_backlog_cycles": round(self.peak_backlog_cycles, 3),
            "peak_queue_depth": self.peak_queue_depth,
            "units": units,
        }
