"""x86-like instruction classes and instruction-mix bookkeeping.

The paper characterizes each cryptographic kernel by the IA-32 instructions it
executes (Table 12) and by derived metrics -- path length in instructions per
byte, CPI, and throughput (Table 11).  This module provides the vocabulary for
that characterization: a fixed set of instruction mnemonics (the ones that
appear in the paper's tables, plus a few needed to describe complete loops)
and :class:`InstrMix`, a multiset of instruction counts.

Every instrumented kernel in this repository declares, next to its Python
implementation, the instruction mix that one execution of the corresponding
classic 32-bit x86 implementation would retire.  Those constants are built
with :func:`mix`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Tuple


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.  Modeled totals use this,
    not ``sum()``: from Python 3.12, ``sum()`` of floats compensates
    rounding error, so a total would depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


class I:
    """Mnemonics for the instruction classes used throughout the model.

    The names follow AT&T syntax as printed in the paper (``movl``, ``adcl``,
    ...).  They are plain strings so that an :class:`InstrMix` is an ordinary
    ``str -> int`` mapping.
    """

    # Data movement
    MOVL = "movl"      # 32-bit load/store/reg-reg move
    MOVB = "movb"      # 8-bit move
    MOVZBL = "movzbl"  # zero-extending byte load (table-index extraction)
    LEAL = "leal"      # address computation / 3-operand add
    BSWAP = "bswap"    # byte swap (big-endian loads in SHA-1)
    # Logical
    XORL = "xorl"
    XORB = "xorb"
    ANDL = "andl"
    ANDB = "andb"
    ORL = "orl"
    NOTL = "notl"
    # Arithmetic
    ADDL = "addl"
    ADDB = "addb"
    ADCL = "adcl"      # add with carry (bignum kernels)
    SUBL = "subl"
    SBBL = "sbbl"      # subtract with borrow
    MULL = "mull"      # 32x32 -> 64 unsigned multiply
    INCL = "incl"
    DECL = "decl"
    # Shifts and rotates
    SHRL = "shrl"
    SHLL = "shll"
    ROLL = "roll"
    RORL = "rorl"
    # Control / stack / misc
    CMPL = "cmpl"
    JNZ = "jnz"        # conditional branch (any jcc)
    JMP = "jmp"
    CALL = "call"
    RET = "ret"
    PUSHL = "pushl"
    POPL = "popl"
    NOP = "nop"


#: Broad category for each mnemonic; used by reports and by the ISA-extension
#: models in :mod:`repro.engines.isa_ext`.
CATEGORY: Dict[str, str] = {
    I.MOVL: "mem", I.MOVB: "mem", I.MOVZBL: "mem", I.LEAL: "alu", I.BSWAP: "alu",
    I.XORL: "logic", I.XORB: "logic", I.ANDL: "logic", I.ANDB: "logic",
    I.ORL: "logic", I.NOTL: "logic",
    I.ADDL: "alu", I.ADDB: "alu", I.ADCL: "alu", I.SUBL: "alu", I.SBBL: "alu",
    I.MULL: "mul", I.INCL: "alu", I.DECL: "alu",
    I.SHRL: "shift", I.SHLL: "shift", I.ROLL: "shift", I.RORL: "shift",
    I.CMPL: "alu", I.JNZ: "ctrl", I.JMP: "ctrl", I.CALL: "ctrl", I.RET: "ctrl",
    I.PUSHL: "stack", I.POPL: "stack", I.NOP: "nop",
}

ALL_MNEMONICS: Tuple[str, ...] = tuple(CATEGORY)


class InstrMix:
    """An immutable multiset of instruction counts.

    Counts may be fractional: a mix frequently describes the *average* work of
    one iteration of a kernel (e.g. one AES round), where data-dependent paths
    contribute expected values.

    Mixes support scaling and addition so that per-block constants compose
    into per-message totals::

        block = AES_INIT_MIX + AES_ROUND_MIX * 9 + AES_FINAL_MIX
    """

    __slots__ = ("_counts", "_total", "_cost_cpu", "_cost_base")

    def __init__(self, counts: Dict[str, float] | None = None):
        # Single-entry cycle-cost memo, managed by CpuModel.cycles().  The
        # cached CpuModel is held by strong reference so its identity check
        # is safe against id reuse.
        self._cost_cpu = None
        self._cost_base = 0.0
        c: Dict[str, float] = {}
        if counts:
            for name, n in counts.items():
                if name not in CATEGORY:
                    raise ValueError(f"unknown instruction mnemonic: {name!r}")
                if n < 0:
                    raise ValueError(f"negative count for {name!r}: {n}")
                if n:
                    c[name] = float(n)
        self._counts = c
        self._total = left_sum(c.values())

    # -- construction -----------------------------------------------------
    @classmethod
    def empty(cls) -> "InstrMix":
        return cls()

    # -- inspection --------------------------------------------------------
    @property
    def counts(self) -> Dict[str, float]:
        """A copy of the underlying ``mnemonic -> count`` mapping."""
        return dict(self._counts)

    def count(self, mnemonic: str) -> float:
        return self._counts.get(mnemonic, 0.0)

    def total(self) -> float:
        """Total number of (dynamic) instructions in the mix."""
        return self._total

    def shares(self) -> Dict[str, float]:
        """Fraction of the mix contributed by each mnemonic (sums to 1)."""
        if not self._total:
            return {}
        return {k: v / self._total for k, v in self._counts.items()}

    def top(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` most frequent mnemonics as ``(name, share)`` pairs."""
        order = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        total = self._total or 1.0
        return [(name, cnt / total) for name, cnt in order[:n]]

    def by_category(self) -> Dict[str, float]:
        """Instruction counts aggregated by :data:`CATEGORY`."""
        agg: Counter = Counter()
        for name, cnt in self._counts.items():
            agg[CATEGORY[name]] += cnt
        return dict(agg)

    # -- algebra -----------------------------------------------------------
    def scaled(self, factor: float) -> "InstrMix":
        if factor == 1:
            return self
        if factor < 0:
            raise ValueError("cannot scale a mix by a negative factor")
        return InstrMix({k: v * factor for k, v in self._counts.items()})

    def __mul__(self, factor: float) -> "InstrMix":
        return self.scaled(factor)

    __rmul__ = __mul__

    def __add__(self, other: "InstrMix") -> "InstrMix":
        if not isinstance(other, InstrMix):
            return NotImplemented
        merged = dict(self._counts)
        for k, v in other._counts.items():
            merged[k] = merged.get(k, 0.0) + v
        return InstrMix(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstrMix):
            return NotImplemented
        return self._counts == other._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"InstrMix({inner})"


def mix(**counts: float) -> InstrMix:
    """Build an :class:`InstrMix` from keyword counts.

    Example::

        INNER = mix(movl=4, mull=1, addl=2, adcl=2)
    """
    return InstrMix(counts)


class MixAccumulator:
    """A mutable accumulator for instruction mixes.

    :class:`InstrMix` is immutable for safe sharing of constants; profilers
    accumulate into this mutable counterpart instead.  ``add`` is O(1): it
    appends to a pending list and folds into the counter only when a result
    is requested, because profiled kernels charge millions of times while
    results are read once per experiment.

    A pending item is an ``(InstrMix, times)`` entry or a charge-plan
    record ``(plans, key)``, one per :meth:`Profiler.charge_plans` call,
    which stands for each plan's ``_shares[key]`` entries in plan order:
    key None for all of a plan's steps, a function name for that
    function's.  A fold expands a record into those entries, so it folds
    the ``(mix, times)`` sequence the expanded charges would have added.
    """

    __slots__ = ("_counts", "_pending", "_total")

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._pending: List[tuple] = []
        # The instruction total, summed entry by entry in the order the
        # entries were added, and *never* recomputed from ``_counts``:
        # summing the per-mnemonic columns would group the float additions
        # differently and can differ in the last ulp.  Every fold takes
        # the entries in order, so the total is the same left-to-right
        # chain whenever, and however often, folds happen.
        self._total = 0.0

    def add(self, m: InstrMix, times: float = 1.0) -> None:
        self._pending.append((m, times))

    def _entries(self) -> Iterator[Tuple[InstrMix, float]]:
        for head, key in self._pending:
            if isinstance(head, tuple):
                for plan in head:
                    yield from plan._shares.get(key, ())
            else:
                yield head, key

    def _fold(self) -> None:
        if not self._pending:
            return
        counts = self._counts
        total = self._total
        for m, times in self._entries():
            total += m._total * times
            for k, v in m._counts.items():
                counts[k] += v * times
        self._total = total
        self._pending.clear()

    def snapshot(self) -> InstrMix:
        self._fold()
        return InstrMix(dict(self._counts))

    def total(self) -> float:
        self._fold()
        return self._total
