"""Cost model that converts instruction mixes into cycles.

The paper measured a 2.26 GHz Intel Pentium 4 with VTune/Oprofile and reported
per-kernel cycle counts, CPI (0.52 -- 0.77 across the crypto kernels, Table
11) and throughput.  We replace the physical machine with a small analytic
model:

* each instruction class has a *reciprocal-throughput* cost in cycles -- the
  average number of cycles one such instruction occupies on the modelled
  3-wide out-of-order core when surrounded by typical crypto-kernel code and
  hitting the L1 cache (the paper notes the kernels are compute-bound and
  L1-resident);

* a per-kernel *stall factor* scales the throughput-limited estimate to
  account for dependency chains the linear model cannot see.  MD5, for
  example, is a single serial chain (every step consumes the previous step's
  output), while SHA-1's message schedule provides independent work that the
  core can overlap -- which is why the paper measures MD5 at CPI 0.72 but
  SHA-1 at 0.52 despite near-identical instruction vocabularies.  Stall
  factors are declared next to each kernel's mix constant with a comment
  deriving them from the dependency structure.

The per-class costs below are the model's calibrated parameters; they were
fit once against Table 11 and are validated by
``tests/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .isa import CATEGORY, I, InstrMix, left_sum


#: Default per-class reciprocal-throughput costs (cycles per instruction).
#: Loads/stores and simple ALU ops issue multiple-per-cycle on the modelled
#: core; multiplies serialize through the single multiplier pipe.
DEFAULT_COSTS: Dict[str, float] = {
    I.MOVL: 0.52, I.MOVB: 0.52, I.MOVZBL: 0.52, I.LEAL: 0.45, I.BSWAP: 0.60,
    I.XORL: 0.42, I.XORB: 0.42, I.ANDL: 0.42, I.ANDB: 0.42, I.ORL: 0.42,
    I.NOTL: 0.42,
    I.ADDL: 0.42, I.ADDB: 0.42, I.ADCL: 0.50, I.SUBL: 0.42, I.SBBL: 0.50,
    I.MULL: 3.15, I.INCL: 0.42, I.DECL: 0.42,
    I.SHRL: 0.50, I.SHLL: 0.50, I.ROLL: 0.55, I.RORL: 0.55,
    I.CMPL: 0.42, I.JNZ: 0.55, I.JMP: 0.55, I.CALL: 2.50, I.RET: 2.50,
    I.PUSHL: 0.55, I.POPL: 0.55, I.NOP: 0.30,
}


@dataclass(frozen=True)
class CpuModel:
    """An analytic CPU: frequency plus per-instruction-class cycle costs."""

    name: str = "P4-2.26"
    frequency_hz: float = 2.26e9
    costs: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_COSTS))

    def __post_init__(self) -> None:
        missing = [m for m in CATEGORY if m not in self.costs]
        if missing:
            raise ValueError(f"cost table missing mnemonics: {missing}")

    # -- core conversions ---------------------------------------------------
    def cycles(self, m: InstrMix, stall_factor: float = 1.0) -> float:
        """Cycles to retire ``m`` given the kernel's dependency stall factor."""
        if stall_factor <= 0:
            raise ValueError("stall_factor must be positive")
        if m._cost_cpu is self:
            base = m._cost_base
        else:
            c = self.costs
            base = left_sum(cnt * c[name] for name, cnt in m._counts.items())
            m._cost_cpu = self
            m._cost_base = base
        return base * stall_factor

    def cpi(self, m: InstrMix, stall_factor: float = 1.0) -> float:
        """Cycles per instruction for the mix (Table 11's CPI column)."""
        total = m.total()
        if not total:
            return 0.0
        return self.cycles(m, stall_factor) / total

    # -- derived metrics ----------------------------------------------------
    def seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def throughput_mbps(self, nbytes: int, cycles: float) -> float:
        """Throughput in megabytes per second (Table 11's throughput column)."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        return nbytes / self.seconds(cycles) / 1e6

    def path_length(self, instructions: float, nbytes: int) -> float:
        """Instructions retired per byte processed (Table 11's path length)."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return instructions / nbytes


#: The machine the paper profiled: a 2.26 GHz Pentium 4 workstation.
PENTIUM4 = CpuModel()


def _scaled(base: Dict[str, float], factor: float,
            overrides: Dict[str, float] | None = None) -> Dict[str, float]:
    out = {k: v * factor for k, v in base.items()}
    if overrides:
        out.update(overrides)
    return out


#: A P6-class core (Pentium III era, ~1 GHz): narrower issue (everything a
#: bit slower per clock) but a fast barrel shifter -- the P4's
#: double-pumped ALU had notoriously slow shifts/rotates, the P6 did not.
PENTIUM3 = CpuModel(
    name="P6-1.0", frequency_hz=1.0e9,
    costs=_scaled(DEFAULT_COSTS, 1.25, {
        I.SHRL: 0.45, I.SHLL: 0.45, I.ROLL: 0.45, I.RORL: 0.45,
        I.MULL: 4.0,
    }))

#: A modern wide out-of-order core (~3 GHz, 4+-wide, 3-cycle pipelined
#: multiplier): per-instruction reciprocal throughputs roughly halve and
#: the multiplier stops dominating RSA.
WIDE_CORE = CpuModel(
    name="wide-3.0", frequency_hz=3.0e9,
    costs=_scaled(DEFAULT_COSTS, 0.55, {
        I.MULL: 1.0, I.ADCL: 0.30, I.SBBL: 0.30,
        I.CALL: 1.5, I.RET: 1.5,
    }))
