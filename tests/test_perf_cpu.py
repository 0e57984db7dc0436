"""Unit tests for the CPU cost model."""

import pytest

from repro.perf import CpuModel, DEFAULT_COSTS, PENTIUM4, mix
from repro.perf.isa import ALL_MNEMONICS


class TestCpuModel:
    def test_default_frequency_is_papers_machine(self):
        assert PENTIUM4.frequency_hz == pytest.approx(2.26e9)

    def test_every_mnemonic_priced(self):
        for name in ALL_MNEMONICS:
            assert name in DEFAULT_COSTS

    def test_missing_cost_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            CpuModel(costs={"movl": 0.5})

    def test_cycles_linear_in_counts(self):
        m = mix(movl=10)
        assert PENTIUM4.cycles(m * 2) == pytest.approx(
            2 * PENTIUM4.cycles(m))

    def test_cycles_additive(self):
        a, b = mix(movl=3), mix(mull=2)
        assert PENTIUM4.cycles(a + b) == pytest.approx(
            PENTIUM4.cycles(a) + PENTIUM4.cycles(b))

    def test_stall_factor_scales_cycles(self):
        m = mix(xorl=100)
        assert PENTIUM4.cycles(m, 1.5) == pytest.approx(
            1.5 * PENTIUM4.cycles(m))

    def test_stall_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            PENTIUM4.cycles(mix(movl=1), 0)

    def test_cycles_add_left_to_right(self):
        # The left-to-right float sum, on every interpreter; Python 3.12's
        # compensated sum() gives 55.46.
        from repro.ssl.record import RECORD_CALL
        assert PENTIUM4.cycles(RECORD_CALL) == 55.46000000000001

    def test_cpi_of_empty_mix_is_zero(self):
        from repro.perf import InstrMix
        assert PENTIUM4.cpi(InstrMix.empty()) == 0.0

    def test_cpi_is_cycles_over_instructions(self):
        m = mix(movl=4, mull=1)
        assert PENTIUM4.cpi(m) == pytest.approx(
            PENTIUM4.cycles(m) / 5)

    def test_multiply_costs_more_than_logical(self):
        assert DEFAULT_COSTS["mull"] > 5 * DEFAULT_COSTS["xorl"]

    def test_cost_memo_does_not_leak_between_models(self):
        m = mix(movl=100)
        base = PENTIUM4.cycles(m)
        slow = CpuModel(name="slow", costs={k: v * 2
                                            for k, v in DEFAULT_COSTS.items()})
        assert slow.cycles(m) == pytest.approx(2 * base)
        assert PENTIUM4.cycles(m) == pytest.approx(base)


class TestDerivedMetrics:
    def test_seconds(self):
        assert PENTIUM4.seconds(2.26e9) == pytest.approx(1.0)

    def test_throughput_mbps(self):
        # 1 MB in 2.26e9 cycles (1 s) = 1 MB/s
        assert PENTIUM4.throughput_mbps(1_000_000, 2.26e9) == pytest.approx(
            1.0)

    def test_throughput_requires_positive_cycles(self):
        with pytest.raises(ValueError):
            PENTIUM4.throughput_mbps(100, 0)

    def test_path_length(self):
        assert PENTIUM4.path_length(5000, 100) == pytest.approx(50.0)

    def test_path_length_requires_positive_bytes(self):
        with pytest.raises(ValueError):
            PENTIUM4.path_length(100, 0)


class TestAlternativeCores:
    def test_models_cover_all_mnemonics(self):
        from repro.perf import PENTIUM3, WIDE_CORE
        from repro.perf.isa import ALL_MNEMONICS
        for cpu in (PENTIUM3, WIDE_CORE):
            for name in ALL_MNEMONICS:
                assert name in cpu.costs, (cpu.name, name)

    def test_wide_core_cheaper_everywhere(self):
        from repro.perf import PENTIUM4, WIDE_CORE
        m = mix(movl=100, xorl=50, mull=10, roll=20)
        assert WIDE_CORE.cycles(m) < PENTIUM4.cycles(m)
        assert WIDE_CORE.frequency_hz > PENTIUM4.frequency_hz

    def test_p6_rotates_cheaper_than_p4(self):
        """The microarchitectural quirk the models encode: the P4's slow
        shifter versus the P6's fast barrel shifter."""
        from repro.perf import PENTIUM3, PENTIUM4
        rotates = mix(roll=100)
        alu = mix(addl=100)
        p4_ratio = PENTIUM4.cycles(rotates) / PENTIUM4.cycles(alu)
        p6_ratio = PENTIUM3.cycles(rotates) / PENTIUM3.cycles(alu)
        assert p6_ratio < p4_ratio

    def test_multiplier_relative_cost_drops_on_wide_core(self):
        from repro.perf import PENTIUM4, WIDE_CORE
        assert (WIDE_CORE.costs["mull"] / WIDE_CORE.costs["addl"]) < \
            (PENTIUM4.costs["mull"] / PENTIUM4.costs["addl"])
