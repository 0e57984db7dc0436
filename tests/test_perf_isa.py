"""Unit tests for instruction classes and InstrMix algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.perf import CATEGORY, I, InstrMix, MixAccumulator, mix
from repro.perf.isa import ALL_MNEMONICS


class TestInstrMixConstruction:
    def test_empty_mix(self):
        m = InstrMix.empty()
        assert m.total() == 0
        assert not m
        assert m.counts == {}

    def test_keyword_builder(self):
        m = mix(movl=4, mull=1, addl=2, adcl=2)
        assert m.total() == 9
        assert m.count(I.MULL) == 1

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="unknown instruction"):
            InstrMix({"bogus": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            InstrMix({I.MOVL: -1})

    def test_zero_counts_dropped(self):
        m = InstrMix({I.MOVL: 0, I.XORL: 2})
        assert m.counts == {I.XORL: 2.0}

    def test_fractional_counts_allowed(self):
        m = mix(jnz=0.25, decl=0.25)
        assert m.total() == pytest.approx(0.5)

    def test_total_adds_left_to_right(self):
        # A compensated sum (Python 3.12's sum(), math.fsum) gives 0.6.
        assert mix(movl=0.1, xorl=0.2, andl=0.3).total() == 0.6000000000000001

    def test_counts_returns_copy(self):
        m = mix(movl=1)
        m.counts[I.MOVL] = 99
        assert m.count(I.MOVL) == 1


class TestInstrMixAlgebra:
    def test_scale(self):
        m = mix(movl=2, xorl=1)
        assert (m * 3).count(I.MOVL) == 6
        assert (3 * m).count(I.XORL) == 3

    def test_scale_by_one_returns_self(self):
        m = mix(movl=2)
        assert m.scaled(1) is m

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            mix(movl=1).scaled(-2)

    def test_add(self):
        a = mix(movl=2, xorl=1)
        b = mix(movl=1, addl=4)
        c = a + b
        assert c.count(I.MOVL) == 3
        assert c.count(I.ADDL) == 4
        assert c.total() == 8

    def test_equality(self):
        assert mix(movl=2) == mix(movl=2)
        assert mix(movl=2) != mix(movl=3)

    def test_composition_example(self):
        block = mix(movl=10) + mix(xorl=4) * 9 + mix(ret=1)
        assert block.total() == 10 + 36 + 1


class TestInstrMixInspection:
    def test_shares_sum_to_one(self):
        m = mix(movl=3, xorl=1)
        shares = m.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[I.MOVL] == pytest.approx(0.75)

    def test_empty_shares(self):
        assert InstrMix.empty().shares() == {}

    def test_top_ordering(self):
        m = mix(movl=5, xorl=3, addl=1)
        top = m.top(2)
        assert [name for name, _ in top] == [I.MOVL, I.XORL]

    def test_top_ties_break_alphabetically(self):
        m = mix(xorl=1, addl=1)
        assert [n for n, _ in m.top(2)] == [I.ADDL, I.XORL]

    def test_by_category(self):
        m = mix(movl=2, movb=1, xorl=3, mull=1)
        cats = m.by_category()
        assert cats["mem"] == 3
        assert cats["logic"] == 3
        assert cats["mul"] == 1

    def test_every_mnemonic_has_category(self):
        for name in ALL_MNEMONICS:
            assert CATEGORY[name] in {
                "mem", "alu", "logic", "mul", "shift", "ctrl", "stack",
                "nop"}


class TestMixAccumulator:
    def test_accumulate_and_snapshot(self):
        acc = MixAccumulator()
        acc.add(mix(movl=2), times=3)
        acc.add(mix(xorl=1))
        snap = acc.snapshot()
        assert snap.count(I.MOVL) == 6
        assert snap.count(I.XORL) == 1

    def test_total_without_fold(self):
        acc = MixAccumulator()
        acc.add(mix(movl=2, addl=1), times=10)
        assert acc.total() == 30

    def test_total_consistent_after_snapshot(self):
        acc = MixAccumulator()
        acc.add(mix(movl=2), times=5)
        acc.snapshot()
        acc.add(mix(xorl=4))
        assert acc.total() == 14

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 9)),
                    min_size=1, max_size=30))
    def test_accumulator_matches_direct_sum(self, chunks):
        acc = MixAccumulator()
        expected = 0
        for count, times in chunks:
            acc.add(mix(movl=count), times=times)
            expected += count * times
        assert acc.snapshot().count(I.MOVL) == pytest.approx(expected)


@given(st.dictionaries(st.sampled_from(ALL_MNEMONICS),
                       st.floats(0.01, 1000), min_size=1, max_size=10),
       st.floats(0.1, 100))
def test_scaling_preserves_shares(counts, factor):
    m = InstrMix(counts)
    scaled = m * factor
    assert scaled.total() == pytest.approx(m.total() * factor, rel=1e-9)
    for name, share in m.shares().items():
        assert scaled.shares()[name] == pytest.approx(share, rel=1e-9)
