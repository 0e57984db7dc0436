"""Unit + property tests for sliding-window modular exponentiation."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.bignum import (
    BigNum, MontgomeryContext, mod_exp, window_bits_for_exponent_size,
)
from repro.crypto import native

odd_modulus = st.integers(3, 2**192).map(lambda x: x | 1)


class TestWindowSizes:
    def test_openssl_thresholds(self):
        assert window_bits_for_exponent_size(1024) == 6
        assert window_bits_for_exponent_size(512) == 5
        assert window_bits_for_exponent_size(160) == 4
        assert window_bits_for_exponent_size(64) == 3
        assert window_bits_for_exponent_size(17) == 1

    def test_monotone_nonincreasing_downward(self):
        sizes = [window_bits_for_exponent_size(b) for b in
                 (2048, 1024, 672, 671, 240, 239, 80, 79, 24, 23, 1)]
        assert sizes == sorted(sizes, reverse=True)


class TestModExp:
    @given(odd_modulus, st.integers(0, 2**192), st.integers(0, 2**64))
    @settings(max_examples=40, deadline=None)
    def test_matches_python_pow(self, m, base, exp):
        result = mod_exp(BigNum.from_int(base % m), BigNum.from_int(exp),
                         BigNum.from_int(m))
        assert result.to_int() == pow(base % m, exp, m)

    def test_exponent_zero(self):
        m = BigNum.from_int(101)
        assert mod_exp(BigNum.from_int(7), BigNum.zero(), m).to_int() == 1

    def test_exponent_one(self):
        m = BigNum.from_int(101)
        assert mod_exp(BigNum.from_int(7), BigNum.one(), m).to_int() == 7

    def test_base_zero(self):
        m = BigNum.from_int(101)
        assert mod_exp(BigNum.zero(), BigNum.from_int(17), m).to_int() == 0

    def test_base_one(self):
        m = BigNum.from_int(101)
        assert mod_exp(BigNum.one(), BigNum.from_int(9999), m).to_int() == 1

    def test_fermat_little_theorem(self):
        p = 0xFFFFFFFFFFFFFFC5  # a 64-bit prime
        a = 123456789
        assert mod_exp(BigNum.from_int(a), BigNum.from_int(p - 1),
                       BigNum.from_int(p)).to_int() == 1

    def test_large_dense_exponent(self):
        # All-ones exponent exercises maximal window usage.
        m = (1 << 192) + 133
        e = (1 << 160) - 1
        assert mod_exp(BigNum.from_int(3), BigNum.from_int(e),
                       BigNum.from_int(m)).to_int() == pow(3, e, m)

    def test_sparse_exponent(self):
        # Single high bit: all squarings, one table entry.
        m = (1 << 128) + 1
        e = 1 << 127
        assert mod_exp(BigNum.from_int(5), BigNum.from_int(e),
                       BigNum.from_int(m)).to_int() == pow(5, e, m)

    @pytest.mark.parametrize("exp", [
        0b101,                                  # 1-bit windows: table[0]
        (0b101 << 30) | 0b101,                  # 3-bit windows: 5, then 5
        (0b110001 << 700) | (0b110001 << 300) | 0b110001,   # 6-bit: 49
    ], ids=["1-bit", "3-bit", "6-bit"])
    def test_first_window_power_recurs(self, exp):
        """The accumulator starts as the first window's odd power and is
        squared in place; when that power is needed again later it must
        still be in the table, on every host."""
        m = (1 << 1024) - 105                   # odd, 32 words
        for fast, on in ((True, native.available), (True, False),
                         (False, False)):
            with runtime.fastpath(fast), \
                    mock.patch.object(native, "available", on):
                got = mod_exp(BigNum.from_int(7), BigNum.from_int(exp),
                              BigNum.from_int(m))
            assert got.to_int() == pow(7, exp, m)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_exp(BigNum.from_int(2), BigNum.from_int(3),
                    BigNum.from_int(100))

    def test_precomputed_context_reuse(self):
        m = BigNum.from_int((1 << 160) + 7)
        ctx = MontgomeryContext(m)
        for base in (2, 3, 5):
            got = mod_exp(BigNum.from_int(base), BigNum.from_int(65537), m,
                          ctx)
            assert got.to_int() == pow(base, 65537, m.to_int())

    def test_mismatched_context_rejected(self):
        m1 = BigNum.from_int((1 << 96) + 3)
        m2 = BigNum.from_int((1 << 96) + 61)
        ctx = MontgomeryContext(m1)
        with pytest.raises(ValueError, match="does not match"):
            mod_exp(BigNum.from_int(2), BigNum.from_int(3), m2, ctx)

    def test_work_scales_with_exponent_bits(self, isolated_profiler):
        from repro import perf
        m = BigNum.from_int((1 << 256) + 297)
        p1 = perf.Profiler()
        with perf.activate(p1):
            mod_exp(BigNum.from_int(7), BigNum.from_int((1 << 64) - 1), m)
        p2 = perf.Profiler()
        with perf.activate(p2):
            mod_exp(BigNum.from_int(7), BigNum.from_int((1 << 128) - 1), m)
        # Doubling exponent bits should roughly double the multiply work.
        ratio = p2.total_cycles() / p1.total_cycles()
        assert 1.5 < ratio < 3.0
