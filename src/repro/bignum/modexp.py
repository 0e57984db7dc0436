"""Sliding-window Montgomery modular exponentiation (``BN_mod_exp_mont``).

This is "step 4: RSA computation" of Table 7 -- 97-99% of an RSA private
operation.  The implementation mirrors OpenSSL's: a window size chosen from
the exponent length, a table of odd powers in Montgomery form, and a
square-and-multiply scan of the exponent.

The fast path runs the same scan over registers from
:meth:`MontgomeryContext.registers`: BIGNUMs with one libcrypto
``BN_mod_mul_montgomery`` per product where the binding is on, Python
ints otherwise.  Every product it makes is a register product, the
conversions into and out of Montgomery form included.  The scan is one
``chain`` call over the exponent's window decomposition, cached per
exponent, and returns each product's bit length.  Each product is
charged the plan of its operands' word counts, read from the bit length
of the product before it, so the plans are built from those lengths
after the chain and charged as the faithful loop charges them.
"""

from __future__ import annotations

import functools
import itertools
from typing import Tuple

from ..perf import charge, charge_plans, mix
from ..runtime import fastpath_enabled
from .bn import BigNum
from .kernels import WORD_BITS, words_from_int
from .montgomery import MontgomeryContext, _mul_row, _redc_plan, _sqr_row

#: Per-exponent-bit scan overhead in BN_mod_exp_mont (bit extraction, window
#: assembly, branches) -- small next to the Montgomery multiplications.
EXP_BIT_SCAN = mix(movl=3, shrl=1, andl=1, cmpl=1, jnz=1)


def window_bits_for_exponent_size(bits: int) -> int:
    """OpenSSL's ``BN_window_bits_for_exponent_size`` thresholds."""
    if bits > 671:
        return 6
    if bits > 239:
        return 5
    if bits > 79:
        return 4
    if bits > 23:
        return 3
    return 1


def mod_exp(base: BigNum, exponent: BigNum, modulus: BigNum,
            mont: MontgomeryContext | None = None) -> BigNum:
    """``base ** exponent mod modulus`` for an odd modulus.

    A precomputed :class:`MontgomeryContext` for ``modulus`` may be supplied
    (RSA keys cache one per prime); otherwise one is built on the fly.
    """
    if modulus.is_zero() or not modulus.is_odd():
        raise ValueError("mod_exp requires an odd modulus")
    if mont is None:
        mont = MontgomeryContext(modulus)
    elif mont.n != modulus:
        raise ValueError("Montgomery context does not match modulus")

    bits = exponent.nbits()
    if bits == 0:
        return BigNum.one().mod(modulus)

    wsize = window_bits_for_exponent_size(bits)
    charge(EXP_BIT_SCAN, times=bits, function="BN_mod_exp_mont")

    if mont.reduction == "interleaved" and fastpath_enabled():
        return _mod_exp_fast(base, exponent, mont, wsize)

    # Precompute odd powers: table[i] = base^(2i+1) in Montgomery form.
    table = [mont.to_mont(base)]
    if wsize > 1:
        base_sq = mont.sqr(table[0])
        for _ in range(1, 1 << (wsize - 1)):
            table.append(mont.mul(table[-1], base_sq))

    acc = mont.one()
    started = False  # skip leading squarings of 1
    i = bits - 1
    while i >= 0:
        if exponent.bit(i) == 0:
            if started:
                acc = mont.sqr(acc)
            i -= 1
            continue
        # Take the longest window [j..i] that starts and ends with a set bit.
        j = max(i - wsize + 1, 0)
        while exponent.bit(j) == 0:
            j += 1
        value = 0
        for k in range(i, j - 1, -1):
            value = (value << 1) | exponent.bit(k)
        if started:
            for _ in range(i - j + 1):
                acc = mont.sqr(acc)
            acc = mont.mul(acc, table[(value - 1) >> 1])
        else:
            acc = table[(value - 1) >> 1]
            started = True
        i = j - 1

    return mont.from_mont(acc)


@functools.lru_cache(maxsize=64)
def _scan(e: int) -> Tuple[int, bytes]:
    """The window scan of exponent ``e`` > 0, as the fast path runs it:
    the table index of its first window, then the operand register of
    each later product -- ``k`` to multiply by ``table[k]``, or the
    accumulator's own number (the table size) to square.  The same
    windows as the faithful loop above; cached because a key's few
    exponents recur on every private operation."""
    bits = e.bit_length()
    wsize = window_bits_for_exponent_size(bits)
    acc = 1 << (wsize - 1)
    first = -1
    ops = bytearray()
    i = bits - 1
    while i >= 0:
        if not (e >> i) & 1:
            ops.append(acc)
            i -= 1
            continue
        # Take the longest window [j..i] that starts and ends with a set bit.
        j = max(i - wsize + 1, 0)
        while not (e >> j) & 1:
            j += 1
        k = ((e >> j) & ((1 << (i - j + 1)) - 1)) >> 1
        if first < 0:
            first = k  # the top bit is set: its window starts the scan
        else:
            ops += bytes([acc]) * (i - j + 1)
            ops.append(k)
        i = j - 1
    return first, bytes(ops)


def _mod_exp_fast(base: BigNum, exponent: BigNum, mont: MontgomeryContext,
                  wsize: int) -> BigNum:
    """Fast-path exponentiation: the window scan above over registers.

    Registers ``0 .. size - 1`` hold the odd powers, then come the
    accumulator, the base's square and a constant: RR, whose product
    with ``base mod n`` is ``to_mont``, and then 1, whose product with
    the accumulator is ``from_mont``.  ``one()`` is charged, as
    ``BigNum.one().mod(n)`` and the plan of its product by RR, but not
    made: the scan starts from its first window.  The scan itself is
    one :meth:`chain` call over the exponent's cached :func:`_scan`,
    which returns each product's bit length; each product's plan is
    then keyed by its operands' word counts, taken from the bit length
    before it.  Each phase charges its plans in one call, in the order
    the faithful loop would have charged them, so the modeled cost of
    an exponentiation is unchanged.
    """
    n = mont.nwords
    size = 1 << (wsize - 1)
    acc, base_sq, const = size, size + 1, size + 2
    sqr = _sqr_row(n)
    by_rr = _mul_row(mont.rr.nwords(), n)
    regs = mont.registers(size + 3)
    reduced = base.mod(mont.n)
    regs.set(0, reduced.to_int())
    regs.set(const, mont.rr.to_int())
    plans = [by_rr[reduced.nbits()]]
    tbits = [regs.product(0, 0, const)]
    if wsize > 1:
        plans.append(sqr[tbits[0]])
        row = _mul_row(-(-regs.product(base_sq, 0, 0) // WORD_BITS), n)
        for i in range(1, size):
            plans.append(row[tbits[-1]])
            tbits.append(regs.product(i, i - 1, base_sq))
    charge_plans(plans)  # before one()'s charges
    plans = [by_rr[BigNum.one().mod(mont.n).nbits()]]
    # The plan row of each operand register: table[k]'s, then, at the
    # accumulator's number (the table size), the square's.
    rows = [_mul_row(-(-b // WORD_BITS), n) for b in tbits]
    rows.append(sqr)

    first, ops = _scan(exponent.to_int())
    regs.copy(acc, first)  # squaring in place must not touch table[first]
    lengths = regs.chain(acc, ops)
    plans += [rows[op][b]
              for op, b in zip(ops, itertools.chain((tbits[first],), lengths))]
    plans.append(_redc_plan(n))
    regs.set(const, 1)
    regs.product(acc, acc, const)
    result = regs.get(acc)
    charge_plans(plans)
    return BigNum(words_from_int(result, n))
