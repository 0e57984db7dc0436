"""Sliding-window Montgomery modular exponentiation (``BN_mod_exp_mont``).

This is "step 4: RSA computation" of Table 7 -- 97-99% of an RSA private
operation.  The implementation mirrors OpenSSL's: a window size chosen from
the exponent length, a table of odd powers in Montgomery form, and a
square-and-multiply scan of the exponent.
"""

from __future__ import annotations

from typing import List

from ..perf import ChargePlan, charge, charge_plans, mix
from ..runtime import fastpath_enabled
from .bn import BigNum
from .kernels import words_from_int
from .montgomery import MontgomeryContext

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
        return _mod_exp_int(base, exponent, mont, bits, wsize)

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


def _mod_exp_int(base: BigNum, exponent: BigNum, mont: MontgomeryContext,
                 bits: int, wsize: int) -> BigNum:
    """Fast-path exponentiation loop holding intermediates as native ints.

    Mirrors the window scan above; the only change is representation.  The
    exponent is read as one int, so a window's value is one shift and
    mask.  ``to_mont``/``one`` still run through the BigNum entry points
    (once each).  The Montgomery operations of the table build and of the
    exponent scan collect their charge plans, which are
    bit-identical to the word-array path's charges, and each phase
    charges its plans in one call, in the order the faithful loop would
    have charged them, so the modeled cost of an exponentiation is
    unchanged.
    """
    table = [mont.to_mont(base).to_int()]
    plans: List[ChargePlan] = []
    if wsize > 1:
        base_sq = mont._sqr(table[0], plans)
        for _ in range(1, 1 << (wsize - 1)):
            table.append(mont._mul(table[-1], base_sq, plans))
        charge_plans(plans)  # before one()'s charges
        plans.clear()

    acc = mont.one().to_int()
    e = exponent.to_int()
    started = False  # skip leading squarings of 1
    i = bits - 1
    while i >= 0:
        if not (e >> i) & 1:
            if started:
                acc = mont._sqr(acc, plans)
            i -= 1
            continue
        # Take the longest window [j..i] that starts and ends with a set bit.
        j = max(i - wsize + 1, 0)
        while not (e >> j) & 1:
            j += 1
        value = (e >> j) & ((1 << (i - j + 1)) - 1)
        if started:
            for _ in range(i - j + 1):
                acc = mont._sqr(acc, plans)
            acc = mont._mul(acc, table[(value - 1) >> 1], plans)
        else:
            acc = table[(value - 1) >> 1]
            started = True
        i = j - 1

    result = mont._redc(acc, plans)
    charge_plans(plans)
    return BigNum(words_from_int(result, mont.nwords))
