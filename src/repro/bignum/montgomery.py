"""Montgomery modular arithmetic (``BN_MONT_CTX``).

RSA's modular exponentiation spends essentially all of its time in Montgomery
multiplications; the paper's Table 8 attributes RSA decryption to
``bn_mul_add_words`` (the multiply and reduction inner loops),
``bn_sub_words`` (the final conditional subtraction, executed unconditionally
with a select to blunt timing channels), and ``BN_from_montgomery`` (the
reduction bookkeeping).

Two reduction strategies are provided, both executing over the real word
kernels of :mod:`repro.bignum.kernels`:

* ``"interleaved"`` (default): the modern word-by-word CIOS-style reduction,
  n^2 single-precision multiplies per reduction (2n^2 per modular product
  including the multiplication itself);

* ``"separate"``: the strategy of the OpenSSL 0.9.7d the paper profiled --
  ``BN_from_montgomery`` there computed ``t2 = (t mod R) * Ni mod R`` and
  ``t3 = t2 * n`` as two further full multi-precision products before the
  shift and conditional subtract, i.e. ~3n^2 multiplies per modular
  product.  Selecting this mode reproduces the paper's *absolute* RSA cycle
  counts (Table 7's 6.04M for 1024-bit); the interleaved mode is ~2/3 of
  that.  The ablation benchmark compares both.

On the fast path a modular exponentiation makes every interleaved
product on :meth:`MontgomeryContext.registers`: in libcrypto, where the
context builds a ``BN_MONT_CTX`` kernel (:mod:`repro.crypto.native`) the
first time :meth:`MontgomeryContext.kernel` is asked for and keeps it
because one product shows that libcrypto's radix is this model's R, or
on whole Python ints.  A kernel keeps one register file for every
exponentiation; only int registers need ``-n^-1 mod R``, so a context
computes it the first time they do.  Every product is charged the plan
of its operands' word counts, whichever host computes it.  The single
operations :meth:`~MontgomeryContext.mul`, ``sqr``, ``to_mont``,
``from_mont`` and ``one`` run the word-array reference on both backends.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from ..perf import LIBCRYPTO, ChargePlan, charge, mix
from . import kernels as K
from .bn import WRAPPER_CALL, BigNum
from .kernels import WORD_BITS, WORD_MASK

#: Per-word bookkeeping inside BN_from_montgomery: load t[i], multiply by n0,
#: mask to a word, loop control -- the reduction work that is *not* the
#: bn_mul_add_words inner loop.
FROM_MONT_WORD = mix(movl=2, mull=1, andl=1, addl=1, decl=0.5, jnz=0.5)

#: One-time context setup (computing n0' by Newton iteration on one word and
#: sizing buffers); RR is computed separately via BN_div.
MONT_SETUP = mix(movl=30, mull=10, subl=10, andl=10, pushl=4, popl=4,
                 call=2, ret=2)


def _word_inverse(w0: int) -> int:
    """``w0^{-1} mod 2**32`` for odd ``w0``, by Newton/Hensel lifting."""
    if not w0 & 1:
        raise ValueError("Montgomery modulus must be odd")
    inv = w0  # correct to 3 bits
    for _ in range(5):  # doubles correct bits each round: 3->6->12->24->48
        inv = (inv * (2 - w0 * inv)) & WORD_MASK
    return inv


REDUCTION_STYLES = ("interleaved", "separate")


# -- fast-path charge plans ----------------------------------------------------
# One plan per Montgomery operation, keyed by operand word counts: the
# exact charges (mixes, times, order) of the faithful word-array path.
# For a trimmed BigNum ``len(d) == ceil(bit_length / 32)``, so the
# registers' products key their plans by bit length.  Operands are
# below the modulus, so the caches hold at most n^2 plans per modulus
# width n.

def _redc_steps(n: int) -> list:
    """The charges of one ``_reduce_interleaved`` on an ``n``-word modulus."""
    return [
        (K.MULADD_WORD, n * n, "bn_mul_add_words", LIBCRYPTO, K.BN_STALL),
        (FROM_MONT_WORD, n, "BN_from_montgomery", LIBCRYPTO, K.BN_STALL),
        (WRAPPER_CALL, 1.0, "BN_from_montgomery", LIBCRYPTO, 1.0),
        (K.SUB_WORD, n, "bn_sub_words", LIBCRYPTO, 1.0),
        (K.KERNEL_CALL, 1.0, "bn_sub_words", LIBCRYPTO, 1.0),
    ]


@functools.cache
def _redc_plan(n: int) -> ChargePlan:
    return ChargePlan(_redc_steps(n))


@functools.cache
def _mul_plan(na: int, nb: int, n: int) -> ChargePlan:
    """``BigNum.mul`` of ``na``- by ``nb``-word operands, then REDC."""
    steps = []
    if na and nb:
        steps.append((K.MUL_WORD, na, "bn_mul_words", LIBCRYPTO, K.BN_STALL))
        if nb > 1:
            steps.append((K.MULADD_WORD, na * (nb - 1), "bn_mul_add_words",
                          LIBCRYPTO, K.BN_STALL))
        steps.append((K.KERNEL_CALL, nb, "bn_mul_add_words", LIBCRYPTO, 1.0))
        steps.append((WRAPPER_CALL, 1.0, "BN_mul", LIBCRYPTO, 1.0))
    return ChargePlan(steps + _redc_steps(n))


@functools.cache
def _sqr_row(n: int) -> Tuple[ChargePlan, ...]:
    """``_sqr_plan`` of an operand of each bit length up to ``32 * n``."""
    return tuple(_sqr_plan(-(-bits // WORD_BITS), n)
                 for bits in range(n * WORD_BITS + 1))


@functools.cache
def _mul_row(nb: int, n: int) -> Tuple[ChargePlan, ...]:
    """``_mul_plan`` of an operand of each bit length up to ``32 * n``
    by an ``nb``-word one."""
    return tuple(_mul_plan(-(-bits // WORD_BITS), nb, n)
                 for bits in range(n * WORD_BITS + 1))


@functools.cache
def _sqr_plan(na: int, n: int) -> ChargePlan:
    """``BigNum.sqr`` of an ``na``-word operand, then REDC."""
    steps = []
    if na:
        cross = na * (na - 1) // 2
        if cross:
            steps.append((K.MULADD_WORD, cross, "bn_mul_add_words",
                          LIBCRYPTO, K.BN_STALL))
        steps.append((K.ADD_WORD, 2 * na, "bn_add_words", LIBCRYPTO, 1.0))
        steps.append((K.MUL_WORD, na, "bn_sqr_words", LIBCRYPTO, K.BN_STALL))
        steps.append((K.KERNEL_CALL, na, "bn_mul_add_words", LIBCRYPTO, 1.0))
        steps.append((WRAPPER_CALL, 1.0, "BN_sqr", LIBCRYPTO, 1.0))
    return ChargePlan(steps + _redc_steps(n))


class _IntRegisters:
    """Fast-path registers holding Python ints, for a context with no
    libcrypto kernel: a product is one whole multiplication and
    :meth:`MontgomeryContext._reduce_int`."""

    __slots__ = ("_r", "_reduce")

    def __init__(self, reduce, count: int):
        self._r = [0] * count
        self._reduce = reduce

    def set(self, i: int, value: int) -> None:
        self._r[i] = value

    def get(self, i: int) -> int:
        return self._r[i]

    def copy(self, dst: int, src: int) -> None:
        self._r[dst] = self._r[src]

    def product(self, dst: int, a: int, b: int) -> int:
        """``r[dst] = r[a] * r[b] / R mod n``; its bit length."""
        r = self._r
        value = r[dst] = self._reduce(r[a] * r[b])
        return value.bit_length()

    def chain(self, dst: int, operands) -> List[int]:
        """``r[dst] = r[dst] * r[op] / R mod n`` for each register ``op``
        of ``operands`` in turn (``dst`` itself squares); the bit length
        of each product, in order."""
        r, reduce = self._r, self._reduce
        lengths: List[int] = []
        append = lengths.append
        for op in operands:
            value = r[dst] = reduce(r[dst] * r[op])
            append(value.bit_length())
        return lengths


class MontgomeryContext:
    """Precomputed state for repeated multiplication modulo one odd modulus."""

    #: The libcrypto kernel: None until :meth:`kernel` first runs, then
    #: the kernel, or False where none can be built or its radix is not
    #: this model's R.
    _kernel = None

    def __init__(self, modulus: BigNum, reduction: str = "interleaved"):
        if modulus.is_zero() or not modulus.is_odd():
            raise ValueError("Montgomery arithmetic requires an odd modulus")
        if reduction not in REDUCTION_STYLES:
            raise ValueError(f"unknown reduction style {reduction!r}; "
                             f"choose from {REDUCTION_STYLES}")
        self.n = modulus
        self.reduction = reduction
        self.nwords = modulus.nwords()
        self._n_padded: List[int] = list(modulus.d)
        self.n0 = (-_word_inverse(modulus.d[0])) & WORD_MASK
        # Native-int mirrors for the fast path (uncharged bookkeeping:
        # the modeled setup cost below is identical with or without them).
        self._n_int = modulus.to_int()
        self._r_mask = (1 << (self.nwords * WORD_BITS)) - 1
        charge(MONT_SETUP, function="BN_MONT_CTX_set")
        # RR = R^2 mod n with R = 2^(32 * nwords); via BN_div (off hot path).
        r2 = BigNum.from_int(1 << (2 * self.nwords * WORD_BITS))
        self.rr = r2.mod(modulus)
        self._ni: BigNum | None = None  # -n^{-1} mod R, for "separate" mode

    def __getstate__(self) -> dict:
        """Copies and pickles leave the kernel behind (it owns libcrypto
        memory); a copy builds its own on first use."""
        state = dict(self.__dict__)
        state.pop("_kernel", None)
        return state

    def _full_inverse(self) -> BigNum:
        """``-n^{-1} mod R`` (0.9.7's BN_MONT_CTX Ni), computed lazily."""
        if self._ni is None:
            from .bn import mod_inverse
            r_mod = BigNum.from_int(1 << (self.nwords * WORD_BITS))
            inv = mod_inverse(self.n, r_mod)
            self._ni = r_mod.usub(inv) if not inv.is_zero() else inv
        return self._ni

    # -- core reduction -------------------------------------------------------
    def _reduce(self, t: List[int]) -> BigNum:
        """Montgomery-reduce a (<= 2n+1)-word value; returns ``t/R mod n``."""
        if self.reduction == "separate":
            return self._reduce_separate(t)
        return self._reduce_interleaved(t)

    def _reduce_interleaved(self, t: List[int]) -> BigNum:
        n = self.nwords
        need = 2 * n + 1
        if len(t) < need:
            t.extend([0] * (need - len(t)))
        npad = self._n_padded
        n0 = self.n0
        for i in range(n):
            m = (t[i] * n0) & WORD_MASK
            c = K.mul_add_words(t, i, npad, 0, n, m)
            c = K.propagate_carry(t, i + n, c)
            assert c == 0, "reduction carry escaped the buffer"
        charge(K.MULADD_WORD, times=n * n, function="bn_mul_add_words",
               stall=K.BN_STALL)
        charge(FROM_MONT_WORD, times=n, function="BN_from_montgomery",
               stall=K.BN_STALL)
        charge(WRAPPER_CALL, function="BN_from_montgomery")
        # r = t / R; then unconditionally compute r - n and select, so the
        # subtraction cost is paid on every reduction (as in the profiled
        # library, where it contributes bn_sub_words self-time).
        r = t[n:2 * n]
        extra = t[2 * n]
        diff = [0] * n
        borrow = K.sub_words(diff, r, npad, n)
        charge(K.SUB_WORD, times=n, function="bn_sub_words")
        charge(K.KERNEL_CALL, function="bn_sub_words")
        if extra or not borrow:
            return BigNum(diff)
        return BigNum(list(r))

    def _reduce_separate(self, t: List[int]) -> BigNum:
        """OpenSSL 0.9.7-style reduction: two extra full multiplications.

        ``t2 = (t mod R) * Ni mod R``, ``t3 = t2 * n``, result
        ``(t + t3) / R`` with a final conditional subtract.  Both products
        run through BigNum.mul, so their bn_mul_add_words work is charged
        by real execution; the masking/shifting bookkeeping is the
        BN_from_montgomery self-time.
        """
        n = self.nwords
        value = BigNum(list(t))
        t1 = value.mask_words(n)                      # t mod R
        t2 = t1.mul(self._full_inverse()).mask_words(n)
        t3 = t2.mul(self.n)
        summed = value.uadd(t3)
        r = summed.rshift_words(n)                    # exact: low part == 0
        charge(FROM_MONT_WORD, times=n, function="BN_from_montgomery",
               stall=K.BN_STALL)
        charge(WRAPPER_CALL, function="BN_from_montgomery")
        rp = list(r.d) + [0] * (n + 1 - len(r.d))
        diff = [0] * n
        borrow = K.sub_words(diff, rp, self._n_padded, n)
        charge(K.SUB_WORD, times=n, function="bn_sub_words")
        charge(K.KERNEL_CALL, function="bn_sub_words")
        if rp[n] or not borrow:
            return BigNum(diff)
        return BigNum(rp[:n])

    # -- fast path ----------------------------------------------------------------
    # Whole-operand products on registers: Python ints, or BIGNUMs in
    # libcrypto.  ``mod_exp`` charges each one the plan of its operand
    # word counts, which holds the exact sequence (mixes, times, order)
    # the faithful word-array path emits, so modeled cycles and
    # instruction mixes are bit-identical between backends; it makes its
    # exponent scan in one ``chain`` call, collects the plans of its
    # table build and of its scan, and charges each group in one call.

    @functools.cached_property
    def _ni_int(self) -> int:
        """``-n^{-1} mod R`` for :meth:`_reduce_int`, computed the first
        time int registers need it: Python's inverse takes ~125 us at
        1024 bits, and a context with a kernel never needs it."""
        return (-pow(self._n_int, -1, self._r_mask + 1)) & self._r_mask

    def _reduce_int(self, t: int) -> int:
        """Uncharged whole-operand REDC: m = (t mod R) * (-n^{-1} mod R)
        mod R, r = (t + m*n) / R.  Word-serial CIOS computes exactly this
        value (standard Montgomery equivalence), and the subtract-and-select
        result matches ``_reduce_interleaved``."""
        m = ((t & self._r_mask) * self._ni_int) & self._r_mask
        r_val = (t + m * self._n_int) >> (self.nwords * WORD_BITS)
        if r_val >= self._n_int:
            r_val -= self._n_int
        return r_val

    def kernel(self):
        """This modulus's libcrypto kernel (:class:`repro.crypto.native.
        MontKernel`), built on first ask, or None where the binding is
        off or libcrypto's radix is not R."""
        from ..crypto import native  # repro.crypto imports this package

        if not native.available:
            return None
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = self._build_kernel(native)
        return kernel or None

    def registers(self, count: int):
        """At least ``count`` uncharged fast-path registers for values
        below n: the register file of :meth:`kernel`, shared by every
        caller, or fresh Python ints where there is no kernel.  Each has
        ``set``, ``get``, ``copy``, ``product`` and ``chain``."""
        kernel = self.kernel()
        if kernel is None:
            return _IntRegisters(self._reduce_int, count)
        return kernel.registers(count)

    def _build_kernel(self, native):
        """A libcrypto kernel for n, or False.  Its products divide by
        libcrypto's radix R', 2^(BN_BITS2 x words of n); they equal this
        model's exactly when R' = R mod n, which one product shows:
        ``(R mod n) * 1 / R'`` must be 1 (with 64-bit words: an even
        ``nwords``)."""
        try:
            kernel = native.MontKernel(self._n_int)
        except ValueError:
            return False
        regs = kernel.registers(2)
        regs.set(0, (self._r_mask + 1) % self._n_int)
        regs.set(1, 1)
        regs.product(0, 0, 1)
        return kernel if regs.get(0) == 1 % self._n_int else False

    # -- public operations -------------------------------------------------------
    def mul(self, a: BigNum, b: BigNum) -> BigNum:
        """``a * b / R mod n`` for Montgomery-form inputs (BN_mod_mul_montgomery)."""
        t_bn = a.mul(b)
        return self._reduce(list(t_bn.d))

    def sqr(self, a: BigNum) -> BigNum:
        """Montgomery square; routes through BN_sqr like the profiled library."""
        t_bn = a.sqr()
        return self._reduce(list(t_bn.d))

    def to_mont(self, a: BigNum) -> BigNum:
        """Convert into Montgomery form: ``a * R mod n``."""
        reduced = a.mod(self.n)
        return self.mul(reduced, self.rr)

    def from_mont(self, a: BigNum) -> BigNum:
        """Convert out of Montgomery form: ``a / R mod n``."""
        return self._reduce(list(a.d))

    def one(self) -> BigNum:
        """``R mod n`` -- the Montgomery form of 1."""
        return self.to_mont(BigNum.one())
