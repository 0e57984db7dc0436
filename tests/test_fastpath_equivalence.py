"""Dual-backend equivalence: fast host path vs faithful reference loops.

The tentpole invariant of the two-level execution model (DESIGN.md): for
every kernel, running with ``REPRO_FASTPATH`` on or off must produce

* bit-identical output bytes, and
* a bit-identical charge stream -- total cycles, total instructions,
  per-function cycles/call-counts/instruction mixes, per-module cycles.

Each check here runs the same seeded workload under both backends with a
fresh profiler and compares full snapshots -- the canonical
``baseline.capture`` signature (region tree and global mix included) plus
every function's module and instruction mix -- so a fast-path branch that
drifts by a single charge (or a single float ULP) fails loudly.
"""

from __future__ import annotations

import ctypes
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf, runtime
from repro.perf import baseline
from repro.bignum.bn import BigNum
from repro.bignum.modexp import mod_exp
from repro.bignum.montgomery import REDUCTION_STYLES, MontgomeryContext
from repro.crypto import native, rsa
from repro.crypto.aes import AES
from repro.crypto.des import DES, SEMI_WEAK_KEYS, WEAK_KEYS, TripleDES
from repro.crypto.mac import Ssl3MacContext, TlsMacContext, ssl3_mac, tls_mac
from repro.crypto.md5 import MD5
from repro.crypto.modes import CBC
from repro.crypto.rc4 import RC4
from repro.crypto.sha1 import SHA1
from repro.crypto.util import cbc_unchain
from repro.ssl import kdf
from repro.ssl.loopback import make_server_identity, run_session


def snapshot(profiler: perf.Profiler):
    """Everything a backend could perturb, in comparable form: the gate's
    signature (totals, functions, modules, regions, global mix) plus each
    function's module and instruction mix."""
    return (
        baseline.capture(profiler, scenario="equivalence"),
        {name: (fs.module, fs.mix.snapshot().counts)
         for name, fs in profiler.functions.items()},
    )


def run_both(workload):
    """Run ``workload`` under each backend; return [(result, snapshot)]."""
    out = []
    for fast in (True, False):
        with runtime.fastpath(fast):
            profiler = perf.Profiler()
            with perf.activate(profiler):
                result = workload()
            out.append((result, snapshot(profiler)))
    return out


def assert_equivalent(workload):
    (fast_res, fast_snap), (ref_res, ref_snap) = run_both(workload)
    assert fast_res == ref_res
    assert fast_snap == ref_snap
    return fast_res


def rand_bn(rng: random.Random, words: int) -> BigNum:
    return BigNum.from_int(rng.getrandbits(words * 32) | 1)


# ---------------------------------------------------------------------------
# bignum kernels
# ---------------------------------------------------------------------------

def test_bignum_ops_equivalence():
    rng = random.Random(0xB16)
    for _ in range(25):
        na, nb = rng.randint(1, 40), rng.randint(1, 40)
        a, b = rand_bn(rng, na), rand_bn(rng, nb)
        big, small = (a, b) if a.ucmp(b) >= 0 else (b, a)
        for op in (lambda: a.uadd(b).to_int(),
                   lambda: big.usub(small).to_int(),
                   lambda: a.mul(b).to_int(),
                   lambda: a.sqr().to_int(),
                   lambda: a.divmod(b)[0].to_int()):
            assert_equivalent(op)
    # Degenerate shapes: zero operands, single words.
    zero = BigNum.zero()
    one = BigNum.one()
    assert_equivalent(lambda: zero.mul(one).to_int())
    assert_equivalent(lambda: zero.sqr().to_int())
    assert_equivalent(lambda: one.uadd(zero).to_int())


def narrow_operands(rng: random.Random, n: int, words: int):
    """Operands below ``n`` whose word counts key their own charges:
    zero, one word and ``words - 1`` words."""
    return [0, rng.getrandbits(32) | 1,
            rng.getrandbits(32 * (words - 1)) | (1 << (32 * (words - 1) - 1))]


@pytest.mark.parametrize("style", REDUCTION_STYLES)
def test_montgomery_equivalence(style):
    rng = random.Random(0x40A7 + len(style))
    for words in (3, 8, 16):
        modulus = rand_bn(rng, words)            # odd by construction
        a = BigNum.from_int(rng.getrandbits(words * 32) % modulus.to_int())
        b = BigNum.from_int(rng.getrandbits(words * 32) % modulus.to_int())

        def workload():
            ctx = MontgomeryContext(modulus, style)
            am, bm = ctx.to_mont(a), ctx.to_mont(b)
            prod = ctx.mul(am, bm)
            sq = ctx.sqr(am)
            return (ctx.from_mont(prod).to_int(),
                    ctx.from_mont(sq).to_int(),
                    ctx.from_mont(ctx.one()).to_int())

        results = assert_equivalent(workload)
        # The modular algebra itself must hold, not just match across
        # backends.
        n = modulus.to_int()
        assert results[0] == a.to_int() * b.to_int() % n
        assert results[1] == a.to_int() ** 2 % n
        assert results[2] == 1

        # Narrow operands charge by their own word counts, not the
        # modulus's; pair each with every other and with a full-width one.
        operands = narrow_operands(rng, n, words) + [a.to_int()]
        r_inv = pow(1 << (32 * words), -1, n)

        def narrow_workload():
            ctx = MontgomeryContext(modulus, style)
            out = []
            for x in operands:
                xb = BigNum.from_int(x)
                out.append(ctx.sqr(xb).to_int())
                out.append(ctx.from_mont(xb).to_int())
                for y in operands:
                    out.append(ctx.mul(xb, BigNum.from_int(y)).to_int())
            return out

        results = iter(assert_equivalent(narrow_workload))
        for x in operands:
            assert next(results) == x * x * r_inv % n
            assert next(results) == x * r_inv % n
            for y in operands:
                assert next(results) == x * y * r_inv % n


@pytest.mark.parametrize("style", REDUCTION_STYLES)
def test_mod_exp_equivalence(style):
    rng = random.Random(0xE4B)
    for bits in (96, 256, 521):
        n_int = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        modulus = BigNum.from_int(n_int)
        exp = BigNum.from_int(rng.getrandbits(bits // 2) | 1)
        full = rng.getrandbits(bits) % n_int
        # Bases 0 and 1 and narrow bases give table and scan operands
        # with fewer words than the modulus.
        narrow = narrow_operands(rng, n_int, (bits + 31) // 32)
        for base_int in [full, 1] + narrow:

            def workload():
                ctx = MontgomeryContext(modulus, style)
                return mod_exp(BigNum.from_int(base_int), exp, modulus,
                               ctx).to_int()

            result = assert_equivalent(workload)
            assert result == pow(base_int, exp.to_int(), n_int)


def mod_exp_three_ways(n: int, base: int, exp: int) -> MontgomeryContext:
    """``base ** exp mod n`` with the libcrypto kernel (where the binding
    loaded), with the binding forced off, and on the faithful path: the
    results and the full charge signatures must all be equal.  Returns
    the context of the first run."""
    modulus = BigNum.from_int(n)
    runs, contexts = [], []
    for fast, on in ((True, native.available), (True, False), (False, False)):
        with runtime.fastpath(fast), binding(on):
            profiler = perf.Profiler()
            with perf.activate(profiler):
                ctx = MontgomeryContext(modulus)
                result = mod_exp(BigNum.from_int(base), BigNum.from_int(exp),
                                 modulus, ctx).to_int()
        runs.append((result, snapshot(profiler)))
        contexts.append(ctx)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == pow(base, exp, n)
    return contexts[0]


def short_form_base(n: int, words: int, form: int) -> int:
    """The base whose Montgomery form ``base * R mod n`` is ``form``."""
    return form * pow(1 << (32 * words), -1, n) % n


def assert_kernel_when_even(ctx: MontgomeryContext) -> None:
    """On a 64-bit libcrypto an even word count gets the kernel and an
    odd one keeps the int registers (for two words or more: a one-word
    modulus dividing 2^32 - 1, such as 3, keeps its kernel)."""
    if native.available and ctypes.sizeof(ctypes.c_void_p) == 8:
        assert (ctx.kernel() is None) == bool(ctx.nwords % 2)


@given(words=st.integers(2, 8), top=st.integers(1, 15),
       low=st.integers(0, 2**256), exp=st.integers(1, 2**96),
       base=st.sampled_from(["zero", "one", "n-1", "short", "full", "n+5",
                             "wide"]))
@settings(max_examples=40, deadline=None)
def test_mod_exp_kernel_on_small_top_words(words, top, low, exp, base):
    """Moduli whose top word is 1-15 leave many intermediates a word
    shorter than the modulus, so their products are charged by plans of
    both word counts, and bases 0, 1, n - 1 and one whose Montgomery form
    is one word keep the table's operands short too.  Bases n + 5 and
    one with more words than n are reduced, and charged ``BN_div``,
    before their conversion."""
    n = (top << (32 * (words - 1))) | (low % (1 << (32 * (words - 1)))) | 1
    base_int = {"zero": 0, "one": 1, "n-1": n - 1,
                "short": short_form_base(n, words, (low >> 7) % 2**32 | 1),
                "full": low % n, "n+5": n + 5,
                "wide": (low | 1) << (32 * words)}[base]
    assert_kernel_when_even(mod_exp_three_ways(n, base_int, exp))


@pytest.mark.parametrize("bits,exp_bits", [(512, 512), (544, 160),
                                           (1024, 96), (2048, 40)])
def test_mod_exp_kernel_on_random_moduli(bits, exp_bits):
    """Random moduli from 512 to 2048 bits (the faithful word loops keep
    the exponents short above 512 bits), and a 544-bit modulus, whose
    odd word count takes the int registers, with equal results."""
    rng = random.Random(bits)
    n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    words = bits // 32
    exp = rng.getrandbits(exp_bits) | (1 << (exp_bits - 1))
    for base in (0, 1, n - 1, short_form_base(n, words, 5),
                 rng.getrandbits(bits) % n, n + 5, wider_than(rng, bits)):
        assert_kernel_when_even(mod_exp_three_ways(n, base, exp))


@pytest.mark.parametrize("n", [1, 3])
def test_mod_exp_on_one_word_moduli(n):
    """The one-word moduli 1 and 3.  Modulo 1 every value, RR included,
    is 0, so ``one()``'s charge includes a ``BN_div``; bases n + 5 and
    2^70 are reduced before their conversion."""
    for base in (0, 1, 2, n + 5, 1 << 70):
        for exp in (1, 2, 65537):
            mod_exp_three_ways(n, base, exp)


def wider_than(rng: random.Random, bits: int) -> int:
    """A base 40 bits wider than a ``bits``-bit modulus."""
    return rng.getrandbits(bits + 40) | (1 << (bits + 39))


@pytest.mark.parametrize("n,on", [
    (random.Random(1024).getrandbits(1024) | 1 << 1023 | 1, True),
    (random.Random(544).getrandbits(544) | 1 << 543 | 1, True),
    (random.Random(1024).getrandbits(1024) | 1 << 1023 | 1, False),
    (3, True), (2**32 - 5, True)],
    ids=["kernel", "int-registers", "binding-off", "one-word-kernel",
         "one-word-ints"])
def test_register_chain_matches_single_products(n, on):
    """``chain(dst, ops)`` leaves every register as the same products
    made one ``product(dst, dst, op)`` at a time, returns their bit
    lengths, and agrees with Python's ints.  The accumulator starts a
    word short and is held there by products with a register holding
    R mod n, the Montgomery form of 1; then it squares and multiplies by
    a full-width register and by n - 1.  A one-word modulus that divides
    2^32 - 1 (3) keeps its kernel, and one that does not (2^32 - 5)
    takes the int registers, as a 17-word one does."""
    with binding(on and native.available):
        ctx = MontgomeryContext(BigNum.from_int(n))
        words, acc = ctx.nwords, 3
        if ctypes.sizeof(ctypes.c_void_p) == 8:
            assert (ctx.kernel() is not None) == (
                native.available and on
                and (words % 2 == 0 or (2**32 - 1) % n == 0))
        r = 1 << (32 * words)
        short = random.Random(n).getrandbits(32 * (words - 1)) | 1
        start = [r % n, random.Random(words).getrandbits(32 * words) % n,
                 n - 1, short]
        ops = (0, 0, 0, acc, 1, 0, acc, 2, acc, 0, 1, 2, 2, acc)
        values, expected = list(start), []
        for op in ops:
            values[acc] = values[acc] * values[op] * pow(r, -1, n) % n
            expected.append(values[acc].bit_length())
        assert expected[:3] == [short.bit_length()] * 3

        runs = []
        for single in (False, True):
            regs = ctx.registers(len(start))
            for i, value in enumerate(start):
                regs.set(i, value)
            lengths = ([regs.product(acc, acc, op) for op in ops] if single
                       else regs.chain(acc, ops))
            runs.append((lengths, [regs.get(i) for i in range(len(start))]))
    assert runs[0] == runs[1] == (expected, values)


def _refuse(*args, **kwargs):
    raise AssertionError("a word-array Montgomery operation ran")


@pytest.mark.parametrize("bits,on", [(1024, True), (544, True),
                                     (1024, False)],
                         ids=["kernel", "int-registers", "binding-off"])
def test_fast_mod_exp_makes_no_word_array_product(monkeypatch, bits, on):
    """On the fast path every product of ``mod_exp``, the conversions
    into and out of Montgomery form included, is a register product:
    the context's word-array operations, patched to raise, never run,
    on the kernel, on the int registers of an odd word count, or with
    the binding forced off.  A fallback to them keeps every signature,
    so the equivalence tests cannot see one."""
    for name in ("mul", "sqr", "to_mont", "from_mont", "one"):
        monkeypatch.setattr(MontgomeryContext, name, _refuse)
    rng = random.Random(bits)
    n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    modulus = BigNum.from_int(n)
    with runtime.fastpath(True), binding(on and native.available), \
            perf.activate(perf.Profiler()):
        ctx = MontgomeryContext(modulus)
        for base in (0, 1, n - 1, n + 5, wider_than(rng, bits)):
            for exp in (65537, rng.getrandbits(bits) | (1 << (bits - 1))):
                assert mod_exp(BigNum.from_int(base), BigNum.from_int(exp),
                               modulus, ctx).to_int() == pow(base, exp, n)
        assert_kernel_when_even(ctx)


# ---------------------------------------------------------------------------
# symmetric ciphers and hashes
# ---------------------------------------------------------------------------

def test_block_cipher_equivalence():
    rng = random.Random(0xC1F)
    cases = [(AES, 16), (AES, 24), (AES, 32), (DES, 8), (TripleDES, 24)]
    for cls, key_len in cases:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        block = bytes(rng.randrange(256) for _ in range(cls.block_size))

        def workload():
            cipher = cls(key)
            ct = cipher.encrypt_block(block)
            return ct, cipher.decrypt_block(ct)

        ct, pt = assert_equivalent(workload)
        assert pt == block and ct != block


#: Every weak and semi-weak DES key, and the all-0x00 and all-0xFF blocks.
DES_EDGE_KEYS = WEAK_KEYS + SEMI_WEAK_KEYS
DES_EDGE_BLOCKS = (bytes(8), b"\xff" * 8)
DES_KEYS = st.one_of(st.sampled_from(DES_EDGE_KEYS),
                     st.binary(min_size=8, max_size=8))
DES_BLOCKS = st.one_of(st.sampled_from(DES_EDGE_BLOCKS),
                       st.binary(min_size=8, max_size=8))


def assert_des_roundtrip_equivalent(keys, block):
    """DES under ``keys[0]`` and 3DES under all three keys encrypt, then
    decrypt, ``block`` identically on both backends, charges included."""
    for cls, key in ((DES, keys[0]), (TripleDES, b"".join(keys))):
        def workload():
            cipher = cls(key)
            ct = cipher.encrypt_block(block)
            return ct, cipher.decrypt_block(ct)

        assert assert_equivalent(workload)[1] == block


@given(keys=st.lists(DES_KEYS, min_size=3, max_size=3), block=DES_BLOCKS)
@settings(max_examples=60, deadline=None)
def test_des_roundtrip_equivalence(keys, block):
    assert_des_roundtrip_equivalent(keys, block)


@pytest.mark.parametrize("key", DES_EDGE_KEYS, ids=bytes.hex)
def test_des_edge_keys_equivalence(key):
    """Every weak and semi-weak key, not only those Hypothesis draws."""
    for block in DES_EDGE_BLOCKS:
        assert_des_roundtrip_equivalent((key, key, key), block)


#: Every cipher CBC runs, as (class, key length).
CBC_CIPHERS = [(AES, 16), (AES, 24), (AES, 32), (DES, 8), (TripleDES, 24)]
#: The buffer types CBC accepts; ``ctypes``' ``c_char_p`` takes only bytes.
BUFFERS = (bytes, bytearray, memoryview)
#: A cipher class with a random key and IV.
CBC_CASES = st.sampled_from(CBC_CIPHERS).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.binary(min_size=case[1], max_size=case[1]),
        st.binary(min_size=case[0].block_size,
                  max_size=case[0].block_size)))


def binding_settings():
    """``native.available`` as loaded, then forced off: each check runs
    on libcrypto where the binding loads, and on the Python cores."""
    return (True, False) if native.available else (False,)


def binding(on: bool):
    return mock.patch.object(native, "available", on)


def test_cbc_mode_equivalence():
    """Fast CBC -- ``encrypt_cbc``/``decrypt_cbc``, with the binding and
    with it forced off -- equals the faithful per-block loop in output,
    ``.iv`` and the full charge stream, for every cipher and buffer
    type, and always returns ``bytes``."""
    rng = random.Random(0xCBC)
    for cls, key_len in CBC_CIPHERS:
        key = rng.randbytes(key_len)
        for nblocks in (0, 1, 2, 17, 300):
            iv = rng.randbytes(cls.block_size)
            data = rng.randbytes(cls.block_size * nblocks)
            for wrap in BUFFERS:

                def workload():
                    sender = CBC(cls(key), iv)
                    ct = sender.encrypt(wrap(data))
                    receiver = CBC(cls(key), iv)
                    return (ct, sender.iv, receiver.decrypt(wrap(ct)),
                            receiver.iv)

                for on in binding_settings():
                    with binding(on):
                        result = assert_equivalent(workload)
                    assert all(type(part) is bytes for part in result)
                    ct, sender_iv, pt, receiver_iv = result
                    assert pt == data
                    assert sender_iv == receiver_iv == (
                        ct[-cls.block_size:] if ct else iv)


def test_cbc_decrypt_chains_iv_across_records():
    """One CBC object decrypting records of mixed sizes in turn keeps
    SSLv3's record-to-record IV chain, for every cipher, with the binding
    and without it."""
    rng = random.Random(0x1CB)
    sizes = [3, 16, 1, 23, 15, 64, 0, 2, 300]
    for cls, key_len in CBC_CIPHERS:
        key, iv = rng.randbytes(key_len), rng.randbytes(cls.block_size)
        records = [rng.randbytes(cls.block_size * n) for n in sizes]
        sender = CBC(cls(key), iv)
        sealed = [sender.encrypt(record) for record in records]

        def workload():
            receiver = CBC(cls(key), iv)
            return [(receiver.decrypt(ct), receiver.iv) for ct in sealed]

        for on in binding_settings():
            with binding(on):
                opened = assert_equivalent(workload)
            chain = iv
            for (plain, got_iv), record, ct in zip(opened, records, sealed):
                chain = ct[-cls.block_size:] if ct else chain
                assert plain == record
                assert got_iv == chain


@given(case=CBC_CASES, nblocks=st.integers(1, 300),
       seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_decrypt_cbc_matches_per_block(case, nblocks, seed):
    """``decrypt_cbc`` equals one ``decrypt_block`` per block, unchained
    by hand, in output and in the full charge stream, on either backend,
    with the binding and without it."""
    cls, key, iv = case
    data = random.Random(seed).randbytes(cls.block_size * nblocks)
    bs = cls.block_size

    def per_block():
        cipher = cls(key)
        return cbc_unchain(iv, data, b"".join(
            cipher.decrypt_block(data[i:i + bs])
            for i in range(0, len(data), bs)))

    (ref, ref_snap), (faithful, faithful_snap) = run_both(per_block)
    for fast in (True, False):
        for on in binding_settings():
            with runtime.fastpath(fast), binding(on):
                profiler = perf.Profiler()
                with perf.activate(profiler):
                    got = cls(key).decrypt_cbc(iv, data)
            assert got == ref == faithful
            assert snapshot(profiler) == ref_snap == faithful_snap


@given(case=CBC_CASES, nblocks=st.integers(0, 300),
       wrap=st.sampled_from(BUFFERS), seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_cbc_encrypt_record_loop_matches_per_block(case, nblocks, wrap, seed):
    """Fast CBC encryption (``encrypt_cbc``, one call per record) equals
    the faithful per-block loop in output, chaining value and the full
    charge stream, with the binding and without it."""
    cls, key, iv = case
    data = random.Random(seed).randbytes(cls.block_size * nblocks)

    def workload():
        cbc = CBC(cls(key), iv)
        return cbc.encrypt(wrap(data)), cbc.iv

    for on in binding_settings():
        with binding(on):
            ct, got_iv = assert_equivalent(workload)
        assert got_iv == (ct[-cls.block_size:] if ct else iv)


def test_cbc_encrypt_chains_iv_across_records():
    """One CBC object encrypting records of many lengths in turn keeps
    SSLv3's record-to-record IV chain on both backends, and every record
    decrypts under the chaining value before it."""
    rng = random.Random(0xE1C)
    key, iv = rng.randbytes(16), rng.randbytes(16)
    records = [rng.randbytes(16 * n) for n in (3, 16, 1, 23, 0, 2, 300)]

    def workload():
        sender = CBC(AES(key), iv)
        return [(sender.encrypt(record), sender.iv) for record in records]

    chain = iv
    for (ct, got_iv), record in zip(assert_equivalent(workload), records):
        with runtime.fastpath(False):
            assert CBC(AES(key), chain).decrypt(ct) == record
        chain = ct[-16:] if ct else chain
        assert got_iv == chain


def test_cbc_encrypt_takes_the_record_loop(monkeypatch):
    """On the fast path ``CBC.encrypt``/``decrypt`` run ``encrypt_cbc``/
    ``decrypt_cbc`` and make no block call, for every cipher; the
    faithful path makes one per block.  A silent fallback to the
    per-block loop keeps every signature, so only this catches it."""
    calls = []

    def counted(method):
        def call(self, block):
            calls.append(block)
            return method(self, block)
        return call

    for cls in (AES, DES, TripleDES):
        for name in ("encrypt_block", "decrypt_block"):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    for cls, key_len in CBC_CIPHERS:
        data = bytes(cls.block_size * 7)
        for fast, expected in ((True, 0), (False, 14)):
            calls.clear()
            with runtime.fastpath(fast):
                ct = CBC(cls(bytes(key_len)), bytes(cls.block_size)).encrypt(
                    data)
                CBC(cls(bytes(key_len)), bytes(cls.block_size)).decrypt(ct)
            assert len(calls) == expected


@given(key=st.sampled_from([16, 24, 32]).flatmap(
           lambda n: st.binary(min_size=n, max_size=n)),
       iv=st.binary(min_size=16, max_size=16),
       blocks=st.lists(st.binary(min_size=16, max_size=16),
                       min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_encrypt_block_inverted_by_decrypt_cbc(key, iv, blocks):
    """CBC chained by hand through ``encrypt_block`` is undone by
    ``decrypt_cbc``: the T-table cores against libcrypto's, each way,
    and each against itself."""
    cores = [(fast, on) for fast in (True, False)
             for on in binding_settings()]
    for enc_fast, enc_on in cores:
        with runtime.fastpath(enc_fast), binding(enc_on):
            cipher = AES(key)
            chain, ct = iv, []
            for block in blocks:
                chain = cipher.encrypt_block(
                    (int.from_bytes(block, "big")
                     ^ int.from_bytes(chain, "big")).to_bytes(16, "big"))
                ct.append(chain)
        for dec_fast, dec_on in cores:
            with runtime.fastpath(dec_fast), binding(dec_on):
                assert (AES(key).decrypt_cbc(iv, b"".join(ct))
                        == b"".join(blocks))


def test_rc4_equivalence():
    rng = random.Random(0x4C4)
    for n in (0, 1, 17, 1000):
        key = bytes(rng.randrange(256) for _ in range(16))
        data = bytes(rng.randrange(256) for _ in range(n))

        def workload():
            ct = RC4(key).process(data)
            return ct, RC4(key).process(ct)

        ct, pt = assert_equivalent(workload)
        assert pt == data


HASHES = pytest.mark.parametrize("cls,ref", [(MD5, hashlib.md5),
                                             (SHA1, hashlib.sha1)],
                                  ids=["MD5", "SHA1"])


def copy_workload(cls, head, tail, branch):
    """Hash ``head``, copy the context, then finish the original on the
    ``tail`` chunks and the copy on the ``branch`` chunks."""
    def workload():
        h = cls()
        for chunk in head:
            h.update(chunk)
        snap = h.copy()
        for chunk in tail:
            h.update(chunk)
        for chunk in branch:
            snap.update(chunk)
        return h.digest(), snap.digest()
    return workload


def test_hash_equivalence():
    rng = random.Random(0x4A5)
    # Totals on both sides of the one-or-two-block padding edge (55/56)
    # and of a whole block (63/64, 119/120).
    for n in (0, 1, 55, 56, 63, 64, 65, 119, 120, 1000):
        data = bytes(rng.randrange(256) for _ in range(n))
        head, tail = data[: n // 2], data[n // 2:]
        for cls, ref in ((MD5, hashlib.md5), (SHA1, hashlib.sha1)):
            digests = assert_equivalent(
                copy_workload(cls, [head], [tail], [data]))
            assert digests == (ref(data).digest(),
                               ref(head + data).digest())


#: Chunks that straddle block edges: empty, 1, 63, 64 and 65 bytes, or any.
CHUNKS = st.lists(
    st.one_of(st.sampled_from((0, 1, 63, 64, 65)).map(bytes),
              st.binary(max_size=130)),
    max_size=8)


@HASHES
@given(head=CHUNKS, tail=CHUNKS, branch=CHUNKS)
@settings(max_examples=25, deadline=None)
def test_hash_chunking_equivalence(cls, ref, head, tail, branch):
    """Byte-count charging over any chunking, with a ``copy()`` taken
    mid-stream and finished on other data: the same digests and the same
    charge stream on both backends, and ``hashlib``'s digests."""
    digests = assert_equivalent(copy_workload(cls, head, tail, branch))
    prefix = b"".join(head)
    assert digests == (ref(prefix + b"".join(tail)).digest(),
                       ref(prefix + b"".join(branch)).digest())


@HASHES
@pytest.mark.parametrize("built_fast", [True, False],
                         ids=["built-fast", "built-faithful"])
def test_hash_keeps_its_backend(cls, ref, built_fast):
    """A context computes with the backend it was built on, and so do its
    copies: flipping ``set_fastpath`` during its life changes neither
    the digests nor the charge stream."""
    data = bytes(range(256)) * 2

    def run(flip):
        with runtime.fastpath(built_fast):
            h = cls(data[:100])
        with runtime.fastpath(built_fast != flip):
            snap = h.copy()
            h.update(data[100:300])
            snap.update(data[300:])
            return h.digest(), snap.digest()

    results = []
    for flip in (False, True):
        profiler = perf.Profiler()
        with perf.activate(profiler):
            digests = run(flip)
        results.append((digests, snapshot(profiler)))
    assert results[1] == results[0]
    assert results[0][0] == (ref(data[:300]).digest(),
                             ref(data[:100] + data[300:]).digest())


# ---------------------------------------------------------------------------
# per-connection MAC contexts vs the plain per-record functions
# ---------------------------------------------------------------------------

def mac_workloads(hash_cls, secret):
    """(context-based, plain-function) SSLv3 + TLS MAC workloads."""
    records = [(0, 22, b"finished"), (1, 23, b"x" * 400), (2, 23, b"")]

    def ssl3_ctx():
        ctx = Ssl3MacContext(hash_cls, secret)
        return [ctx.mac(seq, ct, data) for seq, ct, data in records]

    def ssl3_plain():
        return [ssl3_mac(hash_cls, secret, seq, ct, data)
                for seq, ct, data in records]

    def tls_ctx():
        ctx = TlsMacContext(hash_cls, secret)
        return [ctx.mac(seq, ct, 0x0301, data) for seq, ct, data in records]

    def tls_plain():
        return [tls_mac(hash_cls, secret, seq, ct, 0x0301, data)
                for seq, ct, data in records]

    return (ssl3_ctx, ssl3_plain), (tls_ctx, tls_plain)


@pytest.mark.parametrize("hash_cls", [MD5, SHA1])
@pytest.mark.parametrize("secret_len", [0, 16, 64, 100])
def test_mac_context_matches_plain(hash_cls, secret_len):
    """The per-connection MAC contexts must be invisible: same MAC bytes,
    same charged cycles/calls/mixes as calling ssl3_mac/tls_mac per record
    -- including construction, which charges nothing."""
    secret = bytes(range(secret_len % 256))[:secret_len].ljust(secret_len,
                                                               b"\x5a")
    for ctx_fn, plain_fn in mac_workloads(hash_cls, secret):
        results = []
        for fn in (ctx_fn, plain_fn):
            profiler = perf.Profiler()
            with perf.activate(profiler):
                macs = fn()
            results.append((macs, snapshot(profiler)))
        assert results[0] == results[1]
        # And the context path itself is backend-independent.
        assert_equivalent(ctx_fn)


# ---------------------------------------------------------------------------
# keyed hashes: hashlib one-shots charged one recorded plan
# ---------------------------------------------------------------------------

#: MAC data lengths: short records, a full 16 KB fragment, and totals on
#: each side of the one-or-two-final-block edge and of a whole block.
MAC_DATA_LENGTHS = st.one_of(
    st.integers(0, 300),
    st.sampled_from([55, 56, 63, 64, 119, 120, 16384]))


@given(hash_cls=st.sampled_from([MD5, SHA1]), secret_len=st.integers(0, 100),
       data_len=MAC_DATA_LENGTHS, seq=st.integers(0, 2**64 - 2),
       content_type=st.integers(0, 255), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_ssl3_mac_plan_equivalence(hash_cls, secret_len, data_len, seq,
                                   content_type, seed):
    """The fast SSLv3 MAC (``hashlib``, one recorded plan) equals the
    charged construction on the Python cores in bytes and in the full
    charge stream, the second call taking the cached plan."""
    rng = random.Random(seed)
    secret, data = rng.randbytes(secret_len), rng.randbytes(data_len)
    assert_equivalent(lambda: [
        ssl3_mac(hash_cls, secret, seq + k, content_type, data)
        for k in range(2)])


@given(secret_len=st.integers(1, 100), rand1_len=st.integers(0, 64),
       rand2_len=st.integers(0, 64), length=st.integers(1, 7 * 16),
       seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_derive_plan_equivalence(secret_len, rand1_len, rand2_len, length,
                                 seed):
    """``derive`` over 1-7 blocks, and the master secret and key block
    built on it, on both backends: the same bytes and charge stream."""
    rng = random.Random(seed)
    secret = rng.randbytes(secret_len)
    rand1, rand2 = rng.randbytes(rand1_len), rng.randbytes(rand2_len)
    assert_equivalent(lambda: (
        kdf.derive(secret, rand1, rand2, length),
        kdf.master_secret(secret, rand1, rand2),
        kdf.key_block(secret, rand1, rand2, length)))


def finished_workload(md5_len, sha1_len, master, sender, transcript):
    """Both finished-hash constructions on contexts that have taken
    ``md5_len`` and ``sha1_len`` transcript bytes, each passed in and
    then finished on more data: the contexts must end where the charged
    calls leave them."""
    def workload():
        out = []
        for construction in ("finished", "cert_verify"):
            md5_ctx = MD5(transcript[:md5_len])
            sha1_ctx = SHA1(transcript[:sha1_len])
            if construction == "finished":
                out.append(kdf.finished_hashes(md5_ctx, sha1_ctx, master,
                                               sender))
            else:
                out.append(kdf.cert_verify_hashes(md5_ctx, sha1_ctx, master))
            md5_ctx.update(transcript[-7:])
            sha1_ctx.update(transcript[-7:])
            out.append((md5_ctx.digest(), sha1_ctx.digest(),
                        md5_ctx._length, sha1_ctx._length))
        return out
    return workload


@pytest.mark.parametrize("sender", [kdf.SENDER_CLIENT, kdf.SENDER_SERVER])
def test_finished_hashes_plan_at_every_offset(sender):
    """Contexts at every offset mod 64 (the MD5 one at ``k``, the SHA-1
    one at another residue a block further on), so each side of the
    one-or-two-final-block edge is charged: the same digests, contexts
    and charge stream on both backends, and the SSLv3 construction's
    digests."""
    rng = random.Random(0xF1 + len(sender) + sender[0])
    master, transcript = rng.randbytes(48), rng.randbytes(200)
    for k in range(64):
        sha1_len = 64 + (37 * k + 11) % 64
        out = assert_equivalent(
            finished_workload(k, sha1_len, master, sender, transcript))
        for (md5_h, sha1_h), label in ((out[0], sender), (out[2], b"")):
            inner = hashlib.md5(transcript[:k] + label + master
                                + b"\x36" * 48).digest()
            assert md5_h == hashlib.md5(master + b"\x5c" * 48
                                        + inner).digest()
            inner = hashlib.sha1(transcript[:sha1_len] + label + master
                                 + b"\x36" * 40).digest()
            assert sha1_h == hashlib.sha1(master + b"\x5c" * 40
                                          + inner).digest()


@given(md5_len=st.integers(0, 200), sha1_len=st.integers(0, 200),
       master_len=st.integers(0, 100),
       sender=st.sampled_from([kdf.SENDER_CLIENT, kdf.SENDER_SERVER, b""]),
       seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_finished_hashes_plan_equivalence(md5_len, sha1_len, master_len,
                                          sender, seed):
    rng = random.Random(seed)
    assert_equivalent(finished_workload(
        md5_len, sha1_len, rng.randbytes(master_len), sender,
        rng.randbytes(200)))


def _refuse_wrapper(*args, **kwargs):
    raise AssertionError("a charged hash wrapper ran")


def test_fast_keyed_hashes_make_no_wrapper_call(monkeypatch):
    """Once their plans are recorded, the fast SSLv3 MAC, key derivation
    and finished hashes never construct, update or finalize an
    ``MD5``/``SHA1`` wrapper, all patched to raise.  A fallback to the
    charged construction keeps every signature, so the equivalence
    tests cannot see one."""
    master, rand1, rand2 = bytes(range(48)), bytes(32), bytes(range(32))
    data = bytes(range(256)) * 4

    def contexts():
        return MD5(data[:100]), SHA1(data[:100])

    def run(finished, cert_verify):
        return ([ssl3_mac(cls, master[:n], 9, 23, data)
                 for cls, n in ((MD5, 16), (SHA1, 20))]
                + [kdf.master_secret(master, rand1, rand2),
                   kdf.key_block(master, rand1, rand2, 104),
                   kdf.finished_hashes(*finished, master, kdf.SENDER_CLIENT),
                   kdf.cert_verify_hashes(*cert_verify, master)])

    with runtime.fastpath(True), perf.activate(perf.Profiler()):
        expected = run(contexts(), contexts())  # records the plans
        built = contexts(), contexts()
        for cls in (MD5, SHA1):
            for name in ("__init__", "update", "digest"):
                monkeypatch.setattr(cls, name, _refuse_wrapper)
        assert run(*built) == expected
    with runtime.fastpath(False), pytest.raises(AssertionError):
        ssl3_mac(SHA1, master[:20], 9, 23, data)


# ---------------------------------------------------------------------------
# full sessions
# ---------------------------------------------------------------------------

def session_snapshots(fast: bool, data: bytes):
    """One full loopback session under ``fast``; fresh identity and error
    tables per run so lazy per-key state evolves identically.

    The client side is the one client profile that is read (the Table 2
    and 3 client columns), so it must be a recording profiler that holds
    the client's work, the RSA public operation included: two empty
    profiles would compare equal."""
    with runtime.fastpath(True):
        key, cert = make_server_identity(seed=b"equivalence")
    with runtime.fastpath(fast):
        rsa.reset_error_tables()
        result = run_session(data, key=key, cert=cert)
    client = result.client_profiler
    assert type(client) is perf.Profiler
    assert client.total_cycles() > 0
    assert client.functions["BN_mod_exp_mont"].calls > 0
    assert client.region_cycles(
        "get_server_done/send_client_kx/rsa_public_encryption") > 0
    session = result.session
    return (result.echoed, session.master_secret,
            snapshot(result.server_profiler),
            snapshot(result.client_profiler))


def test_run_session_equivalence():
    data = b"GET / HTTP/1.0\r\n\r\n" * 40
    fast = session_snapshots(True, data)
    faithful = session_snapshots(False, data)
    assert fast[0] == faithful[0] == data     # echoed bytes
    assert fast[1] == faithful[1]             # negotiated master secret
    assert fast[2] == faithful[2]             # server charge stream
    assert fast[3] == faithful[3]             # client charge stream


def test_run_session_golden_cycles():
    """Drift guard: the modeled handshake cost for a pinned workload.

    The value is the server-side total for ``run_session`` with the
    default suite and the fixed ``equivalence`` identity.  Both backends
    must reproduce it exactly (the charge stream is deterministic); a
    change here means the *model* changed and the paper tables need
    re-validation, fast path or not.
    """
    golden = session_snapshots(True, b"")[2]
    faithful = session_snapshots(False, b"")[2]
    assert golden == faithful
    cycles = golden[0]["cycles_total"]
    instructions = golden[0]["instructions_total"]
    # The paper's Table 2 server handshake is ~20.5M cycles non-CRT;
    # the CRT default lands near a third of that.  Guard the bracket so
    # a silently dropped or doubled charge cannot hide inside noise.
    assert 4e6 < cycles < 12e6
    assert 5e6 < instructions < 16e6
