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

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf, runtime
from repro.perf import baseline
from repro.bignum.bn import BigNum
from repro.bignum.modexp import mod_exp
from repro.bignum.montgomery import REDUCTION_STYLES, MontgomeryContext
from repro.crypto import rsa
from repro.crypto.aes import AES
from repro.crypto.des import DES, SEMI_WEAK_KEYS, WEAK_KEYS, TripleDES
from repro.crypto.mac import Ssl3MacContext, TlsMacContext, ssl3_mac, tls_mac
from repro.crypto.md5 import MD5
from repro.crypto.modes import BATCH_MIN_BLOCKS, CBC
from repro.crypto.rc4 import RC4
from repro.crypto.sha1 import SHA1
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


#: AES inputs around the batched-decryption threshold, in blocks.
AES_BATCH_EDGES = (BATCH_MIN_BLOCKS - 1, BATCH_MIN_BLOCKS,
                   BATCH_MIN_BLOCKS + 1, 1025)


def test_cbc_mode_equivalence():
    rng = random.Random(0xCBC)
    cases = [(AES, 16), (AES, 24), (AES, 32), (DES, 8), (TripleDES, 24)]
    for cls, key_len in cases:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        iv = bytes(rng.randrange(256) for _ in range(cls.block_size))
        sizes = [cls.block_size * 11, 16 * 1024]
        if cls is AES:
            sizes += [16 * n for n in AES_BATCH_EDGES]
        for size in sizes:
            data = rng.randbytes(size)

            def workload():
                ct = CBC(cls(key), iv).encrypt(data)
                pt = CBC(cls(key), iv).decrypt(ct)
                return ct, pt

            ct, pt = assert_equivalent(workload)
            assert pt == data


def test_cbc_iv_chains_across_batch_threshold():
    """One CBC object decrypting inputs that cross the batching threshold
    in both directions keeps SSLv3's record-to-record IV chain."""
    rng = random.Random(0x1CB)
    key, iv = rng.randbytes(16), rng.randbytes(16)
    sizes = [3, BATCH_MIN_BLOCKS, 1, BATCH_MIN_BLOCKS + 7,
             BATCH_MIN_BLOCKS - 1, 64, 0, 2, 300]
    records = [rng.randbytes(16 * n) for n in sizes]
    sender = CBC(AES(key), iv)
    sealed = [sender.encrypt(record) for record in records]

    def workload():
        receiver = CBC(AES(key), iv)
        return [(receiver.decrypt(ct), receiver.iv) for ct in sealed]

    chain = iv
    for (plain, got_iv), record, ct in zip(assert_equivalent(workload),
                                           records, sealed):
        chain = ct[-16:] if ct else chain
        assert plain == record
        assert got_iv == chain


AES_KEYS = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@given(key=AES_KEYS, nblocks=st.integers(1, 300), seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_decrypt_blocks_matches_per_block(key, nblocks, seed):
    """The byte-sliced core equals one ``decrypt_block`` per block, in
    output and in the full charge stream, on either backend."""
    data = random.Random(seed).randbytes(16 * nblocks)

    def per_block():
        cipher = AES(key)
        return b"".join(cipher.decrypt_block(data[i:i + 16])
                        for i in range(0, len(data), 16))

    (ref, ref_snap), (faithful, faithful_snap) = run_both(per_block)
    for fast in (True, False):
        with runtime.fastpath(fast):
            profiler = perf.Profiler()
            with perf.activate(profiler):
                got = AES(key).decrypt_blocks(data)
        assert got == ref == faithful
        assert snapshot(profiler) == ref_snap == faithful_snap


@given(key=AES_KEYS, blocks=st.lists(st.binary(min_size=16, max_size=16),
                                     min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_encrypt_block_inverted_by_decrypt_blocks(key, blocks):
    """``encrypt_block`` (the T-table core both backends run) is undone by
    the byte-sliced core, an independent algorithm."""
    for fast in (True, False):
        with runtime.fastpath(fast):
            cipher = AES(key)
            ct = b"".join(cipher.encrypt_block(b) for b in blocks)
            assert cipher.decrypt_blocks(ct) == b"".join(blocks)


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
# full sessions
# ---------------------------------------------------------------------------

def session_snapshots(fast: bool, data: bytes):
    """One full loopback session under ``fast``; fresh identity and error
    tables per run so lazy per-key state evolves identically."""
    with runtime.fastpath(True):
        key, cert = make_server_identity(seed=b"equivalence")
    with runtime.fastpath(fast):
        rsa.reset_error_tables()
        result = run_session(data, key=key, cert=cert)
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
