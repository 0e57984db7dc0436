"""Batch RSA: product-tree kernels, Shacham-Boneh decryptor, handshake
batching queue, and the concurrent web-server integration."""

import pytest

from repro import perf
from repro.bignum import (
    BigNum, ExponentTree, crt_split_exponent, mod_exp_int,
)
from repro.crypto.batch_rsa import (
    BatchRsaDecryptor, BatchRsaError, BatchRsaKeySet, generate_batch_keys,
)
from repro.crypto.rand import PseudoRandom
from repro.crypto.rsa import RsaError, generate_key
from repro.ssl.ciphersuites import DES_CBC3_SHA
from repro.ssl.client import SslClient
from repro.ssl.errors import HandshakeFailure
from repro.ssl.loopback import pump
from repro.ssl.server import HandshakeBatcher, SslServer
from repro.ssl.x509 import make_self_signed
from repro.webserver.simulator import WebServerSimulator
from repro.webserver.workload import RequestWorkload


@pytest.fixture(scope="session")
def batch_keys4():
    """A deterministic 4-member 512-bit batch key set (e = 3, 5, 7, 11)."""
    return generate_batch_keys(512, 4, rng=PseudoRandom(b"batch-fixture"))


def encrypt_for(keyset, index, message, seed=b"enc"):
    rng = PseudoRandom(seed + bytes([index]))
    return keyset.member(index).public().encrypt(message, rng)


# ---------------------------------------------------------------------------
# Product-tree kernels
# ---------------------------------------------------------------------------

class TestProductTree:
    def test_root_product(self):
        tree = ExponentTree([3, 5, 7, 11])
        assert tree.root.product == 3 * 5 * 7 * 11
        assert [leaf.index for leaf in tree.root.leaves()] == [0, 1, 2, 3]

    def test_odd_sizes_build(self):
        for n in (1, 2, 3, 5, 8):
            exps = [3, 5, 7, 11, 13, 17, 19, 23][:n]
            tree = ExponentTree(exps)
            prod = 1
            for e in exps:
                prod *= e
            assert tree.root.product == prod
            assert len(tree.root.leaves()) == n

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            ExponentTree([3, 9])

    def test_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            ExponentTree([3, 4])
        with pytest.raises(ValueError):
            ExponentTree([1, 3])

    def test_crt_split_exponent(self):
        for el, er in ((3, 5), (15, 7), (3 * 5 * 7, 11), (5, 3)):
            x = crt_split_exponent(el, er)
            assert x % el == 0
            assert x % er == 1
            assert 0 < x < el * er

    def test_crt_split_rejects_common_factor(self):
        with pytest.raises(ValueError):
            crt_split_exponent(15, 3)

    def test_mod_exp_int_matches_pow(self):
        m = BigNum.from_int(0xFFF1)
        for base in (2, 1234567, 0xFFF0):
            for k in (0, 1, 2, 3, 17, 1155):
                got = mod_exp_int(BigNum.from_int(base), k, m)
                assert got.to_int() == pow(base, k, 0xFFF1)


# ---------------------------------------------------------------------------
# Key-set construction
# ---------------------------------------------------------------------------

class TestBatchKeySet:
    def test_generated_members_share_modulus(self, batch_keys4):
        ks = batch_keys4
        assert len(ks) == 4
        assert ks.exponents == (3, 5, 7, 11)
        for member in ks.members[1:]:
            assert member.n == ks.members[0].n

    def test_members_are_working_rsa_keys(self, batch_keys4):
        rng = PseudoRandom(b"roundtrip")
        for i, member in enumerate(batch_keys4.members):
            ct = member.public().encrypt(b"member-%d" % i, rng)
            assert member.decrypt(ct) == b"member-%d" % i

    def test_index_for_by_identity_and_exponent(self, batch_keys4):
        ks = batch_keys4
        for i, member in enumerate(ks.members):
            assert ks.index_for(member) == i

    def test_index_for_rejects_foreign_key(self, batch_keys4):
        other = generate_key(512, rng=PseudoRandom(b"foreign"))
        with pytest.raises(BatchRsaError):
            batch_keys4.index_for(other)

    def test_rejects_mismatched_moduli(self, batch_keys4):
        other = generate_key(512, rng=PseudoRandom(b"other"))
        with pytest.raises(BatchRsaError):
            BatchRsaKeySet([batch_keys4.member(0), other])

    def test_rejects_duplicate_exponents(self, batch_keys4):
        with pytest.raises(BatchRsaError):
            BatchRsaKeySet([batch_keys4.member(0), batch_keys4.member(0)])

    def test_generate_accepts_composite_coprime_exponents(self):
        """The prime search validates gcd(e, phi), not divisibility: a
        composite exponent like 9 can share its factor 3 with phi while
        9 does not divide phi, and the old check then crashed on the
        modular inverse instead of retrying."""
        ks = generate_batch_keys(128, 2, exponents=(5, 9),
                                 rng=PseudoRandom(b"composite-e0"))
        assert ks.exponents == (5, 9)
        rng = PseudoRandom(b"composite-rt")
        for member in ks.members:
            ct = member.public().encrypt(b"msg", rng)
            assert member.decrypt(ct) == b"msg"

    def test_generate_rejects_bad_sizes(self):
        with pytest.raises(BatchRsaError):
            generate_batch_keys(512, 9)  # only 8 default exponents
        with pytest.raises(BatchRsaError):
            generate_batch_keys(63, 2)


# ---------------------------------------------------------------------------
# Batched decryption: equivalence with the per-key private op
# ---------------------------------------------------------------------------

class TestBatchDecryptor:
    @pytest.mark.parametrize("indices", [(0,), (0, 1), (0, 1, 2),
                                         (0, 1, 2, 3), (3, 1)])
    def test_raw_batch_matches_raw_private(self, batch_keys4, indices):
        """The tentpole invariant: batched == per-key, any batch shape."""
        ks = batch_keys4
        dec = BatchRsaDecryptor(ks)
        rng = PseudoRandom(b"raw" + bytes(indices))
        items = [(i, BigNum.from_bytes(rng.bytes(ks.size)).mod(ks.n))
                 for i in indices]
        batched = dec.raw_batch(items)
        singles = [ks.member(i).raw_private(c) for i, c in items]
        assert batched == singles

    @pytest.mark.parametrize("blinding", [True, False])
    def test_equivalence_blinding_on_off(self, batch_keys4, blinding):
        ks = batch_keys4
        dec = BatchRsaDecryptor(ks, blinding=blinding)
        rng = PseudoRandom(b"blind")
        items = [(i, BigNum.from_bytes(rng.bytes(ks.size)).mod(ks.n))
                 for i in range(4)]
        batched = dec.raw_batch(items)
        singles = [ks.member(i).raw_private(c) for i, c in items]
        assert batched == singles

    @pytest.mark.parametrize("use_crt", [True, False])
    def test_equivalence_crt_on_off(self, batch_keys4, use_crt):
        ks = batch_keys4
        old = [m.use_crt for m in ks.members]
        try:
            for m in ks.members:
                m.use_crt = use_crt
            dec = BatchRsaDecryptor(ks)
            rng = PseudoRandom(b"crt")
            items = [(i, BigNum.from_bytes(rng.bytes(ks.size)).mod(ks.n))
                     for i in range(3)]
            assert dec.raw_batch(items) == [
                ks.member(i).raw_private(c) for i, c in items]
        finally:
            for m, flag in zip(ks.members, old):
                m.use_crt = flag

    def test_decrypt_batch_pkcs1_roundtrip(self, batch_keys4):
        ks = batch_keys4
        dec = BatchRsaDecryptor(ks)
        messages = [b"pre-master-%02d" % i for i in range(4)]
        items = [(i, encrypt_for(ks, i, messages[i])) for i in range(4)]
        assert dec.decrypt_batch(items) == messages

    def test_decrypt_batch_bad_padding_is_none_not_error(self, batch_keys4):
        """One corrupt member must not fail (or distinguish) the batch."""
        ks = batch_keys4
        dec = BatchRsaDecryptor(ks)
        items = [(i, encrypt_for(ks, i, b"ok-%d" % i)) for i in range(4)]
        rng = PseudoRandom(b"garbage")
        items[2] = (2, BigNum.from_bytes(rng.bytes(ks.size))
                    .mod(ks.n).to_bytes(ks.size))
        out = dec.decrypt_batch(items)
        assert out[0] == b"ok-0" and out[1] == b"ok-1" and out[3] == b"ok-3"
        assert out[2] is None

    def test_raw_batch_rejects_duplicate_members(self, batch_keys4):
        dec = BatchRsaDecryptor(batch_keys4)
        c = BigNum.from_int(12345)
        with pytest.raises(BatchRsaError):
            dec.raw_batch([(0, c), (0, c)])

    def test_raw_batch_rejects_unknown_index(self, batch_keys4):
        dec = BatchRsaDecryptor(batch_keys4)
        with pytest.raises(BatchRsaError):
            dec.raw_batch([(7, BigNum.from_int(5))])

    def test_raw_batch_rejects_unreduced_input(self, batch_keys4):
        dec = BatchRsaDecryptor(batch_keys4)
        with pytest.raises(RsaError):
            dec.raw_batch([(0, batch_keys4.n), (1, BigNum.from_int(5))])

    def test_empty_batch(self, batch_keys4):
        assert BatchRsaDecryptor(batch_keys4).raw_batch([]) == []

    def test_batch_amortizes_cycles(self, batch_keys4):
        """A batch of 4 must cost well under 4 single private ops."""
        ks = batch_keys4
        dec = BatchRsaDecryptor(ks)
        rng = PseudoRandom(b"cycles")
        items = [(i, BigNum.from_bytes(rng.bytes(ks.size)).mod(ks.n))
                 for i in range(4)]
        batch_prof = perf.Profiler()
        with perf.activate(batch_prof):
            dec.raw_batch(items)
        single_prof = perf.Profiler()
        with perf.activate(single_prof):
            for i, c in items:
                ks.member(i).raw_private(c)
        assert batch_prof.total_cycles() < 0.75 * single_prof.total_cycles()


# ---------------------------------------------------------------------------
# The handshake batching queue
# ---------------------------------------------------------------------------

class TestHandshakeBatcher:
    def _submit(self, batcher, ks, index, results, message=b"m"):
        ct = encrypt_for(ks, index, message, seed=b"q")
        batcher.submit(ks.member(index), ct,
                       lambda pm, i=index: results.append((i, pm)))

    def test_flush_when_batch_fills(self, batch_keys4):
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2)
        results = []
        self._submit(batcher, ks, 0, results, b"a")
        assert len(batcher) == 1 and not batcher.ready and not results
        self._submit(batcher, ks, 1, results, b"b")
        # Submission never flushes inline (attribution: the submitter is
        # mid-dispatch); it only marks the queue ready for the driver.
        assert batcher.ready and not results
        batcher.flush()
        assert len(batcher) == 0
        assert results == [(0, b"a"), (1, b"b")]
        assert batcher.batches == {2: 1}

    def test_timeout_flushes_partial_batch(self, batch_keys4):
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=4, timeout_ticks=3)
        results = []
        self._submit(batcher, ks, 0, results)
        batcher.tick(2)
        assert not results  # deadline not reached yet
        batcher.tick(1)
        assert [i for i, _ in results] == [0]
        assert batcher.batches == {1: 1}

    def test_same_member_splits_into_subbatches(self, batch_keys4):
        """Duplicate exponents cannot share a batch; greedy rounds split."""
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2, timeout_ticks=1)
        results = []
        self._submit(batcher, ks, 0, results, b"x")
        self._submit(batcher, ks, 0, results, b"y")
        assert not results  # two size-1 sub-batches would be premature
        batcher.tick(1)
        assert sorted(pm for _, pm in results) == [b"x", b"y"]
        assert batcher.batches == {1: 2}

    def test_flush_isolates_resume_failures(self, batch_keys4):
        """A continuation that raises (a handshake dying at Finished)
        must not abort the flush loop and strand the rest of the batch."""
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=3)
        results = []

        def explode(pm):
            results.append((0, "raised"))
            raise HandshakeFailure("client finished hash mismatch")

        batcher.submit(ks.member(0), encrypt_for(ks, 0, b"bad", seed=b"q"),
                       explode)
        self._submit(batcher, ks, 1, results, b"ok-1")
        self._submit(batcher, ks, 2, results, b"ok-2")
        batcher.flush()
        assert len(batcher) == 0
        assert results == [(0, "raised"), (1, b"ok-1"), (2, b"ok-2")]

    def test_wrong_size_ciphertext_resolves_immediately(self, batch_keys4):
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2)
        results = []
        batcher.submit(ks.member(0), b"short",
                       lambda pm: results.append(pm))
        assert results == [None]
        assert len(batcher) == 0


# ---------------------------------------------------------------------------
# Server integration: suspended handshakes resume from a batch flush
# ---------------------------------------------------------------------------

class TestBatchedHandshake:
    def _pair(self, ks, index, batcher, seed):
        cert = make_self_signed(f"CN=batch-{index}", ks.member(index))
        server = SslServer(ks.member(index), cert, suites=(DES_CBC3_SHA,),
                           rng=PseudoRandom(seed + b"-s"), batcher=batcher)
        client = SslClient(suites=(DES_CBC3_SHA,),
                           rng=PseudoRandom(seed + b"-c"))
        client.start_handshake()
        return client, server

    def test_two_handshakes_share_one_batch(self, batch_keys4):
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2)
        prof = perf.Profiler()
        c1, s1 = self._pair(ks, 0, batcher, b"one")
        c2, s2 = self._pair(ks, 1, batcher, b"two")
        # First connection parks in the batch queue: the pump goes quiet
        # with the handshake incomplete and the kx held.
        pump(c1, s1, prof, prof)
        assert not s1.handshake_complete
        assert len(batcher) == 1
        # Second connection fills the batch; the flush resumes both.
        pump(c2, s2, prof, prof)
        assert len(batcher) == 0
        pump(c1, s1, prof, prof)
        assert s1.handshake_complete and c1.handshake_complete
        assert s2.handshake_complete and c2.handshake_complete
        assert batcher.batches == {2: 1}

    def test_failed_handshake_does_not_poison_batch(self, batch_keys4):
        """One garbled ClientKeyExchange in a batch fails *only its own*
        handshake.  The Bleichenbacher countermeasure steers the bad
        ciphertext to a Finished-time failure inside the flush; pre-fix,
        that exception aborted the resume loop mid-iteration, stranding
        every later batch member and propagating into the unrelated
        connection whose receive() triggered the flush."""
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2)
        prof = perf.Profiler()
        c1, s1 = self._pair(ks, 0, batcher, b"bad")
        c2, s2 = self._pair(ks, 1, batcher, b"good")
        with perf.activate(prof):
            s1.receive(c1.pending_output())
            c1.receive(s1.pending_output())
            flight = bytearray(c1.pending_output())  # kx + ccs + finished
        # Flip a bit inside the RSA ciphertext (5-byte record header +
        # 4-byte handshake header): the decrypt yields garbage, a random
        # pre-master is substituted, and s1 must die at Finished.
        flight[9] ^= 0xFF
        with perf.activate(prof):
            s1.receive(bytes(flight))
        assert len(batcher) == 1 and not s1.handshake_complete
        # The healthy handshake fills the batch; its receive() flushes,
        # s1's resume fails, and s2 must still complete.
        pump(c2, s2, prof, prof)
        assert len(batcher) == 0
        assert s1.closed and not s1.handshake_complete
        assert s2.handshake_complete and c2.handshake_complete
        assert batcher.batches == {2: 1}

    def test_stale_continuation_after_close_is_ignored(self, batch_keys4):
        """A connection closed while parked in the batch queue must not
        be resumed against its torn-down state when the flush fires."""
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=2)
        prof = perf.Profiler()
        c1, s1 = self._pair(ks, 0, batcher, b"park")
        c2, s2 = self._pair(ks, 1, batcher, b"fill")
        pump(c1, s1, prof, prof)
        assert len(batcher) == 1 and not s1.handshake_complete
        s1.close()
        pump(c2, s2, prof, prof)  # fills the batch and flushes
        assert len(batcher) == 0
        assert not s1.handshake_complete  # stale resume returned early
        assert s2.handshake_complete and c2.handshake_complete

    def test_resumed_connection_carries_data(self, batch_keys4):
        ks = batch_keys4
        batcher = HandshakeBatcher(ks, batch_size=1)  # flush per submit
        prof = perf.Profiler()
        client, server = self._pair(ks, 0, batcher, b"data")
        pump(client, server, prof, prof)
        assert server.handshake_complete
        client.write(b"hello batch rsa")
        server.receive(client.pending_output())
        assert server.read() == b"hello batch rsa"


# ---------------------------------------------------------------------------
# Web-server simulator: concurrency makes batches form under load
# ---------------------------------------------------------------------------

class TestConcurrentSimulator:
    def test_batches_form_under_concurrency(self, batch_keys4):
        sim = WebServerSimulator(key_set=batch_keys4, use_crt=True,
                                 seed=b"batch-sim")
        result = sim.run(RequestWorkload.fixed(1024), 8, concurrency=4)
        assert result.requests_completed == 8
        assert result.failures == 0
        assert result.batched_ops == 8
        assert result.batches.get(4, 0) >= 1

    def test_stragglers_flush_on_timeout(self, batch_keys4):
        # 5 requests at concurrency 4: the last connection can never fill
        # a 4-batch and must complete via a partial flush.
        sim = WebServerSimulator(key_set=batch_keys4, use_crt=True,
                                 seed=b"straggler")
        result = sim.run(RequestWorkload.fixed(512), 5, concurrency=4)
        assert result.requests_completed == 5
        assert result.failures == 0
        assert sum(size * count for size, count in result.batches.items()) \
            == 5

    def test_rerun_reports_only_its_own_batches(self, batch_keys4):
        # The batcher outlives a run and its counters span its whole
        # life; each result must report only its own run's flushes/ops.
        sim = WebServerSimulator(key_set=batch_keys4, batch_size=4,
                                 use_crt=True, seed=b"batch-rerun")
        for _ in range(2):
            result = sim.run(RequestWorkload.fixed(1024), 8, concurrency=4)
            assert result.requests_completed == 8
            assert result.batched_ops == 8
            assert result.batches == {4: 2}

    def test_concurrent_unbatched_matches_sequential(self, identity512):
        key, cert = identity512
        wl = RequestWorkload.fixed(1024)
        seq = WebServerSimulator(key=key, cert=cert, use_crt=True,
                                 seed=b"seq").run(wl, 4)
        conc = WebServerSimulator(key=key, cert=cert, use_crt=True,
                                  seed=b"conc").run(wl, 4, concurrency=4)
        assert conc.requests_completed == seq.requests_completed == 4
        assert conc.failures == 0
        assert conc.bytes_served == seq.bytes_served
