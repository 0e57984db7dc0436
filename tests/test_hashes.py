"""MD5 and SHA-1: published vectors, hashlib cross-check, API behaviour.

On the fast path the hash classes compute with ``hashlib``, so the vector,
cross-check and API tests run on both backends: the faithful path is
where the from-scratch compression loops meet the published vectors.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1

# RFC 1321 appendix A.5 test suite
MD5_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f"),
    (b"1234567890" * 8, "57edf4a22be3c955ac49da2e2107b67a"),
]

# FIPS 180-2 appendix examples
SHA1_VECTORS = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
]


#: Host backends every vector and API test runs on: the fast path
#: (``hashlib``) and the faithful compression loops.
BACKENDS = (True, False)


class TestMd5Vectors:
    @pytest.mark.parametrize("message,expected", MD5_VECTORS)
    def test_rfc1321(self, message, expected):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert md5(message).hexdigest() == expected

    def test_digest_size(self):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert len(md5(b"x").digest()) == 16


class TestSha1Vectors:
    @pytest.mark.parametrize("message,expected", SHA1_VECTORS[:3])
    def test_fips(self, message, expected):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert sha1(message).hexdigest() == expected

    @pytest.mark.slow
    def test_million_a(self):
        message, expected = SHA1_VECTORS[3]
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert sha1(message).hexdigest() == expected

    def test_digest_size(self):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert len(sha1(b"x").digest()) == 20


class TestAgainstHashlib:
    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_md5_matches(self, data):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert md5(data).digest() == hashlib.md5(data).digest()

    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_sha1_matches(self, data):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert sha1(data).digest() == hashlib.sha1(data).digest()

    @given(st.lists(st.binary(max_size=200), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_oneshot(self, chunks):
        joined = b"".join(chunks)
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                m, s = MD5(), SHA1()
                for chunk in chunks:
                    m.update(chunk)
                    s.update(chunk)
                assert m.digest() == hashlib.md5(joined).digest()
                assert s.digest() == hashlib.sha1(joined).digest()


class TestApi:
    @pytest.mark.parametrize("factory", [MD5, SHA1])
    def test_update_rejects_str(self, factory):
        for fast in BACKENDS:
            with runtime.fastpath(fast), pytest.raises(TypeError):
                factory().update("not bytes")

    @pytest.mark.parametrize("factory", [MD5, SHA1])
    def test_copy_snapshots_state(self, factory):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                h = factory(b"prefix-")
                snap = h.copy()
                h.update(b"tail1")
                snap.update(b"tail2")
                assert h.digest() == factory(b"prefix-tail1").digest()
                assert snap.digest() == factory(b"prefix-tail2").digest()

    @pytest.mark.parametrize("factory", [MD5, SHA1])
    def test_digest_is_idempotent_pure(self, factory):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                h = factory(b"data")
                assert h.digest() == h.digest()

    @pytest.mark.parametrize("factory", [MD5, SHA1])
    def test_accepts_bytearray_and_memoryview(self, factory):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                ref = factory(b"hello").digest()
                assert factory(bytearray(b"hello")).digest() == ref
                h = factory()
                h.update(memoryview(b"hello"))
                assert h.digest() == ref

    @pytest.mark.parametrize("factory,pad_boundary", [(MD5, 55), (SHA1, 55)])
    def test_padding_boundaries(self, factory, pad_boundary):
        # Lengths around the 55/56/63/64 padding edges.
        ref = {MD5: hashlib.md5, SHA1: hashlib.sha1}[factory]
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                for n in (54, 55, 56, 57, 63, 64, 65, 119, 120, 128):
                    data = bytes(range(256))[:n] * 1
                    assert factory(data).digest() == ref(data).digest()


class TestInstrumentation:
    def test_update_charges_blocks(self, isolated_profiler):
        MD5(bytes(640)).digest()
        stats = isolated_profiler.functions["MD5_Update"]
        assert stats.cycles > 0

    def test_hash_cost_scales_linearly(self):
        from repro import perf
        costs = []
        for n in (64 * 16, 64 * 32):
            p = perf.Profiler()
            with perf.activate(p):
                SHA1(bytes(n)).digest()
            costs.append(p.total_cycles())
        assert costs[1] / costs[0] == pytest.approx(2.0, rel=0.1)


class TestSha256:
    """SHA-256 (FIPS 180-2, the standard the paper cites for SHA-1)."""

    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff"
                 "61f20015ad"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db"
         "06c1"),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_fips_vectors(self, message, expected):
        from repro.crypto.sha256 import SHA256
        assert SHA256(message).hexdigest() == expected

    @given(st.binary(max_size=2000))
    @settings(max_examples=40, deadline=None)
    def test_matches_hashlib(self, data):
        from repro.crypto.sha256 import SHA256
        assert SHA256(data).digest() == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=150), max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_incremental(self, chunks):
        from repro.crypto.sha256 import SHA256
        h = SHA256()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == hashlib.sha256(b"".join(chunks)).digest()

    def test_copy_snapshots(self):
        from repro.crypto.sha256 import SHA256
        h = SHA256(b"pre")
        snap = h.copy()
        h.update(b"-a")
        snap.update(b"-b")
        assert h.digest() == hashlib.sha256(b"pre-a").digest()
        assert snap.digest() == hashlib.sha256(b"pre-b").digest()

    def test_costs_more_than_sha1(self):
        """The successor hash trades cycles for security margin."""
        from repro.crypto.bench import measure_hash
        sha1_m = measure_hash("sha1", 8192)
        sha256_m = measure_hash("sha256", 8192)
        assert sha256_m.cycles > 1.3 * sha1_m.cycles
        assert sha256_m.path_length > 1.3 * sha1_m.path_length

    def test_update_type_checked(self):
        from repro.crypto.sha256 import SHA256
        with pytest.raises(TypeError):
            SHA256().update("text")
