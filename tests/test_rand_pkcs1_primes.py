"""PRNG determinism, PKCS#1 formatting, prime generation."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.crypto import native, pkcs1
from repro.crypto.pkcs1 import Pkcs1Error
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rand import PseudoRandom


class TestPseudoRandom:
    def test_deterministic_for_equal_seeds(self):
        a = PseudoRandom(b"seed").bytes(64)
        b = PseudoRandom(b"seed").bytes(64)
        assert a == b

    def test_different_seeds_differ(self):
        assert PseudoRandom(b"s1").bytes(32) != PseudoRandom(b"s2").bytes(32)

    def test_stream_advances(self):
        rng = PseudoRandom(b"seed")
        assert rng.bytes(16) != rng.bytes(16)

    def test_reseed_resets(self):
        rng = PseudoRandom(b"seed")
        first = rng.bytes(16)
        rng.bytes(100)
        rng.seed(b"seed")
        assert rng.bytes(16) == first

    def test_zero_length(self):
        assert PseudoRandom(b"s").bytes(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PseudoRandom(b"s").bytes(-1)

    @given(st.integers(1, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_int_below_in_range(self, bound):
        rng = PseudoRandom(b"bound-test")
        for _ in range(5):
            assert 0 <= rng.int_below(bound) < bound

    def test_int_below_invalid_bound(self):
        with pytest.raises(ValueError):
            PseudoRandom(b"s").int_below(0)

    @given(st.integers(8, 256))
    @settings(max_examples=20, deadline=None)
    def test_odd_int_properties(self, bits):
        v = PseudoRandom(b"odd").odd_int(bits)
        assert v % 2 == 1
        assert v.bit_length() == bits

    def test_charged_as_rand_pseudo_bytes(self, isolated_profiler):
        PseudoRandom(b"s").bytes(32)
        stats = isolated_profiler.functions.get("rand_pseudo_bytes")
        assert stats is not None and stats.cycles > 0

    #: SHA-256 of :meth:`transcript`, recorded on the pure-Python
    #: generator.  Every key and wire transcript depends on these bytes.
    PINNED = "ba7e3b27e7f90978d6874507659a5f129354a2cab5a27f10545d9b34846d26b0"

    @staticmethod
    def transcript() -> str:
        h = hashlib.sha256()
        for seed in (b"repro-ssl-anatomy", b"rand-pin"):
            rng = PseudoRandom(seed)
            for n in (0, 1, 15, 16, 17, 28, 46, 128, 1000):
                h.update(rng.bytes(n))
            h.update(rng.int_below(10 ** 30).to_bytes(13, "big"))
            h.update(rng.odd_int(512).to_bytes(64, "big"))
        return h.hexdigest()

    def test_pinned_transcript(self, isolated_profiler):
        """The same bytes with the libcrypto binding, with it forced off,
        and on the faithful path."""
        for fast, on in ((True, native.available), (True, False),
                         (False, False)):
            with runtime.fastpath(fast), \
                    mock.patch.object(native, "available", on):
                assert self.transcript() == self.PINNED


class TestPkcs1Encryption:
    def test_roundtrip(self, rng):
        block = pkcs1.pad_encrypt(b"pre-master" * 4, 128, rng)
        assert len(block) == 128
        assert pkcs1.unpad_decrypt(block, 128) == b"pre-master" * 4

    def test_structure(self, rng):
        block = pkcs1.pad_encrypt(b"m", 64, rng)
        assert block[0] == 0 and block[1] == 2
        assert 0 not in block[2:-2]  # PS is non-zero

    def test_message_too_long(self, rng):
        with pytest.raises(Pkcs1Error):
            pkcs1.pad_encrypt(bytes(54), 64, rng)

    def test_max_length_message(self, rng):
        msg = bytes(range(53))
        block = pkcs1.pad_encrypt(msg, 64, rng)
        assert pkcs1.unpad_decrypt(block, 64) == msg

    @pytest.mark.parametrize("mutant", [
        b"\x01\x02" + b"\xaa" * 61 + b"\x00",      # bad leading byte
        b"\x00\x01" + b"\xaa" * 61 + b"\x00",      # bad block type
        b"\x00\x02" + b"\xaa" * 62,                 # no separator
        b"\x00\x02" + b"\xaa" * 3 + b"\x00" + b"m" * 58,  # PS too short
    ])
    def test_malformed_blocks_rejected(self, mutant):
        with pytest.raises(Pkcs1Error):
            pkcs1.unpad_decrypt(mutant, 64)

    def test_length_mismatch_rejected(self):
        with pytest.raises(Pkcs1Error):
            pkcs1.unpad_decrypt(bytes(63), 64)

    @given(st.binary(min_size=1, max_size=48))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, msg):
        rng = PseudoRandom(b"pkcs1-prop")
        assert pkcs1.unpad_decrypt(pkcs1.pad_encrypt(msg, 128, rng),
                                   128) == msg


class TestPkcs1Signature:
    def test_roundtrip(self):
        payload = b"digest-info-bytes"
        block = pkcs1.pad_sign(payload, 64)
        assert block[0] == 0 and block[1] == 1
        assert pkcs1.unpad_verify(block, 64) == payload

    def test_ps_is_all_ff(self):
        block = pkcs1.pad_sign(b"x", 64)
        assert set(block[2:-2]) == {0xFF}

    def test_malformed_rejected(self):
        good = bytearray(pkcs1.pad_sign(b"x", 64))
        bad = bytes(good[:5]) + b"\x00" + bytes(good[6:])
        with pytest.raises(Pkcs1Error):
            pkcs1.unpad_verify(bad, 64)

    def test_digest_info_prefixes(self):
        di = pkcs1.digest_info("sha1", bytes(20))
        assert di.startswith(bytes.fromhex("3021300906052b0e03021a"))
        di_md5 = pkcs1.digest_info("md5", bytes(16))
        assert len(di_md5) == 18 + 16

    def test_digest_info_unknown_hash(self):
        with pytest.raises(Pkcs1Error):
            pkcs1.digest_info("sha999", bytes(20))


class TestPrimes:
    KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 61) - 1]
    KNOWN_COMPOSITES = [1, 4, 100, 561, 8911, 1 << 40]  # incl. Carmichael

    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p, rng):
        assert is_probable_prime(p, rng)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_known_composites(self, c, rng):
        assert not is_probable_prime(c, rng)

    def test_generated_prime_properties(self, rng):
        p = generate_prime(96, rng)
        assert p.bit_length() == 96
        assert p % 2 == 1
        assert is_probable_prime(p, rng)

    def test_top_two_bits_set(self, rng):
        p = generate_prime(64, rng)
        assert (p >> 62) & 0b11 == 0b11

    def test_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_prime(8, rng)
