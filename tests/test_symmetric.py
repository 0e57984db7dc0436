"""RC4, DES, 3DES, AES: published vectors and property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.des import DES, TripleDES
from repro.crypto.rc4 import RC4


class TestRc4:
    def test_classic_vectors(self):
        assert RC4(b"Key").process(b"Plaintext").hex() == \
            "bbf316e8d940af0ad3"
        assert RC4(b"Wiki").process(b"pedia").hex() == "1021bf0420"
        assert RC4(b"Secret").process(b"Attack at dawn").hex() == \
            "45a01f645fc35b383552544b9bf5"

    def test_rfc6229_key_0102030405(self):
        ks = RC4(bytes.fromhex("0102030405")).process(bytes(16))
        assert ks.hex() == "b2396305f03dc027ccc3524a0a1118a8"

    def test_encryption_is_decryption(self):
        data = b"symmetric stream cipher" * 3
        assert RC4(b"k1").process(RC4(b"k1").process(data)) == data

    def test_incremental_continuity(self):
        oneshot = RC4(b"key").process(bytes(100))
        stream = RC4(b"key")
        pieces = b"".join(stream.process(bytes(n)) for n in (1, 9, 40, 50))
        assert pieces == oneshot

    def test_empty_input(self):
        assert RC4(b"key").process(b"") == b""

    @pytest.mark.parametrize("bad", [b"", b"x" * 257])
    def test_key_length_validation(self, bad):
        with pytest.raises(ValueError):
            RC4(bad)

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, key, data):
        assert RC4(key).process(RC4(key).process(data)) == data

    def test_state_table_is_permutation_after_setup(self):
        cipher = RC4(b"any key")
        assert sorted(cipher._s) == list(range(256))


class TestDes:
    def test_classic_known_answer(self):
        pt, ct = bytes.fromhex("0123456789ABCDEF"), \
            bytes.fromhex("85E813540F0AB405")
        for fast in (True, False):
            with runtime.fastpath(fast):
                d = DES(bytes.fromhex("133457799BBCDFF1"))
                assert d.encrypt_block(pt) == ct
                assert d.decrypt_block(ct) == pt

    def test_all_zero_key(self):
        for fast in (True, False):
            with runtime.fastpath(fast):
                d = DES(bytes(8))
                assert d.encrypt_block(bytes(8)) == \
                    bytes.fromhex("8CA64DE9C1B123A7")

    def test_all_ones_key(self):
        for fast in (True, False):
            with runtime.fastpath(fast):
                d = DES(b"\xff" * 8)
                assert d.encrypt_block(b"\xff" * 8) == \
                    bytes.fromhex("7359B2163E4EDC58")

    def test_rivest_iterated_vector(self):
        """Rivest's test: 16 alternating encryptions and decryptions,
        each keyed by the current block itself."""
        for fast in (True, False):
            with runtime.fastpath(fast):
                x = bytes.fromhex("9474B8E8C73BCA7D")
                for i in range(16):
                    d = DES(x)
                    x = d.encrypt_block(x) if i % 2 == 0 \
                        else d.decrypt_block(x)
                assert x == bytes.fromhex("1B1A2DDB4C642438")

    def test_decrypt_inverts(self):
        d = DES(b"8bytekey")
        ct = d.encrypt_block(b"12345678")
        assert d.decrypt_block(ct) == b"12345678"

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8,
                                                        max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, key, block):
        d = DES(key)
        assert d.decrypt_block(d.encrypt_block(block)) == block

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            DES(b"short")

    def test_block_length_validation(self):
        with pytest.raises(ValueError):
            DES(b"8bytekey").encrypt_block(b"toolongblock")

    def test_complementation_property(self):
        """DES(~k, ~p) == ~DES(k, p) -- a classic structural identity."""
        key = bytes.fromhex("133457799BBCDFF1")
        pt = bytes.fromhex("0123456789ABCDEF")
        inv = bytes(b ^ 0xFF for b in key)
        inv_pt = bytes(b ^ 0xFF for b in pt)
        for fast in (True, False):
            with runtime.fastpath(fast):
                ct = DES(key).encrypt_block(pt)
                ct2 = DES(inv).encrypt_block(inv_pt)
                assert ct2 == bytes(b ^ 0xFF for b in ct)


class TestTripleDes:
    def test_sp800_67_vector(self):
        key = bytes.fromhex(
            "0123456789ABCDEF23456789ABCDEF01456789ABCDEF0123")
        pt = b"The qufck brown fox jump"
        for fast in (True, False):
            with runtime.fastpath(fast):
                t = TripleDES(key)
                ct = b"".join(t.encrypt_block(pt[i:i + 8])
                              for i in range(0, 24, 8))
                assert ct.hex().upper() == ("A826FD8CE53B855FCCE21C8112256FE6"
                                            "68D5C05DD9B6B900")
                assert b"".join(t.decrypt_block(ct[i:i + 8])
                                for i in range(0, 24, 8)) == pt

    def test_degenerates_to_single_des_with_equal_keys(self):
        key = bytes.fromhex("133457799BBCDFF1")
        pt = b"ABCDEFGH"
        for fast in (True, False):
            with runtime.fastpath(fast):
                t = TripleDES(key * 3)
                d = DES(key)
                assert t.encrypt_block(pt) == d.encrypt_block(pt)
                assert t.decrypt_block(pt) == d.decrypt_block(pt)

    @given(st.binary(min_size=24, max_size=24),
           st.binary(min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, key, block):
        t = TripleDES(key)
        assert t.decrypt_block(t.encrypt_block(block)) == block

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            TripleDES(b"x" * 16)

    def test_runs_three_times_the_rounds(self, isolated_profiler):
        from repro import perf
        p1 = perf.Profiler()
        with perf.activate(p1):
            DES(b"k" * 8).encrypt_block(b"B" * 8)
        p3 = perf.Profiler()
        with perf.activate(p3):
            TripleDES(b"k" * 24).encrypt_block(b"B" * 8)
        r1 = p1.functions["DES_encrypt"].mix.total()
        r3 = p3.functions["DES_encrypt3"].mix.total()
        assert 2.2 < r3 / r1 < 3.0  # 3x rounds, shared IP/FP


class TestAes:
    # FIPS 197 appendix C
    PT = bytes.fromhex("00112233445566778899aabbccddeeff")
    CASES = [
        (bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        (bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"),
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (bytes.fromhex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f"),
         "8ea2b7ca516745bfeafc49904b496089"),
    ]

    @pytest.mark.parametrize("key,expected", CASES)
    def test_fips197_appendix_c(self, key, expected):
        for fast in (True, False):
            with runtime.fastpath(fast):
                a = AES(key)
                ct = a.encrypt_block(self.PT)
                assert ct.hex() == expected
                assert a.decrypt_block(ct) == self.PT
                assert a.decrypt_blocks(ct * 3) == self.PT * 3

    def test_fips197_appendix_b(self):
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        ct = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        for fast in (True, False):
            with runtime.fastpath(fast):
                a = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
                assert a.encrypt_block(pt) == ct
                assert a.decrypt_blocks(ct) == pt

    def test_round_counts(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14

    def test_sbox_generated_correctly(self):
        # FIPS 197 spot values
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            AES(bytes(20))

    def test_block_length_validation(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(bytes(8))
        with pytest.raises(ValueError):
            AES(bytes(16)).decrypt_blocks(bytes(24))

    @given(st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=16, max_size=16))))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, key_block):
        key, block = key_block
        a = AES(key)
        assert a.decrypt_block(a.encrypt_block(block)) == block

    def test_256_runs_more_rounds_than_128(self, isolated_profiler):
        from repro import perf
        p128, p256 = perf.Profiler(), perf.Profiler()
        with perf.activate(p128):
            AES(bytes(16)).encrypt_block(bytes(16))
        with perf.activate(p256):
            AES(bytes(32)).encrypt_block(bytes(16))
        # Table 5: larger key only lengthens the main-rounds part.
        assert p256.functions["AES_encrypt"].cycles > \
            p128.functions["AES_encrypt"].cycles


class TestAesAvsKat:
    """NIST AESAVS GFSbox known-answer vectors (zero key)."""

    GFSBOX_128 = [
        ("f34481ec3cc627bacd5dc3fb08f273e6",
         "0336763e966d92595a567cc9ce537f5e"),
        ("9798c4640bad75c7c3227db910174e72",
         "a9a1631bf4996954ebc093957b234589"),
        ("96ab5c2ff612d9dfaae8c31f30c42168",
         "ff4f8391a6a40ca5b25d23bedd44a597"),
    ]

    @pytest.mark.parametrize("pt,ct", GFSBOX_128)
    def test_gfsbox_128(self, pt, ct):
        for fast in (True, False):
            with runtime.fastpath(fast):
                a = AES(bytes(16))
                assert a.encrypt_block(bytes.fromhex(pt)).hex() == ct
                assert a.decrypt_block(bytes.fromhex(ct)).hex() == pt
                assert a.decrypt_blocks(bytes.fromhex(ct)).hex() == pt

    def test_chained_encryption_reversible(self):
        """Monte-Carlo-style chaining: 1000 chained encryptions walk back
        to the start under 1000 decryptions, and the trajectory never
        cycles early."""
        a = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        block = bytes(16)
        trajectory = [block]
        seen = set()
        for _ in range(1000):
            assert block not in seen
            seen.add(block)
            block = a.encrypt_block(block)
            trajectory.append(block)
        # The byte-sliced core undoes every step at once.
        assert a.decrypt_blocks(b"".join(trajectory[1:])) == \
            b"".join(trajectory[:-1])
        for _ in range(1000):
            block = a.decrypt_block(block)
        assert block == bytes(16)
