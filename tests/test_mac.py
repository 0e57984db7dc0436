"""SSLv3 MAC and HMAC tests (RFC 2202 vectors for HMAC).

The HMAC tests run on both host backends, so the RFC 2202 vectors test
the from-scratch hash loops as well as the fast path's ``hashlib``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.crypto.mac import hmac, ssl3_mac
from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1

# RFC 2202 HMAC-MD5 vectors (cases 1-3)
HMAC_MD5_VECTORS = [
    (b"\x0b" * 16, b"Hi There", "9294727a3638bb1c13f48ef8158bfc9d"),
    (b"Jefe", b"what do ya want for nothing?",
     "750c783e6ab0b503eaa86e310a5db738"),
    (b"\xaa" * 16, b"\xdd" * 50, "56be34521d144c88dbb8c733f0e8b3f6"),
]

# RFC 2202 HMAC-SHA1 vectors (cases 1-3)
HMAC_SHA1_VECTORS = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
]


#: Host backends the HMAC tests run on: the fast path (``hashlib``) and
#: the faithful compression loops.
BACKENDS = (True, False)


class TestHmac:
    @pytest.mark.parametrize("key,msg,expected", HMAC_MD5_VECTORS)
    def test_hmac_md5_rfc2202(self, key, msg, expected):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert hmac(MD5, key, msg).hex() == expected

    @pytest.mark.parametrize("key,msg,expected", HMAC_SHA1_VECTORS)
    def test_hmac_sha1_rfc2202(self, key, msg, expected):
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert hmac(SHA1, key, msg).hex() == expected

    def test_long_key_is_hashed(self):
        # RFC 2202 case 6: 80-byte key
        key = b"\xaa" * 80
        msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert hmac(SHA1, key, msg).hex() == \
                    "aa4ae5e15272d00e95705637ce8a3b55ed402112"

    @given(st.binary(max_size=100), st.binary(max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_matches_stdlib_hmac(self, key, msg):
        import hashlib
        import hmac as stdlib_hmac
        expected = stdlib_hmac.new(key, msg, hashlib.sha1).digest()
        for fast in BACKENDS:
            with runtime.fastpath(fast):
                assert hmac(SHA1, key, msg) == expected


class TestSsl3Mac:
    def test_deterministic(self):
        a = ssl3_mac(SHA1, b"secret" * 4, 0, 23, b"payload")
        b = ssl3_mac(SHA1, b"secret" * 4, 0, 23, b"payload")
        assert a == b

    def test_mac_sizes(self):
        assert len(ssl3_mac(SHA1, b"k" * 20, 0, 23, b"x")) == 20
        assert len(ssl3_mac(MD5, b"k" * 16, 0, 23, b"x")) == 16

    @pytest.mark.parametrize("mutation", [
        ("secret", b"secret2" * 3),
        ("seq", 1),
        ("content_type", 22),
        ("data", b"payloae"),
    ])
    def test_any_input_change_changes_mac(self, mutation):
        base = dict(secret=b"secret" * 4, seq=0, content_type=23,
                    data=b"payload")
        ref = ssl3_mac(SHA1, base["secret"], base["seq"],
                       base["content_type"], base["data"])
        field, value = mutation
        changed = dict(base)
        changed[field] = value
        got = ssl3_mac(SHA1, changed["secret"], changed["seq"],
                       changed["content_type"], changed["data"])
        assert got != ref

    def test_sequence_number_range_checked(self):
        with pytest.raises(ValueError):
            ssl3_mac(SHA1, b"k", -1, 23, b"x")
        with pytest.raises(ValueError):
            ssl3_mac(SHA1, b"k", 1 << 64, 23, b"x")

    def test_max_sequence_number_ok(self):
        assert ssl3_mac(SHA1, b"k", (1 << 64) - 1, 23, b"x")

    @given(st.binary(min_size=1, max_size=40), st.integers(0, 1000),
           st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_never_equal_across_digests(self, secret, seq, data):
        md5_mac = ssl3_mac(MD5, secret, seq, 23, data)
        sha_mac = ssl3_mac(SHA1, secret, seq, 23, data)
        assert md5_mac != sha_mac[:16]

    def test_charged_as_mac_function(self, isolated_profiler):
        ssl3_mac(SHA1, b"k" * 20, 0, 23, b"data")
        assert "mac" in isolated_profiler.functions
