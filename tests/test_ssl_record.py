"""Record layer: sealing/opening, padding, MAC enforcement, framing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.ssl import kdf
from repro.ssl.ciphersuites import (
    AES128_SHA, ALL_SUITES, DES_CBC3_SHA, NULL_SHA, RC4_MD5, lookup,
)
from repro.ssl.errors import BadRecordMac, DecodeError
from repro.ssl.record import (
    ConnectionState, ContentType, KeyMaterial, RecordLayer, SSL3_VERSION,
    TLS1_VERSION,
)


def make_states(suite, seed=b"record-test", version=SSL3_VERSION):
    """A matched (sender, receiver) state pair for one direction."""
    need = suite.key_material_length() // 2
    block = kdf.derive(bytes(48), seed.ljust(32, b"\0"), bytes(32),
                       suite.key_material_length())
    material = KeyMaterial(
        mac_secret=block[:suite.mac_key_len],
        key=block[suite.mac_key_len:suite.mac_key_len + suite.key_len],
        iv=block[need - suite.iv_len:need],
    )
    tx = ConnectionState(suite, material, version)
    rx = ConnectionState(suite, KeyMaterial(material.mac_secret,
                                            material.key, material.iv),
                         version)
    return tx, rx


class TestSealOpen:
    @pytest.mark.parametrize("suite", ALL_SUITES, ids=lambda s: s.name)
    def test_roundtrip_every_suite(self, suite):
        tx, rx = make_states(suite)
        payload = b"application data" * 9
        body = tx.seal(ContentType.APPLICATION_DATA, payload)
        assert rx.open(ContentType.APPLICATION_DATA, body) == payload

    def test_ciphertext_differs_from_plaintext(self):
        tx, _ = make_states(DES_CBC3_SHA)
        payload = b"secret" * 10
        body = tx.seal(ContentType.APPLICATION_DATA, payload)
        assert payload not in body

    def test_block_padding_alignment(self):
        tx, _ = make_states(DES_CBC3_SHA)
        for n in range(1, 20):
            body = tx.seal(ContentType.APPLICATION_DATA, bytes(n))
            assert len(body) % 8 == 0

    def test_stream_cipher_no_padding(self):
        tx, _ = make_states(RC4_MD5)
        body = tx.seal(ContentType.APPLICATION_DATA, bytes(10))
        assert len(body) == 10 + 16  # data + MD5 MAC

    def test_null_cipher_passthrough_with_mac(self):
        tx, rx = make_states(NULL_SHA)
        body = tx.seal(ContentType.APPLICATION_DATA, b"plain")
        assert body.startswith(b"plain")
        assert len(body) == 5 + 20
        assert rx.open(ContentType.APPLICATION_DATA, body) == b"plain"

    def test_sequence_numbers_advance_together(self):
        tx, rx = make_states(AES128_SHA)
        for i in range(5):
            body = tx.seal(ContentType.APPLICATION_DATA, f"msg{i}".encode())
            assert rx.open(ContentType.APPLICATION_DATA,
                           body) == f"msg{i}".encode()

    def test_replayed_record_rejected(self):
        tx, rx = make_states(AES128_SHA)
        body = tx.seal(ContentType.APPLICATION_DATA, b"once")
        rx.open(ContentType.APPLICATION_DATA, body)
        with pytest.raises(BadRecordMac):
            rx.open(ContentType.APPLICATION_DATA, body)

    def test_tampered_ciphertext_rejected(self):
        tx, rx = make_states(DES_CBC3_SHA)
        body = bytearray(tx.seal(ContentType.APPLICATION_DATA, b"x" * 32))
        body[4] ^= 0x01
        with pytest.raises(BadRecordMac):
            rx.open(ContentType.APPLICATION_DATA, bytes(body))

    def test_wrong_content_type_rejected(self):
        tx, rx = make_states(AES128_SHA)
        body = tx.seal(ContentType.APPLICATION_DATA, b"typed")
        with pytest.raises(BadRecordMac):
            rx.open(ContentType.HANDSHAKE, body)

    def test_truncated_ciphertext_rejected(self):
        tx, rx = make_states(DES_CBC3_SHA)
        body = tx.seal(ContentType.APPLICATION_DATA, b"y" * 32)
        with pytest.raises(BadRecordMac):
            rx.open(ContentType.APPLICATION_DATA, body[:-8])

    def test_non_block_multiple_rejected(self):
        _, rx = make_states(DES_CBC3_SHA)
        with pytest.raises(BadRecordMac):
            rx.open(ContentType.APPLICATION_DATA, bytes(13))

    def test_oversized_fragment_rejected(self):
        tx, _ = make_states(AES128_SHA)
        with pytest.raises(ValueError):
            tx.seal(ContentType.APPLICATION_DATA, bytes(16385))

    @given(st.binary(max_size=2000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, payload):
        tx, rx = make_states(DES_CBC3_SHA, seed=b"prop")
        body = tx.seal(ContentType.APPLICATION_DATA, payload)
        assert rx.open(ContentType.APPLICATION_DATA, body) == payload


class TestBatchedOpenFailures:
    """Failures stay uniform when a full 16 KB AES record decrypts in one
    call (``decrypt_cbc``, in libcrypto on the fast path) and when it
    decrypts block by block (the faithful path)."""

    PAYLOAD = bytes(range(256)) * 64

    @staticmethod
    def damage(body: bytearray, how: str) -> bytes:
        if how == "flip_mid":
            body[len(body) // 2] ^= 0x01
        elif how == "flip_last_block":
            body[-3] ^= 0x01
        else:  # truncate_block
            del body[-16:]
        return bytes(body)

    @pytest.mark.parametrize("how", ["flip_mid", "flip_last_block",
                                     "truncate_block"])
    @pytest.mark.parametrize("version", [SSL3_VERSION, TLS1_VERSION],
                             ids=["ssl3", "tls1"])
    def test_damaged_16k_record_rejected(self, version, how):
        for fast in (True, False):
            with runtime.fastpath(fast):
                tx, rx = make_states(AES128_SHA, version=version)
                body = tx.seal(ContentType.APPLICATION_DATA, self.PAYLOAD)
                assert len(body) > len(self.PAYLOAD)
                _, intact_rx = make_states(AES128_SHA, version=version)
                assert intact_rx.open(ContentType.APPLICATION_DATA,
                                      body) == self.PAYLOAD
                with pytest.raises(BadRecordMac):
                    rx.open(ContentType.APPLICATION_DATA,
                            self.damage(bytearray(body), how))
                assert rx.seq_num == 1


class TestRecordLayerFraming:
    def test_emit_header_format(self):
        rl = RecordLayer()
        wire = rl.emit(ContentType.HANDSHAKE, b"hello")
        assert wire[0] == ContentType.HANDSHAKE
        assert int.from_bytes(wire[1:3], "big") == SSL3_VERSION
        assert int.from_bytes(wire[3:5], "big") == 5
        assert wire[5:] == b"hello"

    def test_fragmentation_over_16k(self):
        rl = RecordLayer()
        wire = rl.emit(ContentType.APPLICATION_DATA, bytes(40000))
        rx = RecordLayer()
        records = rx.feed(wire)
        assert len(records) == 3
        assert sum(len(p) for _, p in records) == 40000
        assert max(len(p) for _, p in records) == 16384

    def test_feed_handles_partial_delivery(self):
        tx, rx = RecordLayer(), RecordLayer()
        wire = tx.emit(ContentType.APPLICATION_DATA, b"fragmented-arrival")
        got = []
        for i in range(0, len(wire), 3):
            got.extend(rx.feed(wire[i:i + 3]))
        assert got == [(ContentType.APPLICATION_DATA, b"fragmented-arrival")]

    def test_feed_multiple_records_at_once(self):
        tx, rx = RecordLayer(), RecordLayer()
        wire = tx.emit(ContentType.HANDSHAKE, b"a") + tx.emit(
            ContentType.ALERT, b"bb")
        assert [t for t, _ in rx.feed(wire)] == [ContentType.HANDSHAKE,
                                                 ContentType.ALERT]

    def test_bad_content_type_rejected(self):
        rl = RecordLayer()
        with pytest.raises(DecodeError):
            rl.feed(b"\x63\x03\x00\x00\x01x")

    def test_bad_version_rejected(self):
        rl = RecordLayer()
        with pytest.raises(DecodeError):
            rl.feed(b"\x16\x03\x02\x00\x01x")  # TLS 1.1: unsupported

    def test_tls10_version_accepted(self):
        rl = RecordLayer()
        assert rl.feed(b"\x16\x03\x01\x00\x01x") == [(22, b"x")]

    def test_oversize_record_rejected(self):
        rl = RecordLayer()
        header = bytes([22]) + b"\x03\x00" + (20000).to_bytes(2, "big")
        with pytest.raises(DecodeError):
            rl.feed(header)

    def test_emit_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            RecordLayer().emit(99, b"x")

    def test_encrypted_end_to_end_through_layers(self):
        suite = DES_CBC3_SHA
        tx_state, rx_state = make_states(suite)
        tx, rx = RecordLayer(), RecordLayer()
        tx.set_write_state(tx_state)
        rx.set_read_state(rx_state)
        wire = tx.emit(ContentType.APPLICATION_DATA, b"layered" * 11)
        assert rx.feed(wire) == [(ContentType.APPLICATION_DATA,
                                  b"layered" * 11)]

    def test_write_read_active_flags(self):
        rl = RecordLayer()
        assert not rl.write_active and not rl.read_active
        tx_state, _ = make_states(AES128_SHA)
        rl.set_write_state(tx_state)
        assert rl.write_active and not rl.read_active


class TestCipherSuiteRegistry:
    def test_lookup_by_name_id_identity(self):
        assert lookup("DES-CBC3-SHA") is DES_CBC3_SHA
        assert lookup(0x000A) is DES_CBC3_SHA
        assert lookup(DES_CBC3_SHA) is DES_CBC3_SHA

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            lookup("TLS13-CHACHA")
        with pytest.raises(KeyError):
            lookup(0xFFFF)

    @pytest.mark.parametrize("suite", ALL_SUITES, ids=lambda s: s.name)
    def test_key_material_length_formula(self, suite):
        if suite.export:
            # Export suites draw only the short secrets from the key block.
            expected = 2 * (suite.mac_key_len + suite.secret_key_len)
        else:
            expected = 2 * (suite.mac_key_len + suite.key_len
                            + suite.iv_len)
        assert suite.key_material_length() == expected

    def test_paper_suite_parameters(self):
        s = DES_CBC3_SHA
        assert s.cipher == "3des" and s.mac == "sha1"
        assert s.key_len == 24 and s.iv_len == 8 and s.block_size == 8
        assert s.mac_size == 20

    def test_new_cipher_key_validation(self):
        with pytest.raises(ValueError):
            DES_CBC3_SHA.new_cipher(bytes(16), bytes(8))
        with pytest.raises(ValueError):
            DES_CBC3_SHA.new_cipher(bytes(24), bytes(4))
