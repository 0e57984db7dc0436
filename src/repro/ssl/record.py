"""SSLv3 record layer: fragmentation, MAC, padding, encryption.

Every byte on an SSL connection travels in a record::

    type(1) || version(2 = 0x0300) || length(2) || fragment

After the ChangeCipherSpec, the fragment is ``data || MAC || padding`` --
MAC-then-encrypt with the SSLv3 keyed MAC of :mod:`repro.crypto.mac`, CBC
padding whose final byte gives the padding length, and a per-direction
64-bit sequence number.  This layer is what the bulk-data-transfer phase of
the paper exercises: its cost is the private-key encryption plus the MAC
hashing whose shares grow with file size in Figure 2.

The paper notes (Section 6.2) that the server encrypts "a fragment that
consists of the data, the MAC value and some padding" -- precisely
:meth:`ConnectionState.seal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .. import perf
from ..crypto.mac import Ssl3MacContext, TlsMacContext
from ..crypto.util import ct_equal
from ..crypto.modes import CBC
from ..crypto.rc4 import RC4
from ..perf import charge, mix
from .ciphersuites import CipherSuite
from .errors import BadRecordMac, DecodeError, SequenceOverflow

SSL3_VERSION = 0x0300
TLS1_VERSION = 0x0301
SUPPORTED_VERSIONS = (SSL3_VERSION, TLS1_VERSION)
MAX_FRAGMENT = 16384

HEADER_LEN = 5


class ContentType:
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    #: Pseudo-type for an SSLv2-format compatibility CLIENT-HELLO (not a
    #: real v3 content type; never appears on the wire in v3 records).
    V2_CLIENT_HELLO = -2

    _VALID = frozenset((20, 21, 22, 23))


#: Record assembly/parsing bookkeeping per record (header fields, length
#: checks, buffer copies) -- ``libssl`` work in the Table 1 accounting.
RECORD_CALL = mix(movl=40, movb=10, addl=8, cmpl=10, jnz=10, shll=2,
                  shrl=2, pushl=4, popl=4, call=2, ret=2)


@dataclass(slots=True)
class KeyMaterial:
    """Per-direction secrets cut from the key block (step 6a)."""

    mac_secret: bytes
    key: bytes
    iv: bytes


class ConnectionState:
    """One direction of an active (post-CCS) connection.

    ``version`` selects the record MAC and padding style: SSLv3 uses the
    nested keyed hash and zero padding; TLS 1.0 uses HMAC (with the record
    version in the MAC input) and padding bytes that all carry the padding
    length.
    """

    #: Sequence numbers are 64-bit on the wire; reaching the cap is fatal.
    SEQ_NUM_CAP = 1 << 64

    def __init__(self, suite: CipherSuite, material: KeyMaterial,
                 version: int = SSL3_VERSION,
                 seq_cap: int = SEQ_NUM_CAP,
                 offload=None):
        """``seq_cap`` lowers the 2^64 sequence-number wrap point so tests
        can exercise the overflow path without sealing 2^64 records.

        ``offload`` (an :class:`repro.engines.offload.OffloadPool`) routes
        bulk cipher+MAC work through modeled crypto engines when one is
        capable and unsaturated; the real crypto still runs -- under a
        scratch profiler -- so the wire bytes are identical either way."""
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported protocol version 0x{version:04x}")
        if not 1 <= seq_cap <= self.SEQ_NUM_CAP:
            raise ValueError("seq_cap must be in [1, 2^64]")
        self.suite = suite
        self.version = version
        self.cipher: Optional[Union[CBC, RC4]] = suite.new_cipher(
            material.key, material.iv)
        self.mac_secret = material.mac_secret
        self.hash_factory = suite.hash_factory()
        self.seq_num = 0
        self.seq_cap = seq_cap
        #: The direction's record MAC (SSLv3 keyed hash or TLS 1.0 HMAC):
        #: the plain per-record function under this hash and secret.
        mac_cls = Ssl3MacContext if version == SSL3_VERSION else TlsMacContext
        self._mac_ctx = mac_cls(self.hash_factory, self.mac_secret)
        self.offload = offload

    def _mac(self, content_type: int, fragment: bytes) -> bytes:
        if self.version == SSL3_VERSION:
            return self._mac_ctx.mac(self.seq_num, content_type, fragment)
        return self._mac_ctx.mac(self.seq_num, content_type, self.version,
                                 fragment)

    # -- outgoing ---------------------------------------------------------
    def seal(self, content_type: int, fragment: bytes) -> bytes:
        """MAC, pad, encrypt one fragment; returns the ciphertext body."""
        if len(fragment) > MAX_FRAGMENT:
            raise ValueError("fragment exceeds SSLv3 maximum")
        if self.seq_num >= self.seq_cap:
            raise SequenceOverflow(
                "outgoing record sequence number exhausted")
        pool = self.offload
        if pool is not None and self.cipher is not None:
            suite = self.suite
            if suite.is_block:
                bs = self.cipher.block_size
                pad_len = bs - (len(fragment) + suite.mac_size + 1) % bs
                if pad_len == bs:
                    pad_len = 0
                tail = suite.mac_size + 1 + pad_len
            else:
                tail = suite.mac_size
            if pool.submit_record("seal", suite.cipher, suite.mac,
                                  len(fragment), tail):
                # Engine path: the pool charged dispatch + engine latency;
                # run the genuine crypto under a scratch profiler so the
                # ciphertext (and seq/MAC state) is bit-identical to the
                # software path without double-charging CPU cycles.
                with perf.activate(perf.Profiler()):
                    return self._seal_software(content_type, fragment)
        return self._seal_software(content_type, fragment)

    def _seal_software(self, content_type: int, fragment: bytes) -> bytes:
        with perf.region("mac"):
            mac = self._mac(content_type, fragment)
        self.seq_num += 1
        body = fragment + mac
        cipher = self.cipher
        if cipher is None:
            return body
        with perf.region("pri_encryption"):
            if isinstance(cipher, RC4):
                return cipher.process(body)
            bs = cipher.block_size
            pad_len = bs - (len(body) + 1) % bs
            if pad_len == bs:
                pad_len = 0
            if self.version == SSL3_VERSION:
                body += bytes(pad_len) + bytes([pad_len])
            else:  # TLS: every padding byte carries the padding length
                body += bytes([pad_len]) * (pad_len + 1)
            return cipher.encrypt(body)

    # -- incoming ------------------------------------------------------------
    def open(self, content_type: int, body: bytes) -> bytes:
        """Decrypt, strip padding, verify MAC; returns the plaintext.

        All post-decryption failures (bad padding, short record, MAC
        mismatch) are deliberately uniform: the MAC is computed over a
        best-effort fragment even when the padding is malformed, and every
        path raises the same :class:`BadRecordMac`.  Failing fast on bad
        padding -- before the MAC -- would hand a MAC-then-encrypt padding
        oracle (Vaudenay) to an attacker timing the two error paths.  The
        sequence number likewise advances exactly once per record, success
        or failure, so a rejected record cannot desynchronize the state.

        Reaching the 64-bit sequence-number cap is the one pre-crypto
        failure: the record cannot be authenticated without reusing a MAC
        sequence number, so :class:`SequenceOverflow` is raised before any
        processing (and before the counter advances -- the state is dead).
        """
        if self.seq_num >= self.seq_cap:
            raise SequenceOverflow(
                "incoming record sequence number exhausted")
        try:
            return self._open_checked(content_type, body)
        finally:
            self.seq_num += 1

    def _open_checked(self, content_type: int, body: bytes) -> bytes:
        pool = self.offload
        if pool is not None and self.cipher is not None:
            # Plaintext length is unknown pre-decrypt; the engine streams
            # the whole body through the cipher while the hash pipeline
            # consumes everything but the trailing MAC.
            data_est = max(0, len(body) - self.suite.mac_size)
            if pool.submit_record("open", self.suite.cipher, self.suite.mac,
                                  data_est, len(body) - data_est):
                # BadRecordMac still propagates from the scratch-profiled
                # run -- engine or not, failures stay uniform (the engine's
                # service time depends only on the record length).
                with perf.activate(perf.Profiler()):
                    return self._open_software(content_type, body)
        return self._open_software(content_type, body)

    def _open_software(self, content_type: int, body: bytes) -> bytes:
        cipher = self.cipher
        padding_ok = True
        if cipher is None:
            plain = body
        else:
            with perf.region("pri_decryption"):
                if isinstance(cipher, RC4):
                    plain = cipher.process(body)
                else:
                    bs = cipher.block_size
                    if not body or len(body) % bs:
                        # Structural: visible from the wire length alone,
                        # so rejecting before any crypto reveals nothing.
                        raise BadRecordMac(
                            "ciphertext not a whole number of blocks")
                    plain = cipher.decrypt(body)
                    pad_len = plain[-1]
                    if pad_len + 1 > len(plain) or (
                            self.version == SSL3_VERSION and pad_len >= bs):
                        padding_ok = False
                        pad_len = 0
                    elif self.version != SSL3_VERSION and any(
                            b != pad_len for b in plain[-(pad_len + 1):]):
                        # TLS: all padding bytes must equal pad_len.
                        padding_ok = False
                        pad_len = 0
                    plain = plain[:-(pad_len + 1)]
        mac_size = self.suite.mac_size
        if len(plain) < mac_size:
            padding_ok = False
            fragment, mac = plain, b""
        else:
            fragment, mac = plain[:-mac_size], plain[-mac_size:]
        with perf.region("mac"):
            expected = self._mac(content_type, fragment)
        if not ct_equal(mac, expected) or not padding_ok:
            raise BadRecordMac()
        return fragment


class RecordLayer:
    """Full-duplex record processing with pluggable pending states.

    Both directions start in the NULL state (no cipher, no MAC); the
    ChangeCipherSpec handshake messages switch each direction to the states
    prepared from the key block.
    """

    def __init__(self) -> None:
        self._read_state: Optional[ConnectionState] = None
        self._write_state: Optional[ConnectionState] = None
        self._inbuf = bytearray()
        self._saw_v3_record = False
        #: Version stamped on outgoing record headers; updated when the
        #: handshake negotiates TLS 1.0.
        self.version = SSL3_VERSION

    # -- state transitions ----------------------------------------------------
    def set_write_state(self, state: ConnectionState) -> None:
        self._write_state = state

    def set_read_state(self, state: ConnectionState) -> None:
        self._read_state = state

    @property
    def write_active(self) -> bool:
        return self._write_state is not None

    @property
    def read_active(self) -> bool:
        return self._read_state is not None

    # -- sending ------------------------------------------------------------
    def emit(self, content_type: int, payload: bytes) -> bytes:
        """Wrap ``payload`` into one or more records; returns wire bytes."""
        if content_type not in ContentType._VALID:
            raise ValueError(f"bad content type {content_type}")
        out = bytearray()
        offset = 0
        while True:
            fragment = payload[offset:offset + MAX_FRAGMENT]
            charge(RECORD_CALL, function="ssl3_write_bytes", module="libssl")
            if self._write_state is not None:
                body = self._write_state.seal(content_type, fragment)
            else:
                body = fragment
            out += bytes([content_type])
            out += self.version.to_bytes(2, "big")
            out += len(body).to_bytes(2, "big")
            out += body
            offset += len(fragment)
            if offset >= len(payload):
                break
        return bytes(out)

    # -- receiving ------------------------------------------------------------
    def feed_raw(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Buffer wire bytes; return completed ``(type, raw_body)`` records.

        Bodies are *not* decrypted here: the connection opens each record
        inside the profiler region of the handshake step it belongs to, so
        that e.g. the client-finished decryption lands in ``get_finished``
        as in Table 2.
        """
        self._inbuf += data
        records: List[Tuple[int, bytes]] = []
        # SSLv2-compatibility hello: an MSB-set 2-byte header, only legal
        # as the very first record on a connection.
        if (not self._saw_v3_record and len(self._inbuf) >= 2
                and self._inbuf[0] & 0x80):
            length = int.from_bytes(self._inbuf[:2], "big") & 0x7FFF
            if length > MAX_FRAGMENT:
                raise DecodeError("v2 record overflow")
            if len(self._inbuf) < 2 + length:
                return records  # incomplete v2 record; wait for more bytes
            body = bytes(self._inbuf[2:2 + length])
            del self._inbuf[:2 + length]
            self._saw_v3_record = True
            records.append((ContentType.V2_CLIENT_HELLO, body))
        while len(self._inbuf) >= HEADER_LEN:
            content_type = self._inbuf[0]
            version = int.from_bytes(self._inbuf[1:3], "big")
            length = int.from_bytes(self._inbuf[3:5], "big")
            if content_type not in ContentType._VALID:
                raise DecodeError(f"bad record type {content_type}")
            if version not in SUPPORTED_VERSIONS:
                raise DecodeError(f"bad record version 0x{version:04x}")
            if length > MAX_FRAGMENT + 2048:
                raise DecodeError("record overflow")
            if len(self._inbuf) < HEADER_LEN + length:
                break
            body = bytes(self._inbuf[HEADER_LEN:HEADER_LEN + length])
            del self._inbuf[:HEADER_LEN + length]
            self._saw_v3_record = True
            records.append((content_type, body))
        return records

    def open_record(self, content_type: int, body: bytes) -> bytes:
        """Decrypt/verify one raw record body from :meth:`feed_raw`."""
        charge(RECORD_CALL, function="ssl3_read_bytes", module="libssl")
        if content_type == ContentType.V2_CLIENT_HELLO:
            return body  # always plaintext, pre-encryption by definition
        if self._read_state is not None:
            return self._read_state.open(content_type, body)
        return body

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Convenience: parse and open in one step (tests, simple callers)."""
        return [(t, self.open_record(t, b)) for t, b in self.feed_raw(data)]
