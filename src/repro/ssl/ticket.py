"""Stateless session tickets (RFC 5077 shape) for the SSL stack.

The paper's Section 4.1 shows resumption is the single biggest handshake
lever -- it skips the RSA private operation entirely -- but the id-based
:class:`~repro.ssl.session.SessionCache` pays for that with O(clients)
server memory, which is exactly the scaling bottleneck the farm's
shared/partitioned cache topologies dance around.  Encrypted session
tickets move the state to the *client*: the server seals the session's
resumption state (cipher suite, master secret, creation time, lifetime)
under a symmetric ticket key and hands the opaque blob back in a
NewSessionTicket message; a returning client presents the blob and the
server recovers everything it needs with two symmetric operations and no
lookup -- O(0) server memory per client.

Ticket wire format (all lengths fixed except the ciphertext)::

    key_name(16) || iv(16) || ciphertext(16n) || hmac_sha1(20)

mirroring the RFC 5077 recommended construction (AES-CBC + HMAC over
name||iv||ciphertext).  The sealed state is::

    suite_id(2) || master_secret(48) || created_at(8, f64) ||
    lifetime(8, f64) || pkcs7 padding

:class:`TicketKeyRing` provides deterministic virtual-clock key rotation:
keys are *derived*, not stored -- ``(seed, epoch)`` hashes to the AES and
MAC keys, where ``epoch = floor(now / rotation_interval)`` on the
caller's virtual clock.  That makes the ring pure configuration: every
farm worker derives identical keys, and rotation needs no mutable shared
state.  A configurable ``accept_window`` keeps the last N epochs' keys
decryptable (mint always uses the current epoch); a ticket sealed under an
acceptable-but-stale key is accepted *and renewed* -- the server re-mints
it under the current key, the RFC 5077 rollover flow.

Every byte of crypto here runs through the :mod:`repro.crypto`
primitives, so ticket seal/open costs land in the profiler exactly like
the rest of the handshake and the anatomy tables stay honest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from .. import perf
from ..crypto.aes import AES
from ..crypto.mac import hmac
from ..crypto.md5 import MD5
from ..crypto.modes import CBC
from ..crypto.rand import PseudoRandom
from ..crypto.sha1 import SHA1
from ..crypto.util import ct_equal
from ..perf import charge, mix

#: The SessionTicket ClientHello extension number (RFC 5077 section 3.2).
SESSION_TICKET_EXT = 35

KEY_NAME_LENGTH = 16
IV_LENGTH = 16
MAC_LENGTH = 20
_BLOCK = 16
#: suite_id(2) + master_secret(48) + created_at(8) + lifetime(8)
_STATE_LENGTH = 66
_MIN_TICKET = KEY_NAME_LENGTH + IV_LENGTH + _BLOCK + MAC_LENGTH

#: Modelled libssl bookkeeping per ticket seal/open beyond the crypto
#: itself: extension parsing, key-name matching, state (de)serialization
#: (the tlsext_ticket_key callback plumbing in OpenSSL terms).
TICKET_PROC = mix(movl=2_000, movb=400, cmpl=350, jnz=300, addl=150,
                  pushl=60, popl=60, call=40, ret=40)


@dataclass(slots=True)
class TicketState:
    """The resumption state recovered from a decrypted ticket."""

    cipher_suite_id: int
    master_secret: bytes
    created_at: float
    lifetime: float

    def expired_at(self, now: float) -> bool:
        return now - self.created_at > self.lifetime


class TicketKeyRing:
    """Derived, epoch-rotated ticket keys with a bounded accept window.

    ``rotation_interval`` is in the caller's virtual seconds (the server
    passes its profiler clock); ``accept_window`` is how many *previous*
    epochs' keys still open tickets (0 = only the current key).  The ring
    holds no mutable state -- keys are re-derived per call from
    ``(seed, epoch)`` -- so one ring can be shared by every worker of a
    farm and stays deterministic.
    """

    def __init__(self, seed: bytes = b"ticket-keys",
                 rotation_interval: float = 3600.0,
                 accept_window: int = 1):
        if rotation_interval <= 0:
            raise ValueError("rotation interval must be positive")
        if accept_window < 0:
            raise ValueError("accept window must be non-negative")
        self.seed = bytes(seed)
        self.rotation_interval = float(rotation_interval)
        self.accept_window = int(accept_window)
        # The public key-name label is configuration, not modeled work:
        # derive it under a discard sink so ring construction charges
        # nothing to whatever profiler happens to be active.
        with perf.activate(perf.Discard()):
            self._label = MD5(b"ticket-ring:" + self.seed).digest()[:8]

    # -- epochs ------------------------------------------------------------
    def epoch_of(self, now: float) -> int:
        """The key epoch in force at virtual time ``now``."""
        return max(0, int(now // self.rotation_interval))

    def key_name(self, epoch: int) -> bytes:
        """16-byte public key name: ring label + epoch counter."""
        return self._label + epoch.to_bytes(8, "big")

    def _derive_keys(self, epoch: int) -> Tuple[bytes, bytes]:
        """(aes_key, mac_key) for ``epoch`` -- real, charged hash work
        (the model of fetching/scheduling the rotated ticket key)."""
        material = self.seed + epoch.to_bytes(8, "big")
        aes_key = MD5(b"ticket-aes:" + material).digest()
        mac_key = SHA1(b"ticket-mac:" + material).digest()
        return aes_key, mac_key

    # -- seal --------------------------------------------------------------
    def mint(self, *, cipher_suite_id: int, master_secret: bytes,
             created_at: float, lifetime: float,
             rng: PseudoRandom, now: float) -> bytes:
        """Seal resumption state into an opaque ticket under the current
        epoch's key.  ``rng`` supplies the IV (charged as
        ``rand_pseudo_bytes``, like every other handshake random)."""
        if len(master_secret) != 48:
            raise ValueError("master secret must be 48 bytes")
        charge(TICKET_PROC, function="ssl3_session_ticket", module="libssl")
        epoch = self.epoch_of(now)
        name = self.key_name(epoch)
        aes_key, mac_key = self._derive_keys(epoch)
        state = (cipher_suite_id.to_bytes(2, "big") + master_secret
                 + struct.pack(">d", created_at)
                 + struct.pack(">d", lifetime))
        pad = _BLOCK - len(state) % _BLOCK
        state += bytes([pad]) * pad
        with perf.region("rand_pseudo_bytes"):
            iv = rng.bytes(IV_LENGTH)
        ciphertext = CBC(AES(aes_key), iv).encrypt(state)
        mac = hmac(SHA1, mac_key, name + iv + ciphertext)
        return name + iv + ciphertext + mac

    # -- open --------------------------------------------------------------
    def open(self, ticket: bytes,
             now: float) -> Tuple[Optional[TicketState], bool]:
        """Authenticate and decrypt a ticket at virtual time ``now``.

        Returns ``(state, renew)``.  ``state`` is ``None`` for *any*
        failure -- truncated blob, unknown or out-of-window key name, MAC
        mismatch, malformed plaintext, expired session -- and the caller
        falls back to a full handshake; tickets never produce a fatal
        alert.  ``renew`` is True when the ticket opened under a
        previous (still accepted) epoch's key and should be re-minted
        under the current one.
        """
        charge(TICKET_PROC, function="ssl3_session_ticket", module="libssl")
        if len(ticket) < _MIN_TICKET:
            return None, False
        name = ticket[:KEY_NAME_LENGTH]
        iv = ticket[KEY_NAME_LENGTH:KEY_NAME_LENGTH + IV_LENGTH]
        ciphertext = ticket[KEY_NAME_LENGTH + IV_LENGTH:-MAC_LENGTH]
        mac = ticket[-MAC_LENGTH:]
        if name[:8] != self._label:
            return None, False
        epoch = int.from_bytes(name[8:], "big")
        current = self.epoch_of(now)
        if epoch > current or current - epoch > self.accept_window:
            # Future-dated or rotated out of the accept window: the key
            # no longer exists server-side.
            return None, False
        if len(ciphertext) % _BLOCK:
            return None, False
        aes_key, mac_key = self._derive_keys(epoch)
        expected = hmac(SHA1, mac_key, name + iv + ciphertext)
        if not ct_equal(mac, expected):
            return None, False
        plaintext = CBC(AES(aes_key), iv).decrypt(ciphertext)
        pad = plaintext[-1]
        if not 1 <= pad <= _BLOCK or \
                plaintext[-pad:] != bytes([pad]) * pad:
            return None, False
        state = plaintext[:-pad]
        if len(state) != _STATE_LENGTH:
            return None, False
        ticket_state = TicketState(
            cipher_suite_id=int.from_bytes(state[:2], "big"),
            master_secret=state[2:50],
            created_at=struct.unpack(">d", state[50:58])[0],
            lifetime=struct.unpack(">d", state[58:66])[0])
        if ticket_state.lifetime <= 0 or ticket_state.expired_at(now):
            return None, False
        return ticket_state, epoch < current
