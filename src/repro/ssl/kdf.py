"""SSLv3 key derivation (master secret, key block, finished hashes).

These are the "series of hash functions (both MD5 and SHA-1 are used)" the
paper describes in handshake steps 5, 6 and 8 (Table 2's
``gen_master_secret``, ``gen_key_block`` and ``final_finish_mac`` /
``cert_verify_mac`` entries).  The constructions are the SSLv3 originals:

* master secret / key block::

      block_i = MD5(secret || SHA1(salt_i || secret || rand1 || rand2))

  with salts ``'A'``, ``'BB'``, ``'CCC'``, ... (client random first when
  deriving the master secret; server random first for the key block);

* finished hash (per digest)::

      inner = H(handshake_messages || sender || master || pad1)
      out   = H(master || pad2 || inner)

  with the 0x36/0x5c pads (48 bytes for MD5, 40 for SHA-1) and sender
  labels ``'CLNT'`` / ``'SRVR'`` -- the paper's "finish hash values with
  'CLNT'/'SRVR' padding".
"""

from __future__ import annotations

from typing import Tuple

from ..crypto.md5 import MD5
from ..crypto.sha1 import SHA1
from ..perf import charge, mix

#: EVP-layer overhead per derivation block or finished-hash computation:
#: digest-context allocation, method dispatch, parameter copies.  The
#: paper's gen_master_secret / gen_key_block / final_finish_mac entries
#: (Table 2) are several times the raw hashing cost of their tiny inputs;
#: this modelled dispatch cost accounts for the difference.
PRF_BLOCK_OVERHEAD = mix(movl=11_000, movb=2_000, addl=1_500, cmpl=1_900,
                         jnz=1_900, pushl=550, popl=550, call=340, ret=340)

#: Additional one-shot master-secret machinery: buffer allocation for the
#: pre-master, its zeroization path setup, EVP context churn (Table 2's
#: gen_master_secret measures 148k cycles for three derivation blocks).
MASTER_SECRET_OVERHEAD = mix(movl=115_000, movb=25_000, addl=12_000,
                             cmpl=18_000, jnz=18_000, xorl=8_000,
                             pushl=2_600, popl=2_600, call=1_600, ret=1_600)

#: Finalizing the finished/cert-verify digests (context duplication,
#: double finalization, constant-time compare staging): Table 2's
#: final_finish_mac / cert_verify_mac run ~60k cycles each.
FINISHED_OVERHEAD = mix(movl=32_000, movb=7_000, addl=4_000, cmpl=5_200,
                        jnz=5_200, xorl=2_400, pushl=800, popl=800,
                        call=500, ret=500)

MASTER_SECRET_LENGTH = 48
SENDER_CLIENT = b"CLNT"
SENDER_SERVER = b"SRVR"

_PAD1_MD5 = b"\x36" * 48
_PAD2_MD5 = b"\x5c" * 48
_PAD1_SHA = b"\x36" * 40
_PAD2_SHA = b"\x5c" * 40


def _derivation_block(secret: bytes, rand1: bytes, rand2: bytes,
                      index: int) -> bytes:
    """One 16-byte output block of the SSLv3 derivation."""
    charge(PRF_BLOCK_OVERHEAD, function="ssl3_PRF")
    salt = bytes([ord("A") + index]) * (index + 1)
    inner = SHA1()
    inner.update(salt)
    inner.update(secret)
    inner.update(rand1)
    inner.update(rand2)
    outer = MD5()
    outer.update(secret)
    outer.update(inner.digest())
    return outer.digest()


def derive(secret: bytes, rand1: bytes, rand2: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of SSLv3 derivation output."""
    if length < 0:
        raise ValueError("length must be non-negative")
    nblocks = (length + 15) // 16
    if nblocks > 26:
        raise ValueError("SSLv3 derivation limited to 26 blocks (A..Z salts)")
    out = b"".join(_derivation_block(secret, rand1, rand2, i)
                   for i in range(nblocks))
    return out[:length]


def master_secret(pre_master: bytes, client_random: bytes,
                  server_random: bytes) -> bytes:
    """48-byte master secret from the pre-master (step 5).

    RSA key transport uses a 48-byte pre-master; Diffie-Hellman suites feed
    the variable-length shared secret Z.
    """
    if not pre_master:
        raise ValueError("pre-master secret must be non-empty")
    charge(MASTER_SECRET_OVERHEAD, function="gen_master_secret")
    return derive(pre_master, client_random, server_random,
                  MASTER_SECRET_LENGTH)


def key_block(master: bytes, client_random: bytes, server_random: bytes,
              length: int) -> bytes:
    """Key material for both connection directions (step 6a).

    Note the reversed random order relative to the master-secret derivation
    (server random first), per the SSLv3 specification.
    """
    return derive(master, server_random, client_random, length)


def cert_verify_hashes(md5_ctx: MD5, sha1_ctx: SHA1,
                       master: bytes) -> Tuple[bytes, bytes]:
    """CertificateVerify digests: like the finished hashes but unlabelled.

    The server computes these in step 5 of Table 2 (``cert_verify_mac``)
    even when no client certificate was requested, because OpenSSL digests
    the cached handshake records at that point.
    """
    return finished_hashes(md5_ctx, sha1_ctx, master, b"")


def finished_hashes(md5_ctx: MD5, sha1_ctx: SHA1, master: bytes,
                    sender: bytes) -> Tuple[bytes, bytes]:
    charge(FINISHED_OVERHEAD, function="ssl3_final_finish_mac")
    charge(PRF_BLOCK_OVERHEAD, times=2, function="ssl3_final_finish_mac")
    return _finished_hashes(md5_ctx, sha1_ctx, master, sender)


def _finished_hashes(md5_ctx: MD5, sha1_ctx: SHA1, master: bytes,
                     sender: bytes) -> Tuple[bytes, bytes]:
    """The two finished-message hashes over the handshake transcript.

    ``md5_ctx`` / ``sha1_ctx`` are updated in place, not copied here: pass
    clones of the running handshake-hash contexts, positioned after all
    handshake messages so far.
    """
    md5_ctx.update(sender)
    md5_ctx.update(master)
    md5_ctx.update(_PAD1_MD5)
    md5_inner = md5_ctx.digest()
    md5_outer = MD5()
    md5_outer.update(master)
    md5_outer.update(_PAD2_MD5)
    md5_outer.update(md5_inner)

    sha1_ctx.update(sender)
    sha1_ctx.update(master)
    sha1_ctx.update(_PAD1_SHA)
    sha_inner = sha1_ctx.digest()
    sha_outer = SHA1()
    sha_outer.update(master)
    sha_outer.update(_PAD2_SHA)
    sha_outer.update(sha_inner)

    return md5_outer.digest(), sha_outer.digest()


# ---------------------------------------------------------------------------
# TLS 1.0 key derivation (RFC 2246 section 5)
# ---------------------------------------------------------------------------
# The paper's OpenSSL "supports SSL v2/v3 and TLS v1 protocols"; TLS 1.0
# replaces the SSLv3 constructions above with an HMAC-based PRF:
#
#     PRF(secret, label, seed) = P_MD5(S1, label+seed)
#                                XOR P_SHA1(S2, label+seed)
#
# where S1/S2 are the two halves of the secret and P_hash is the HMAC
# expansion chain.  Finished messages shrink to 12 bytes of verify_data.

from ..crypto.mac import hmac as _hmac  # noqa: E402  (section grouping)

TLS_VERIFY_DATA_LENGTH = 12
LABEL_MASTER = b"master secret"
LABEL_KEY_EXPANSION = b"key expansion"
LABEL_CLIENT_FINISHED = b"client finished"
LABEL_SERVER_FINISHED = b"server finished"


def _p_hash(hash_factory, secret: bytes, seed: bytes, length: int) -> bytes:
    """The P_hash expansion: A(i) chaining with HMAC."""
    out = bytearray()
    a = seed
    while len(out) < length:
        a = _hmac(hash_factory, secret, a)
        out += _hmac(hash_factory, secret, a + seed)
    return bytes(out[:length])


def tls_prf(secret: bytes, label: bytes, seed: bytes, length: int) -> bytes:
    """The TLS 1.0 pseudo-random function (MD5/SHA-1 halves XORed)."""
    if length < 0:
        raise ValueError("length must be non-negative")
    half = (len(secret) + 1) // 2
    s1, s2 = secret[:half], secret[len(secret) - half:]
    md5_part = _p_hash(MD5, s1, label + seed, length)
    sha_part = _p_hash(SHA1, s2, label + seed, length)
    charge(PRF_BLOCK_OVERHEAD, times=max(1, length // 16),
           function="tls1_PRF")
    return bytes(a ^ b for a, b in zip(md5_part, sha_part))


def tls_master_secret(pre_master: bytes, client_random: bytes,
                      server_random: bytes) -> bytes:
    """48-byte TLS 1.0 master secret (pre-master is 48 bytes for RSA key
    transport, variable for Diffie-Hellman)."""
    if not pre_master:
        raise ValueError("pre-master secret must be non-empty")
    charge(MASTER_SECRET_OVERHEAD, function="gen_master_secret")
    return tls_prf(pre_master, LABEL_MASTER, client_random + server_random,
                   MASTER_SECRET_LENGTH)


def tls_key_block(master: bytes, client_random: bytes,
                  server_random: bytes, length: int) -> bytes:
    """TLS 1.0 key material (note the server-random-first seed order)."""
    return tls_prf(master, LABEL_KEY_EXPANSION,
                   server_random + client_random, length)


def tls_finished(md5_ctx: MD5, sha1_ctx: SHA1, master: bytes,
                 is_client: bool) -> bytes:
    """12-byte TLS 1.0 verify_data over the handshake transcript."""
    charge(PRF_BLOCK_OVERHEAD, function="tls1_final_finish_mac")
    label = LABEL_CLIENT_FINISHED if is_client else LABEL_SERVER_FINISHED
    digests = md5_ctx.digest() + sha1_ctx.digest()
    return tls_prf(master, label, digests, TLS_VERIFY_DATA_LENGTH)
