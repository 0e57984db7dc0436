"""Classification of charged functions into the paper's crypto categories.

Figure 2 and Table 3 split libcrypto time into **public-key encryption**,
**private-key encryption**, **hashing** and **other** (random-number
generation, X509 functions, etc.).  This module maps our charged function
names onto those categories and aggregates a profiler's flat profile
accordingly.
"""

from __future__ import annotations

from typing import Dict

from .isa import left_sum
from .profiler import LIBCRYPTO, Profiler

PUBLIC = "public"
PRIVATE = "private"
HASH = "hash"
OTHER = "other"

#: Exact-name table first; prefix rules as fallback.
_EXACT: Dict[str, str] = {
    "mac": HASH,
    "HMAC": HASH,
    "ssl3_PRF": HASH,
    "tls1_PRF": HASH,
    "tls1_final_finish_mac": HASH,
    "gen_master_secret": HASH,
    "ssl3_final_finish_mac": HASH,
    "block_parsing": PUBLIC,       # PKCS#1 parsing is part of the RSA op
    "rand_pseudo_bytes": OTHER,
    "X509_functions": OTHER,
    "OPENSSL_cleanse": OTHER,
    "ERR_load_BN_strings": OTHER,
    "BN_generate_prime": OTHER,
}

_PREFIXES = (
    ("bn_", PUBLIC), ("BN_", PUBLIC),
    ("AES_", PRIVATE), ("DES_", PRIVATE), ("RC4", PRIVATE),
    ("cbc_", PRIVATE),
    ("MD5", HASH), ("SHA1", HASH),
)


def classify_function(name: str, module: str) -> str | None:
    """Category of a charged function, or ``None`` if not libcrypto work."""
    if module != LIBCRYPTO:
        return None
    if name in _EXACT:
        return _EXACT[name]
    for prefix, category in _PREFIXES:
        if name.startswith(prefix):
            return category
    return OTHER


def crypto_breakdown(profiler: Profiler) -> Dict[str, float]:
    """Cycles per crypto category (public/private/hash/other) -- Figure 2."""
    out = {PUBLIC: 0.0, PRIVATE: 0.0, HASH: 0.0, OTHER: 0.0}
    for fs in profiler.functions.values():
        category = classify_function(fs.name, fs.module)
        if category is not None:
            out[category] += fs.cycles
    return out


def crypto_shares(profiler: Profiler) -> Dict[str, float]:
    """Category shares of total libcrypto time (sums to 1)."""
    breakdown = crypto_breakdown(profiler)
    total = left_sum(breakdown.values()) or 1.0
    return {k: v / total for k, v in breakdown.items()}
