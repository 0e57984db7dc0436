"""The standalone crypto benchmark (paper setup 3.3).

"The crypto operations are the main components in the SSL protocol
processing.  To study these operations, we developed a crypto benchmark,
which essentially makes various function calls into the crypto library."

This module is that benchmark: it drives each instrumented primitive under
a fresh profiler and extracts the quantities the paper reports --

* per-algorithm CPI, path length (instructions/byte) and throughput
  (Table 11),
* the top-ten instruction mix (Table 12),
* key-setup share versus data size (Figure 3),
* the per-phase block anatomies of AES / DES / 3DES (Tables 5-6),
* the MD5 / SHA-1 init/update/final split (Table 10),
* the six-step RSA decryption breakdown and flat function profile
  (Tables 7-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..perf import CpuModel, PENTIUM4, Profiler, left_sum
from . import aes as aes_mod
from . import des as des_mod
from .aes import AES
from .des import DES, TripleDES
from .md5 import MD5
from .modes import CBC
from .rand import PseudoRandom
from .rc4 import RC4
from .rsa import RsaPrivateKey, generate_key
from .sha1 import SHA1
from .sha256 import SHA256

#: The seven kernels of Table 11, in the paper's column order.
ALGORITHMS = ("aes", "des", "3des", "rc4", "rsa", "md5", "sha1")


# ---------------------------------------------------------------------------
# Generic driver
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    """One profiled run of a primitive over ``nbytes`` of data."""

    name: str
    nbytes: int
    cycles: float
    instructions: float
    key_setup_cycles: float = 0.0
    profiler: Optional[Profiler] = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def path_length(self) -> float:
        """Instructions per byte (Table 11)."""
        return self.instructions / self.nbytes if self.nbytes else 0.0

    def throughput_mbps(self, cpu: CpuModel = PENTIUM4) -> float:
        return cpu.throughput_mbps(self.nbytes, self.cycles)

    @property
    def key_setup_share(self) -> float:
        """Fraction of total time spent in key setup (Figure 3)."""
        return self.key_setup_cycles / self.cycles if self.cycles else 0.0


_CIPHER_SPECS = {
    "aes": (AES, 16, 16), "aes256": (AES, 32, 16),
    "des": (DES, 8, 8), "3des": (TripleDES, 24, 8),
    "rc4": (RC4, 16, 0),
}


def _fresh_cipher(name: str, seed: bytes = b"bench-key"):
    """Instantiate a cipher from pre-generated key material.

    Key/IV bytes are drawn *before* any profiling so that the PRNG's hash
    work never pollutes a cipher measurement; only the cipher's own key
    setup is charged to the caller's profiler.
    """
    try:
        cls, key_len, iv_len = _CIPHER_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown cipher {name!r}") from None
    rng = PseudoRandom(seed)
    key = rng.bytes(key_len)
    iv = rng.bytes(iv_len)
    if cls is RC4:
        return lambda: RC4(key)
    return lambda: CBC(cls(key), iv)


_KEY_SETUP_FUNCS = ("AES_set_encrypt_key", "DES_set_key", "RC4_set_key")


def measure_cipher(name: str, nbytes: int = 1024,
                   cpu: CpuModel = PENTIUM4) -> Measurement:
    """Key setup + encryption of ``nbytes`` (one call, like openssl speed)."""
    if nbytes <= 0 or nbytes % 16:
        raise ValueError("data size must be a positive multiple of 16")
    data = bytes(range(256)) * (nbytes // 256 + 1)
    data = data[:nbytes]
    make_cipher = _fresh_cipher(name)
    p = Profiler(cpu)
    with perf.activate(p):
        cipher = make_cipher()
        if isinstance(cipher, RC4):
            out = cipher.process(data)
        else:
            out = cipher.encrypt(data)
    assert len(out) == nbytes
    key_setup = left_sum(p.functions[f].cycles for f in _KEY_SETUP_FUNCS
                         if f in p.functions)
    return Measurement(name=name, nbytes=nbytes, cycles=p.total_cycles(),
                       instructions=p.total_instructions(),
                       key_setup_cycles=key_setup, profiler=p)


def measure_hash(name: str, nbytes: int = 1024,
                 cpu: CpuModel = PENTIUM4) -> Measurement:
    """One digest over ``nbytes`` (init + update + final)."""
    factory = {"md5": MD5, "sha1": SHA1, "sha256": SHA256}[name]
    data = bytes(nbytes)
    p = Profiler(cpu)
    with perf.activate(p):
        h = factory()
        h.update(data)
        h.digest()
    return Measurement(name=name, nbytes=nbytes, cycles=p.total_cycles(),
                       instructions=p.total_instructions(), profiler=p)


def hash_phase_breakdown(name: str, nbytes: int = 1024,
                         ) -> List[Tuple[str, float]]:
    """Table 10: (phase, cycles) for Init / Update / Final."""
    m = measure_hash(name, nbytes)
    prefix = {"md5": "MD5", "sha1": "SHA1", "sha256": "SHA256"}[name]
    rows = []
    for phase in ("Init", "Update", "Final"):
        fn = f"{prefix}_{phase}"
        cycles = m.profiler.functions[fn].cycles if fn in \
            m.profiler.functions else 0.0
        rows.append((phase, cycles))
    return rows


def measure_rsa(bits: int = 1024, use_crt: bool = True,
                key: Optional[RsaPrivateKey] = None,
                warm: bool = True,
                mont_reduction: str = "interleaved",
                cpu: CpuModel = PENTIUM4) -> Measurement:
    """One RSA private decryption of a PKCS#1 block (Tables 7, 8).

    ``warm`` performs one unprofiled decryption first so that one-time
    costs (Montgomery contexts, blinding setup) do not distort the
    breakdown, mirroring the paper's steady-state measurement.
    """
    if key is None:
        key = generate_key(bits, rng=PseudoRandom(b"bench-rsa-%d"
                                                  % bits))
    key.use_crt = use_crt
    key.mont_reduction = mont_reduction
    rng = PseudoRandom(b"bench-rsa-msg")
    ciphertext = key.public().encrypt(b"\x03\x00" + rng.bytes(46), rng)
    if warm:
        key.decrypt(ciphertext)
    p = Profiler(cpu)
    with perf.activate(p):
        key.decrypt(ciphertext)
    return Measurement(name="rsa", nbytes=key.size,
                       cycles=p.region_cycles("rsa_private_decryption"),
                       instructions=p.total_instructions(), profiler=p)


RSA_STEPS = ("init", "data_to_bn", "blinding", "computation", "bn_to_data",
             "block_parsing")


def rsa_step_breakdown(measurement: Measurement) -> List[Tuple[str, float]]:
    """Table 7 rows from a :func:`measure_rsa` result."""
    p = measurement.profiler
    return [(step, p.region_cycles(f"rsa_private_decryption/{step}"))
            for step in RSA_STEPS]


# ---------------------------------------------------------------------------
# Block-operation anatomies (Tables 5, 6) -- from the phase constants,
# cross-checked against executed blocks by the test suite.
# ---------------------------------------------------------------------------

def aes_block_breakdown(key_bits: int = 128,
                        cpu: CpuModel = PENTIUM4) -> List[Tuple[str, float]]:
    """Table 5: (phase, cycles) for one AES block operation."""
    rounds = {128: 10, 192: 12, 256: 14}[key_bits]
    return [
        ("map/initial add round key",
         cpu.cycles(aes_mod.AES_INIT, aes_mod.AES_STALL)),
        ("main rounds",
         cpu.cycles(aes_mod.AES_ROUND, aes_mod.AES_STALL) * (rounds - 1)),
        ("last round/map to bytes",
         cpu.cycles(aes_mod.AES_FINAL, aes_mod.AES_STALL)),
    ]


def des_block_breakdown(variant: str = "des",
                        cpu: CpuModel = PENTIUM4) -> List[Tuple[str, float]]:
    """Table 6: (phase, cycles) for one DES or 3DES block operation."""
    nrounds = {"des": 16, "3des": 48}[variant]
    return [
        ("IP", cpu.cycles(des_mod.DES_IP, des_mod.DES_STALL)),
        ("substitution",
         cpu.cycles(des_mod.DES_ROUND, des_mod.DES_STALL) * nrounds),
        ("FP", cpu.cycles(des_mod.DES_FP, des_mod.DES_STALL)),
    ]


# ---------------------------------------------------------------------------
# Tables 11 and 12
# ---------------------------------------------------------------------------

@dataclass
class Characteristics:
    """One column of Table 11."""

    name: str
    cpi: float
    path_length: float
    throughput_mbps: float


def characteristics(nbytes: int = 8192, rsa_bits: int = 1024,
                    cpu: CpuModel = PENTIUM4) -> Dict[str, Characteristics]:
    """Table 11 for all seven kernels.

    Bulk kernels are measured over ``nbytes``; RSA over one private
    operation (its throughput is bytes-of-modulus per operation, which is
    how the paper's 0.036 MB/s arises).
    """
    out: Dict[str, Characteristics] = {}
    for name in ("aes", "des", "3des", "rc4"):
        m = measure_cipher(name, nbytes, cpu=cpu)
        out[name] = Characteristics(name, m.cpi, m.path_length,
                                    m.throughput_mbps(cpu))
    m = measure_rsa(rsa_bits, cpu=cpu)
    out["rsa"] = Characteristics("rsa", m.cpi, m.instructions / m.nbytes,
                                 m.throughput_mbps(cpu))
    for name in ("md5", "sha1"):
        m = measure_hash(name, nbytes, cpu=cpu)
        out[name] = Characteristics(name, m.cpi, m.path_length,
                                    m.throughput_mbps(cpu))
    return out


def instruction_mix(name: str, nbytes: int = 4096,
                    top: int = 10) -> List[Tuple[str, float]]:
    """Table 12: the top instructions of one kernel, as share of total."""
    if name in ("aes", "des", "3des", "rc4"):
        m = measure_cipher(name, nbytes)
    elif name in ("md5", "sha1", "sha256"):
        m = measure_hash(name, nbytes)
    elif name == "rsa":
        m = measure_rsa(512)
    else:
        raise KeyError(f"unknown kernel {name!r}")
    return m.profiler.global_mix.snapshot().top(top)


def key_setup_shares(sizes: Tuple[int, ...] = (1024, 2048, 4096, 8192,
                                               16384, 32768),
                     ) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 3: key-setup share of encryption time versus data size."""
    out: Dict[str, List[Tuple[int, float]]] = {}
    for name in ("aes", "des", "3des", "rc4"):
        out[name] = [(size, measure_cipher(name, size).key_setup_share)
                     for size in sizes]
    return out
