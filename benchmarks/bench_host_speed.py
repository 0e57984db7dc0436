"""Host-execution speed: fast path vs faithful word/byte-loop backend.

Unlike the other ``bench_*`` modules, this one measures *wall-clock host
time*, not modeled cycles: it quantifies what the native-int bignum kernels
and flattened symmetric/hash cores (see DESIGN.md, "Two-level execution")
buy when actually running the simulator.  Both backends charge bit-identical
modeled cycles -- ``tests/test_fastpath_equivalence.py`` holds that
invariant -- so the only difference worth reporting here is seconds.

Run directly (or via ``make bench-host``)::

    PYTHONPATH=src python benchmarks/bench_host_speed.py

Writes ``BENCH_host_speed.json`` at the repository root:

* ``handshake``: wall-clock per full DES-CBC3-SHA handshake
  (``run_session`` with no application data, 1024-bit RSA identity created
  once outside the timed region), fast vs ``REPRO_FASTPATH=0``;
* ``bulk_*``: application-payload throughput (MB/s) for an echo of a 64 KiB
  payload through the established session, per cipher suite;
* every entry carries the fast/faithful ``speedup`` ratio;
* ``commit`` (``git describe --always --dirty``, so a run from an
  uncommitted tree says so) and ``cpus`` sit beside ``python`` and
  ``machine``, the facts perfbench's provenance line records.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
from typing import Optional

from repro import runtime
from repro.crypto import rsa
from repro.perf.baseline import write_json
from repro.ssl.ciphersuites import DES_CBC3_SHA, RC4_MD5
from repro.ssl.loopback import make_server_identity, run_session

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_host_speed.json"

BULK_BYTES = 64 * 1024


def _git_commit() -> Optional[str]:
    """The checkout's commit, ``-dirty`` when the tree differs from it;
    None outside a git checkout."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _time_session(data: bytes, suite, key, cert, reps: int) -> float:
    """Best-of-``reps`` wall-clock seconds for one ``run_session`` call."""
    best = float("inf")
    for _ in range(reps):
        rsa.reset_error_tables()  # identical one-time charges every run
        t0 = time.perf_counter()
        run_session(data, suite=suite, key=key, cert=cert)
        best = min(best, time.perf_counter() - t0)
    return best


def _both_backends(data: bytes, suite, key, cert, fast_reps: int,
                   faithful_reps: int) -> dict:
    with runtime.fastpath(True):
        fast = _time_session(data, suite, key, cert, fast_reps)
    with runtime.fastpath(False):
        faithful = _time_session(data, suite, key, cert, faithful_reps)
    return {"fast_s": fast, "faithful_s": faithful,
            "speedup": faithful / fast}


def main() -> dict:
    # The 1024-bit identity is deterministic and expensive; build it once,
    # outside every timed region.
    key, cert = make_server_identity()

    results: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "cpus": os.cpu_count(),
        "payload_bytes": BULK_BYTES,
    }

    # Full handshake, no application data: the paper's dominant server cost
    # and the acceptance workload for the fast path.
    hs = _both_backends(b"", DES_CBC3_SHA, key, cert,
                        fast_reps=5, faithful_reps=3)
    results["handshake"] = {"suite": DES_CBC3_SHA.name, **hs}

    # Bulk echo: subtract the handshake to isolate the record-layer time,
    # then report application-payload throughput.
    payload = b"x" * BULK_BYTES
    for suite, label in ((DES_CBC3_SHA, "bulk_3des_sha"),
                         (RC4_MD5, "bulk_rc4_md5")):
        base = _both_backends(b"", suite, key, cert,
                              fast_reps=3, faithful_reps=2)
        full = _both_backends(payload, suite, key, cert,
                              fast_reps=3, faithful_reps=2)
        fast_bulk = max(full["fast_s"] - base["fast_s"], 1e-9)
        faithful_bulk = max(full["faithful_s"] - base["faithful_s"], 1e-9)
        mb = BULK_BYTES / 1e6
        results[label] = {
            "suite": suite.name,
            "fast_s": fast_bulk,
            "faithful_s": faithful_bulk,
            "fast_mb_per_s": mb / fast_bulk,
            "faithful_mb_per_s": mb / faithful_bulk,
            "speedup": faithful_bulk / fast_bulk,
        }

    # Canonical writer (sorted keys, stable float text, trailing newline):
    # regenerating the artifact yields a clean diff against the committed
    # copy even though the wall-clock *values* vary run to run.
    write_json(OUT_PATH, results)
    return results


if __name__ == "__main__":
    res = main()
    print(json.dumps(res, indent=2))
    hs_speedup = res["handshake"]["speedup"]
    print(f"\nhandshake ({res['handshake']['suite']}): "
          f"{res['handshake']['faithful_s'] * 1e3:.1f} ms -> "
          f"{res['handshake']['fast_s'] * 1e3:.1f} ms "
          f"({hs_speedup:.2f}x)")
