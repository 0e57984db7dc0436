"""Golden-cycle performance-regression gate.

Records and checks deterministic baseline signatures (see
:mod:`repro.perf.baseline`) for a registry of named scenarios, one per
paper table plus the resumption / batch-RSA / farm workloads layered on
top of the paper.  Because every modeled quantity in the reproduction is
deterministic -- the fast path charges bit-identical cycles to the
faithful loops -- the default comparison is *exact*: any drift in a
cycle total, a region breakdown or the instruction-mix histogram fails
the gate and names the leaf that moved.

    python -m repro.tools.perfgate --list
    python -m repro.tools.perfgate --record            # refresh baselines/
    python -m repro.tools.perfgate --check             # CI gate
    python -m repro.tools.perfgate --check --report perf_gate_report.txt
    python -m repro.tools.perfgate --check --tolerance 1e-6
    python -m repro.tools.perfgate --diff a.json b.json
    python -m repro.tools.perfgate --record handshake_sslv3  # one scenario

Run it from the repository root (or pass ``--baseline-dir``); ``make
perf-gate`` / ``make perf-baseline`` wrap the two common invocations.
CI runs ``--check`` under both ``REPRO_FASTPATH=1`` and ``=0`` against
the *same* committed baselines, so a divergence between the two host
backends fails the build even if both drifted consistently from within
one backend's point of view.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import perf, runtime
from ..crypto import rsa
from ..perf import baseline
from ..perf.profiler import Profiler

DEFAULT_BASELINE_DIR = Path("baselines")


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One named deterministic workload whose signature gets pinned."""

    name: str
    table: str          # paper table / experiment this guards
    description: str
    run: Callable[[], Tuple[Profiler, Dict[str, Any]]]


SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, table: str, description: str):
    def register(fn):
        SCENARIOS[name] = Scenario(name, table, description, fn)
        return fn
    return register


def _identity(bits: int = 512, seed: bytes = b"perfgate"):
    """A deterministic server identity built outside the captured profiler
    (key generation is not part of any paper table's steady state)."""
    from ..ssl.loopback import make_server_identity
    with perf.activate(perf.Discard()):
        return make_server_identity(bits, seed=seed)


def _session_signature(result) -> Tuple[Profiler, Dict[str, Any]]:
    """Server-side profiler + transcript metrics of a loopback run."""
    stats = result.server.stats
    return result.server_profiler, {
        "wire_bytes_sent": stats.bytes_sent,
        "wire_bytes_received": stats.bytes_received,
        "handshake_flights": result.handshake_flights,
        "echoed_bytes": len(result.echoed),
        "resumed": bool(result.server.resumed),
    }


@scenario("webserver_https", "Table 1",
          "Full HTTPS transactions through the Apache/Linux cost model")
def _webserver_https():
    from ..webserver.simulator import run_experiment
    key, cert = _identity(seed=b"pg-webserver")
    result = run_experiment(4096, nrequests=2, use_crt=False,
                            key=key, cert=cert)
    return result.profiler, {
        "requests_completed": result.requests_completed,
        "bytes_served": result.bytes_served,
        "wire_bytes": result.wire_bytes,
        "failures": result.failures,
    }


@scenario("handshake_sslv3", "Table 2",
          "SSLv3 DES-CBC3-SHA handshake, non-CRT private key")
def _handshake_sslv3():
    from ..ssl import DES_CBC3_SHA
    from ..ssl.loopback import run_session
    key, cert = _identity(seed=b"pg-hs-sslv3")
    result = run_session(b"", suite=DES_CBC3_SHA, key=key, cert=cert,
                         use_crt=False, seed=b"pg-hs-sslv3")
    return _session_signature(result)


@scenario("handshake_tls10", "Table 3",
          "TLS 1.0 handshake: PRF/HMAC replaces the SSLv3 KDF/MAC")
def _handshake_tls10():
    from ..ssl import DES_CBC3_SHA, TLS1_VERSION
    from ..ssl.loopback import run_session
    key, cert = _identity(seed=b"pg-hs-tls")
    result = run_session(b"", suite=DES_CBC3_SHA, key=key, cert=cert,
                         use_crt=False, version=TLS1_VERSION,
                         seed=b"pg-hs-tls")
    return _session_signature(result)


@scenario("handshake_aes_sha", "Table 4",
          "AES128-SHA handshake (message structure with an AES suite)")
def _handshake_aes_sha():
    from ..ssl import AES128_SHA
    from ..ssl.loopback import run_session
    key, cert = _identity(seed=b"pg-hs-aes")
    result = run_session(b"", suite=AES128_SHA, key=key, cert=cert,
                         use_crt=True, seed=b"pg-hs-aes")
    return _session_signature(result)


@scenario("resumed_session", "Table 2 (resumption)",
          "Abbreviated handshake resuming a cached session")
def _resumed_session():
    from ..ssl import DES_CBC3_SHA
    from ..ssl.loopback import run_session
    from ..ssl.session import SessionCache
    key, cert = _identity(seed=b"pg-resume")
    cache = SessionCache()
    with perf.activate(perf.Discard()):
        first = run_session(b"", suite=DES_CBC3_SHA, key=key, cert=cert,
                            session_cache=cache, seed=b"pg-resume-1")
    assert first.session is not None, "first handshake minted no session"
    result = run_session(b"", suite=DES_CBC3_SHA, key=key, cert=cert,
                         session_cache=cache, resume=first.session,
                         seed=b"pg-resume-2")
    sig_prof, extra = _session_signature(result)
    assert extra["resumed"], "resumption did not engage"
    return sig_prof, extra


@scenario("kernel_aes", "Table 5", "AES-128-CBC key setup + 8 KiB encrypt")
def _kernel_aes():
    from ..crypto.bench import measure_cipher
    m = measure_cipher("aes", 8192)
    return m.profiler, {"bytes": m.nbytes,
                        "key_setup_cycles": m.key_setup_cycles}


@scenario("kernel_3des", "Table 6", "3DES-CBC key setup + 2 KiB encrypt")
def _kernel_3des():
    from ..crypto.bench import measure_cipher
    m = measure_cipher("3des", 2048)
    return m.profiler, {"bytes": m.nbytes,
                        "key_setup_cycles": m.key_setup_cycles}


@scenario("kernel_rc4", "Table 11", "RC4 key setup + 8 KiB stream")
def _kernel_rc4():
    from ..crypto.bench import measure_cipher
    m = measure_cipher("rc4", 8192)
    return m.profiler, {"bytes": m.nbytes,
                        "key_setup_cycles": m.key_setup_cycles}


@scenario("kernel_rsa_crt", "Table 7",
          "512-bit RSA private decryption with CRT, steady state")
def _kernel_rsa_crt():
    from ..crypto.bench import measure_rsa
    m = measure_rsa(512, use_crt=True)
    return m.profiler, {"key_bytes": m.nbytes}


@scenario("kernel_rsa_noncrt", "Table 8",
          "512-bit RSA private decryption without CRT, steady state")
def _kernel_rsa_noncrt():
    from ..crypto.bench import measure_rsa
    m = measure_rsa(512, use_crt=False)
    return m.profiler, {"key_bytes": m.nbytes}


@scenario("kernel_bignum", "Table 9",
          "Sliding-window modular exponentiation over bn_mul_add_words")
def _kernel_bignum():
    from ..bignum import BigNum, mod_exp
    base = BigNum.from_bytes(bytes(range(1, 65)))
    modulus = BigNum.from_bytes(bytes(range(100, 164)) + b"\x01")
    exponent = BigNum.from_int(65537)
    profiler = Profiler()
    with perf.activate(profiler):
        out = mod_exp(base, exponent, modulus)
    return profiler, {"result_bytes": len(out.to_bytes())}


@scenario("kernel_md5", "Table 10", "MD5 init/update/final over 8 KiB")
def _kernel_md5():
    from ..crypto.bench import measure_hash
    m = measure_hash("md5", 8192)
    return m.profiler, {"bytes": m.nbytes}


@scenario("kernel_sha1", "Table 10", "SHA-1 init/update/final over 8 KiB")
def _kernel_sha1():
    from ..crypto.bench import measure_hash
    m = measure_hash("sha1", 8192)
    return m.profiler, {"bytes": m.nbytes}


@scenario("bulk_record_rc4_md5", "Table 11",
          "8 KiB application echo through an RC4-MD5 session")
def _bulk_record_rc4_md5():
    from ..ssl import RC4_MD5
    from ..ssl.loopback import run_session
    key, cert = _identity(seed=b"pg-bulk-rc4")
    result = run_session(b"r" * 8192, suite=RC4_MD5, key=key, cert=cert,
                         use_crt=True, seed=b"pg-bulk-rc4")
    return _session_signature(result)


@scenario("bulk_record_3des_sha", "Table 12",
          "4 KiB application echo through a DES-CBC3-SHA session")
def _bulk_record_3des_sha():
    from ..ssl import DES_CBC3_SHA
    from ..ssl.loopback import run_session
    key, cert = _identity(seed=b"pg-bulk-3des")
    result = run_session(b"d" * 4096, suite=DES_CBC3_SHA, key=key,
                         cert=cert, use_crt=True, seed=b"pg-bulk-3des")
    return _session_signature(result)


@scenario("batch_rsa_flush", "Batch RSA",
          "Concurrent handshakes amortized through the batch decryptor, "
          "including a partial timeout flush")
def _batch_rsa_flush():
    from ..crypto.batch_rsa import generate_batch_keys
    from ..crypto.rand import PseudoRandom
    from ..webserver.simulator import WebServerSimulator
    from ..webserver.workload import RequestWorkload
    with perf.activate(perf.Discard()):
        key_set = generate_batch_keys(512, 4,
                                      rng=PseudoRandom(b"pg-batch"))
    sim = WebServerSimulator(use_crt=True, key_set=key_set,
                             seed=b"pg-batch")
    workload = RequestWorkload.fixed(2048, resumption_rate=0.0)
    result = sim.run(workload, 6, concurrency=4)
    assert result.batched_ops, "batch queue never engaged"
    return result.profiler, {
        "requests_completed": result.requests_completed,
        "failures": result.failures,
        "wire_bytes": result.wire_bytes,
        "batched_ops": result.batched_ops,
        "batches": {str(k): v for k, v in sorted(result.batches.items())},
    }


def _farm_signature(result) -> Tuple[Profiler, Dict[str, Any]]:
    return result.merged_profiler(), {
        "requests_completed": result.requests_completed,
        "failures": result.failures,
        "resumed_handshakes": result.resumed_handshakes,
        "cross_worker_resumptions": result.cross_worker_resumptions,
        "wire_bytes": result.wire_bytes,
        "per_worker_cycles": [w.cycles for w in result.worker_stats()],
        "shard_stats": result.shard_stats,
    }


@scenario("farm_2workers", "Farm scaling",
          "Two-worker shared-cache farm with 50% resumption")
def _farm_2workers():
    from ..webserver import RequestWorkload, ServerFarm, SHARED
    key, cert = _identity(seed=b"pg-farm")
    farm = ServerFarm(2, topology=SHARED, key=key, cert=cert, use_crt=True)
    workload = RequestWorkload.fixed(2048, resumption_rate=0.5)
    result = farm.run(workload, 6, concurrency_per_worker=2)
    return _farm_signature(result)


@scenario("farm_2workers_partitioned", "Farm scaling",
          "Two-worker partitioned farm, session-affinity routing")
def _farm_2workers_partitioned():
    from ..webserver import PARTITIONED, RequestWorkload, ServerFarm
    key, cert = _identity(seed=b"pg-farm-part")
    farm = ServerFarm(2, topology=PARTITIONED, policy="session-affinity",
                      key=key, cert=cert, use_crt=True)
    workload = RequestWorkload.fixed(2048, resumption_rate=0.5)
    result = farm.run(workload, 6, concurrency_per_worker=2)
    return _farm_signature(result)


@scenario("farm_2workers_shared", "Farm scaling",
          "Two-worker shared-cache farm with cross-worker resumption")
def _farm_2workers_shared():
    from ..webserver import RequestWorkload, ServerFarm, SHARED
    key, cert = _identity(seed=b"pg-farm-shared")
    farm = ServerFarm(2, topology=SHARED, key=key, cert=cert, use_crt=True)
    workload = RequestWorkload.fixed(2048, resumption_rate=0.5)
    result = farm.run(workload, 8, concurrency_per_worker=2)
    assert result.cross_worker_resumptions > 0, \
        "shared farm scenario stopped exercising cross-worker resumption"
    return _farm_signature(result)


@scenario("ticket_resumption", "Session tickets",
          "Ticket-enabled simulator: a small client pool resumes via "
          "RFC-5077-style stateless tickets, leaving the server-side id "
          "cache empty the whole run")
def _ticket_resumption():
    from ..ssl.ticket import TicketKeyRing
    from ..webserver.simulator import WebServerSimulator
    from ..webserver.workload import RequestWorkload
    key, cert = _identity(seed=b"pg-tickets")
    ring = TicketKeyRing(seed=b"pg-tickets", rotation_interval=3600.0)
    sim = WebServerSimulator(key=key, cert=cert, use_crt=True,
                             seed=b"pg-tickets", tickets=ring,
                             client_pool_capacity=8)
    workload = RequestWorkload.fixed(2048, resumption_rate=0.7,
                                     seed=b"pg-tickets", clients=4)
    result = sim.run(workload, 10)
    assert result.tickets_minted > 0, "no tickets minted"
    assert result.tickets_accepted > 0, "no ticket resumption engaged"
    assert len(sim._session_cache) == 0, \
        "ticket mode leaked state into the server-side id cache"
    return result.profiler, {
        "requests_completed": result.requests_completed,
        "failures": result.failures,
        "wire_bytes": result.wire_bytes,
        "resumed_handshakes": result.resumed_handshakes,
        "tickets_minted": result.tickets_minted,
        "tickets_accepted": result.tickets_accepted,
        "tickets_rejected": result.tickets_rejected,
        "tickets_renewed": result.tickets_renewed,
        "session_cache_size": len(sim._session_cache),
        "client_pool": sim._client_sessions.stats(),
    }


@scenario("ticket_rotation_churn", "Session tickets",
          "Ticket key rotation churn: the rotation interval is a few "
          "handshake-times of virtual wall-clock, so offered tickets "
          "straddle epoch boundaries -- stale-but-in-window offers renew, "
          "out-of-window offers fall back to full handshakes")
def _ticket_rotation_churn():
    from ..ssl.ticket import TicketKeyRing
    from ..webserver.simulator import WebServerSimulator
    from ..webserver.workload import RequestWorkload
    key, cert = _identity(seed=b"pg-ticket-rot")
    # Virtual seconds advance at cycles/2.4e9; one transaction here is a
    # few ms, so a ~5 ms rotation interval with a one-epoch accept window
    # yields both renewals and out-of-window rejections within 14 runs.
    ring = TicketKeyRing(seed=b"pg-ticket-rot", rotation_interval=0.005,
                         accept_window=1)
    sim = WebServerSimulator(key=key, cert=cert, use_crt=True,
                             seed=b"pg-ticket-rot", tickets=ring,
                             client_pool_capacity=8)
    workload = RequestWorkload.fixed(2048, resumption_rate=0.9,
                                     seed=b"pg-ticket-rot", clients=2)
    result = sim.run(workload, 14)
    assert result.tickets_renewed > 0, \
        "rotation scenario stopped exercising stale-epoch renewal"
    assert result.tickets_rejected > 0, \
        "rotation scenario stopped exercising out-of-window fallback"
    assert result.failures == 0, result
    return result.profiler, {
        "requests_completed": result.requests_completed,
        "failures": result.failures,
        "wire_bytes": result.wire_bytes,
        "resumed_handshakes": result.resumed_handshakes,
        "tickets_minted": result.tickets_minted,
        "tickets_accepted": result.tickets_accepted,
        "tickets_rejected": result.tickets_rejected,
        "tickets_renewed": result.tickets_renewed,
        "session_cache_size": len(sim._session_cache),
        "client_pool": sim._client_sessions.stats(),
    }


@scenario("engines_1x_bulk", "Section 6.2 offload",
          "Single crypto engine (AES cipher + hash pipeline, modexp "
          "assist) offloading a bulk-heavy AES workload; the offload "
          "snapshot (per-unit ops/busy cycles, queue peaks) is part of "
          "the signature")
def _engines_1x_bulk():
    from ..engines import single_engine_config
    from ..ssl.ciphersuites import AES128_SHA
    from ..webserver.simulator import WebServerSimulator
    from ..webserver.workload import RequestWorkload
    key, cert = _identity(seed=b"pg-engines")
    sim = WebServerSimulator(suite=AES128_SHA, key=key, cert=cert,
                             use_crt=True, seed=b"pg-engines",
                             engines=single_engine_config())
    result = sim.run(RequestWorkload.fixed(16384), 4)
    assert result.offload is not None and result.offload["ops"] > 0, \
        "engine pool never engaged"
    assert result.failures == 0, result
    return result.profiler, {
        "requests_completed": result.requests_completed,
        "failures": result.failures,
        "wire_bytes": result.wire_bytes,
        "offload": result.offload,
    }


@scenario("engines_preferential_farm", "Section 6.2 offload",
          "Two-worker shared-cache farm over a heterogeneous engine pool "
          "(fast 3DES core + slow generic core, tight saturation bound): "
          "exercises preferential assignment and the software-fallback "
          "path")
def _engines_preferential_farm():
    from ..engines import (
        GENERIC_CIPHER_UNIT, HASH_UNIT, MODEXP_UNIT, OffloadConfig,
        UnitDesign,
    )
    from ..webserver import RequestWorkload, ServerFarm, SHARED
    fast_3des = UnitDesign("cipher", {"3des": 0.5, "des": 0.5},
                           label="3des-unit")
    # One hash pipeline and a tight backlog bound: a 32 KiB response is
    # two back-to-back 16 KiB records, and the second arrives while the
    # hash unit still holds the first -- deterministic saturation.
    config = OffloadConfig(
        units=(fast_3des, GENERIC_CIPHER_UNIT, HASH_UNIT, MODEXP_UNIT),
        saturation_cycles=10_000.0)
    key, cert = _identity(seed=b"pg-engines-farm")
    farm = ServerFarm(2, topology=SHARED, key=key, cert=cert, use_crt=True,
                      engines=config)
    workload = RequestWorkload.fixed(32768, resumption_rate=0.5)
    result = farm.run(workload, 8, concurrency_per_worker=2)
    summary = result.offload_summary()
    assert summary is not None and summary["ops"] > 0, \
        "engine pool never engaged"
    assert summary["fallbacks"] > 0, \
        "saturation fallback path never exercised"
    profiler, extra = _farm_signature(result)
    extra["offload"] = [r.offload for r in result.results]
    extra["offload_summary"] = summary
    return profiler, extra


def _overload_signature(result) -> Tuple[Profiler, Dict[str, Any]]:
    """Farm signature plus the overload anatomy: every offered/shed/
    abandoned/downgraded counter, the per-handshake modeled latencies and
    their p50/p99."""
    profiler, extra = _farm_signature(result)
    extra.update({
        "offered_connections": result.offered_connections,
        "shed_queue_full": result.shed_queue_full,
        "shed_deadline": result.shed_deadline,
        "requests_shed": result.requests_shed,
        "peak_queue_depth": result.peak_queue_depth,
        "queue_wait_rounds_total": result.queue_wait_rounds_total,
        "connections_downgraded": result.connections_downgraded,
        "handshakes_abandoned": result.handshakes_abandoned,
        "requests_abandoned": result.requests_abandoned,
        "renegotiations_served": result.renegotiations_served,
        "completed_handshakes": result.completed_handshakes,
        "handshake_latencies": result.handshake_latencies,
        "handshake_latency_p50": result.handshake_latency_percentile(50),
        "handshake_latency_p99": result.handshake_latency_percentile(99),
    })
    return profiler, extra


@scenario("overload_flash_crowd", "Overload anatomy",
          "Two-worker shared farm under a flash-crowd ramp with handshake "
          "floods and renegotiation storms, deadline-shedding admission")
def _overload_flash_crowd():
    from ..webserver import (
        AdversarialWorkload, DeadlineShedPolicy, ServerFarm, SHARED,
    )
    key, cert = _identity(seed=b"pg-overload")
    farm = ServerFarm(2, topology=SHARED, key=key, cert=cert, use_crt=True,
                      admission=DeadlineShedPolicy(max_queue=3,
                                                   deadline_rounds=4))
    workload = AdversarialWorkload.fixed(
        2048, resumption_rate=0.5, seed=b"pg-overload-1", clients=4,
        mean_gap_rounds=2.0, flash=(3, 6.0), flood_rate=0.25,
        reneg_rate=0.15)
    result = farm.run(workload, 14, concurrency_per_worker=2)
    assert result.shed_queue_full > 0 and result.shed_deadline > 0, \
        "flash crowd stopped exercising both shedding modes"
    assert result.handshakes_abandoned > 0, \
        "flash crowd stopped exercising handshake floods"
    assert result.renegotiations_served > 0, \
        "flash crowd stopped exercising renegotiation storms"
    return _overload_signature(result)


@scenario("overload_downgrade_policy", "Overload anatomy",
          "Two-worker shared farm under a zero-gap burst: drop-tail "
          "admission plus the cipher-suite downgrade engine steering "
          "ServerHello toward RC4/MD5 at queue pressure")
def _overload_downgrade_policy():
    from ..ssl.ciphersuites import DES_CBC3_SHA, RC4_MD5
    from ..webserver import (
        AdversarialWorkload, DropTailPolicy, ServerFarm, SHARED,
        SuitePolicy,
    )
    key, cert = _identity(seed=b"pg-downgrade")
    policy = SuitePolicy(primary=DES_CBC3_SHA, downgrade=RC4_MD5,
                         queue_high=3)
    farm = ServerFarm(2, topology=SHARED, key=key, cert=cert, use_crt=True,
                      admission=DropTailPolicy(max_queue=6),
                      suite_policy=policy,
                      client_suites=(DES_CBC3_SHA, RC4_MD5))
    workload = AdversarialWorkload.fixed(
        8192, resumption_rate=0.4, seed=b"pg-downgrade", clients=4,
        mean_gap_rounds=0.0)
    result = farm.run(workload, 10, concurrency_per_worker=2)
    assert result.connections_downgraded > 0, \
        "burst stopped exercising the suite downgrade engine"
    assert result.connections_downgraded < result.offered_connections, \
        "downgrade engaged on every connection -- no pressure contrast"
    profiler, extra = _overload_signature(result)
    extra["suite_payoff_ratio"] = round(policy.payoff_ratio(), 6)
    return profiler, extra


# ---------------------------------------------------------------------------
# Capture / record / check
# ---------------------------------------------------------------------------

def capture_scenario(name: str) -> Dict[str, Any]:
    """Run one scenario from a cold start and return its signature.

    Process-global one-time charges (the RSA error-string tables) are
    re-armed first and every scenario builds its own keys, so captures
    are independent of scenario order and of whatever ran before.
    """
    scn = SCENARIOS[name]
    rsa.reset_error_tables()
    with perf.activate(perf.Discard()):
        profiler, extra = scn.run()
    return baseline.capture(profiler, scenario=name, extra=extra,
                            meta={"table": scn.table,
                                  "description": scn.description})


def baseline_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.json"


def record(names: List[str], directory: Path) -> List[Path]:
    paths = []
    for name in names:
        t0 = time.perf_counter()
        sig = capture_scenario(name)
        path = baseline.write_json(baseline_path(directory, name), sig)
        print(f"recorded {name:24s} -> {path} "
              f"({sig['cycles_total']:,} cycles, "
              f"{time.perf_counter() - t0:.2f}s)")
        paths.append(path)
    return paths


def check(names: List[str], directory: Path, *, tolerance: float = 0.0,
          ) -> Tuple[bool, str]:
    """Re-capture every scenario and diff against committed baselines.

    Returns ``(ok, report_text)``; the report names each drifted leaf so
    a reviewer can see which table moved without re-running locally.
    """
    lines: List[str] = []
    backend = "fast" if runtime.fastpath_enabled() else "faithful"
    lines.append(f"perf-gate: {len(names)} scenario(s), "
                 f"backend={backend}, tolerance={tolerance}")
    ok = True
    failed: List[str] = []
    for name in names:
        path = baseline_path(directory, name)
        if not path.exists():
            ok = False
            failed.append(name)
            lines.append(f"FAIL {name}: no baseline at {path} "
                         f"(run --record and commit it)")
            continue
        committed = baseline.load_json(path)
        t0 = time.perf_counter()
        fresh = capture_scenario(name)
        drifts = baseline.diff_signatures(committed, fresh,
                                          tolerance=tolerance)
        if drifts:
            ok = False
            failed.append(name)
            lines.append(f"FAIL {name}: {len(drifts)} drifted metric(s) "
                         f"[{SCENARIOS[name].table}]")
            shown = drifts[:40]
            for drift in shown:
                lines.append(f"  {drift}")
            if len(drifts) > len(shown):
                lines.append(f"  ... and {len(drifts) - len(shown)} more")
        else:
            lines.append(f"ok   {name:24s} "
                         f"[{SCENARIOS[name].table}] "
                         f"({time.perf_counter() - t0:.2f}s)")
    if failed:
        # Drifting scenario names lead the report: the first line a
        # reviewer (or a CI log excerpt) sees answers "which table moved".
        lines.insert(1, "drifting scenarios: " + ", ".join(failed))
    lines.append("perf-gate: " + ("PASS" if ok else "FAIL"))
    return ok, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perfgate",
        description="Record/check golden deterministic performance "
                    "baselines for the paper-table scenarios")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="capture signatures and write baselines/*.json")
    mode.add_argument("--check", action="store_true",
                      help="diff fresh captures against committed "
                           "baselines; exit 1 on drift")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"),
                      help="diff two signature JSON files")
    mode.add_argument("--list", action="store_true",
                      help="list registered scenarios")
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="restrict to scenarios whose name equals or "
                             "contains NAME (repeatable; composes with "
                             "positional names)")
    parser.add_argument("--baseline-dir", default=str(DEFAULT_BASELINE_DIR),
                        help="where baselines live (default: baselines/)")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="default relative tolerance for numeric "
                             "leaves (default: 0.0 = exact)")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the check report to this file "
                             "(uploaded as a CI artifact on failure)")
    args = parser.parse_args(argv)

    if args.list:
        for name, scn in SCENARIOS.items():
            print(f"{name:24s} [{scn.table}] {scn.description}")
        return 0

    if args.diff:
        a, b = (baseline.load_json(p) for p in args.diff)
        drifts = baseline.diff_signatures(a, b, tolerance=args.tolerance)
        for drift in drifts:
            print(drift)
        print(f"{len(drifts)} drifted metric(s)")
        return 1 if drifts else 0

    names = args.scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}; "
                     f"see --list")
    if args.only:
        names = [n for n in names
                 if any(sel == n or sel in n for sel in args.only)]
        if not names:
            parser.error(f"--only {', '.join(args.only)} matched no "
                         f"scenario; see --list")
    directory = Path(args.baseline_dir)

    if args.record:
        record(names, directory)
        return 0

    ok, report = check(names, directory, tolerance=args.tolerance)
    sys.stdout.write(report)
    if args.report:
        Path(args.report).write_text(report)
        if not ok:
            print(f"report written to {args.report}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
