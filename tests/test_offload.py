"""Crypto-engine offload pool (Section 6.2 wired into the simulator).

Unit level: the preferential scheduler (cheapest capable core, spill to
the generic unit, saturation refusal), the skip-small policy and the
timeline accounting.

Integration level: offload must never change the transcript -- wire
bytes are bit-identical to a software run -- while cutting modeled CPU
cycles by the Section 6.2 margins; the farm surfaces per-worker pools
and an aggregate summary.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.crypto import rsa
from repro.engines import (
    AES_UNIT, GENERIC_CIPHER_UNIT, HASH_UNIT, MODEXP_UNIT, OffloadConfig,
    OffloadPool, default_engine_config, single_engine_config,
)
from repro.ssl.ciphersuites import AES128_SHA, RC4_MD5
from repro.webserver import RequestWorkload, SHARED, ServerFarm, \
    WebServerSimulator


def make_pool(*units, saturation=200_000.0, min_bytes=256):
    return OffloadPool(OffloadConfig(units=tuple(units),
                                     saturation_cycles=saturation,
                                     min_record_bytes=min_bytes))


class TestScheduler:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            OffloadPool(OffloadConfig(units=()))

    def test_prefers_cheapest_capable_unit(self):
        # AES goes to the dedicated unit (0.25 c/B), not the generic core
        # (1.0 c/B), even though both are idle and capable.
        pool = make_pool(GENERIC_CIPHER_UNIT, AES_UNIT, HASH_UNIT)
        assert pool.submit_record("seal", "aes", "sha1", 4096, 21)
        assert pool.units[1].ops == 1          # aes-unit took the data pass
        assert pool.units[0].ops == 0

    def test_incapable_unit_never_picked(self):
        # The AES unit cannot serve 3DES; only the generic core can.
        pool = make_pool(AES_UNIT, GENERIC_CIPHER_UNIT, HASH_UNIT)
        assert pool.submit_record("seal", "3des", "sha1", 4096, 24)
        assert pool.units[0].ops == 0
        assert pool.units[1].ops == 1

    def test_no_capable_cipher_falls_back(self):
        pool = make_pool(AES_UNIT, HASH_UNIT)
        assert not pool.submit_record("seal", "3des", "sha1", 4096, 24)
        assert pool.fallbacks == 1
        assert pool.ops == 0

    def test_record_needs_hash_unit_too(self):
        # Figure 6 drives cipher and MAC from one descriptor: a pool with
        # no hash pipeline cannot take the record at all.
        pool = make_pool(AES_UNIT)
        assert not pool.submit_record("seal", "aes", "sha1", 4096, 21)
        assert pool.fallbacks == 1

    def test_backlogged_fast_core_spills_to_idle_slow_one(self):
        # Load the AES unit until an idle generic core finishes sooner;
        # the preferential scheduler must spill, not queue.
        pool = make_pool(AES_UNIT, GENERIC_CIPHER_UNIT, HASH_UNIT,
                         saturation=10**9)
        for _ in range(8):
            assert pool.submit_record("seal", "aes", "sha1", 16384, 21)
        # aes-unit backlog ~8 * 4k cycles; generic does 16k in ~16k cycles
        # from now, so once backlog exceeds the rate gap it wins a pick.
        assert pool.units[1].ops > 0
        assert pool.units[0].ops > 0

    def test_saturation_refuses_then_drains(self):
        pool = make_pool(AES_UNIT, HASH_UNIT, saturation=1_000.0)
        assert pool.submit_record("seal", "aes", "sha1", 16384, 21)
        # Hash pipeline holds ~20k cycles of backlog > 1k bound.
        assert not pool.submit_record("seal", "aes", "sha1", 16384, 21)
        assert pool.fallbacks == 1
        # Advance the virtual clock past the backlog: accepted again.
        perf.charge_cycles(100_000.0)
        assert pool.submit_record("seal", "aes", "sha1", 16384, 21)
        assert pool.record_ops == 2

    def test_small_records_stay_in_software(self):
        pool = make_pool(AES_UNIT, HASH_UNIT, min_bytes=256)
        assert not pool.submit_record("seal", "aes", "sha1", 64, 21)
        assert pool.skipped_small == 1
        assert pool.fallbacks == 0


class TestAccounting:
    def test_dispatch_charged_in_offload_region(self, isolated_profiler):
        pool = make_pool(AES_UNIT, HASH_UNIT)
        before = isolated_profiler.now()
        assert pool.submit_record("seal", "aes", "sha1", 8192, 21)
        spent = isolated_profiler.now() - before
        # CPU pays a few hundred dispatch cycles, never the ~11k-cycle
        # engine service.
        assert 0 < spent < 2_000
        assert isolated_profiler.find_region("engine_offload") is not None

    def test_overlap_timing(self, isolated_profiler):
        # done = max(cipher data pass, hash pass) + cipher tail, with each
        # unit's fixed setup in its own lane.
        pool = make_pool(AES_UNIT, HASH_UNIT)
        assert pool.submit_record("seal", "aes", "sha1", 8192, 21)
        now = isolated_profiler.now()
        hash_done = HASH_UNIT.fixed_cycles + 1.25 * 8192
        data_done = AES_UNIT.fixed_cycles + 0.25 * 8192
        expected = max(hash_done, data_done) + 0.25 * 21
        assert pool.units[0].free_at - now == pytest.approx(expected)

    def test_modexp_decrypt_real_bytes_engine_cost(self, rsa512, rng):
        pool = make_pool(MODEXP_UNIT)
        ct = rsa512.public().encrypt(b"pre-master", rng)
        assert pool.rsa_decrypt(rsa512, ct) == b"pre-master"
        assert pool.modexp_ops == 1
        # 512-bit op at the reference width: rate + fixed, exactly.
        assert pool.units[0].busy_cycles == pytest.approx(
            MODEXP_UNIT.rates["rsa"] + MODEXP_UNIT.fixed_cycles)

    def test_modexp_scales_cubically(self, rsa512, rsa1024, rng):
        pool = make_pool(MODEXP_UNIT, saturation=10**12)
        pool.rsa_decrypt(rsa512, rsa512.public().encrypt(b"x", rng))
        small = pool.units[0].busy_cycles - MODEXP_UNIT.fixed_cycles
        pool2 = make_pool(MODEXP_UNIT, saturation=10**12)
        pool2.rsa_decrypt(rsa1024, rsa1024.public().encrypt(b"x", rng))
        big = pool2.units[0].busy_cycles - MODEXP_UNIT.fixed_cycles
        assert big / small == pytest.approx(
            (rsa1024.n.nbits() / rsa512.n.nbits()) ** 3, rel=0.01)

    def test_modexp_saturation_falls_back_to_software(self, rsa512, rng):
        pool = make_pool(MODEXP_UNIT, saturation=1_000.0)
        ct = rsa512.public().encrypt(b"pm", rng)
        assert pool.rsa_decrypt(rsa512, ct) == b"pm"
        # The unit now holds ~120k cycles of backlog > the 1k bound: the
        # next decrypt runs in software (full CPU price) but still works.
        assert pool.rsa_decrypt(rsa512, ct) == b"pm"
        assert pool.modexp_ops == 1
        assert pool.fallbacks == 1

    def test_snapshot_shape(self):
        pool = make_pool(AES_UNIT, HASH_UNIT, MODEXP_UNIT)
        assert pool.submit_record("seal", "aes", "sha1", 8192, 21)
        snap = pool.snapshot()
        assert snap["ops"] == snap["record_ops"] == 1
        assert snap["peak_queue_depth"] == 2    # cipher + hash lanes
        assert [u["kind"] for u in snap["units"]] == \
            ["cipher", "hash", "modexp"]
        assert all(0.0 <= u["utilization"] <= 1.0 for u in snap["units"])


def run_sim(engines, *, identity, suite=AES128_SHA, size=16384, n=4):
    key, cert = identity
    rsa.reset_error_tables()
    sim = WebServerSimulator(suite=suite, key=key, cert=cert, use_crt=False,
                             seed=b"offload-test", engines=engines)
    return sim.run(RequestWorkload.fixed(size), n)


class TestSimulatorIntegration:
    def test_transcript_identical_cycles_halved(self, identity1024):
        # The paper's 1024-bit identity, non-CRT: both the modexp assist
        # and the record engine carry real weight here.
        software = run_sim(None, identity=identity1024)
        offload = run_sim(single_engine_config(), identity=identity1024)
        assert offload.failures == software.failures == 0
        # The engines never touch bytes: the wire transcript must match
        # the software run exactly.
        assert offload.wire_bytes == software.wire_bytes
        # ... while the modeled CPU cost drops by at least 2x.
        assert software.profiler.total_cycles() > \
            2.0 * offload.profiler.total_cycles()

    def test_snapshot_attached_to_result(self, identity512):
        result = run_sim(default_engine_config(), identity=identity512)
        assert result.offload is not None
        assert result.offload["ops"] > 0
        assert result.offload["modexp_ops"] > 0

    def test_no_engines_no_snapshot(self, identity512):
        assert run_sim(None, identity=identity512).offload is None

    def test_rc4_lands_on_rc4_unit(self, identity512):
        result = run_sim(default_engine_config(), identity=identity512,
                         suite=RC4_MD5)
        units = {u["label"]: u["ops"] for u in result.offload["units"]}
        assert units["rc4-unit"] > 0
        assert units["aes-unit"] == 0


class TestFarmIntegration:
    def _run_farm(self, identity, engines):
        key, cert = identity
        rsa.reset_error_tables()
        farm = ServerFarm(2, topology=SHARED, key=key, cert=cert,
                          use_crt=True, engines=engines)
        return farm.run(RequestWorkload.fixed(8192, resumption_rate=0.5),
                        8, concurrency_per_worker=2)

    def test_summary_aggregates_workers(self, identity512):
        result = self._run_farm(identity512, single_engine_config())
        summary = result.offload_summary()
        assert summary is not None
        assert summary["ops"] == sum(r.offload["ops"]
                                     for r in result.results)
        assert len(summary["unit_utilization"]) == 3

    def test_summary_none_without_engines(self, identity512):
        assert self._run_farm(identity512, None).offload_summary() is None

    def test_capacity_gain_carries_to_farm(self, identity512):
        software = self._run_farm(identity512, None)
        offload = self._run_farm(identity512, single_engine_config())
        assert offload.wire_bytes == software.wire_bytes
        assert software.total_cycles() > offload.total_cycles()
