"""HTTP layer, workload generation, and the web-server simulation."""

import pytest

from repro import perf
from repro.engines import default_engine_config
from repro.webserver import (
    ApacheWorker, DEFAULT_COSTS, HttpError, RequestWorkload,
    SystemCostModel, WebServerSimulator, build_request, build_response,
    document_bytes, parse_request, parse_response,
)


def record_charged_profilers(monkeypatch) -> dict:
    """Wrap ``Profiler.charge``, ``charge_plans`` and ``charge_cycles`` on
    the base class so each call records the profiler it charges, keyed by
    id.  :class:`~repro.perf.Discard` overrides all three, so charges into
    a discard sink are not recorded."""
    charged: dict = {}
    for name in ("charge", "charge_plans", "charge_cycles"):
        def recorder(self, *args, _method=getattr(perf.Profiler, name),
                     **kwargs):
            charged[id(self)] = self
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(perf.Profiler, name, recorder)
    return charged


class TestHttp:
    def test_request_roundtrip(self):
        req = parse_request(build_request("/doc-1024-0.html"))
        assert req.method == "GET"
        assert req.path == "/doc-1024-0.html"
        assert req.headers["host"] == "repro-server"

    def test_response_roundtrip(self):
        status, body = parse_response(build_response(b"<html>hi</html>"))
        assert status.startswith("HTTP/1.1 200")
        assert body == b"<html>hi</html>"

    @pytest.mark.parametrize("bad", [
        b"NONSENSE\r\n\r\n",
        b"GET /\r\n\r\n",                      # missing version
        b"GET / HTTP/2.0\r\n\r\n",             # unsupported version
        b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
        b"\xff\xfe\r\n\r\n",
    ])
    def test_malformed_requests_rejected(self, bad):
        with pytest.raises(HttpError):
            parse_request(bad)

    def test_truncated_response_rejected(self):
        with pytest.raises(HttpError):
            parse_response(b"HTTP/1.1 200 OK\r\n")

    def test_document_bytes_deterministic_and_sized(self):
        a = document_bytes("/x", 1000)
        assert len(a) == 1000
        assert a == document_bytes("/x", 1000)
        assert a != document_bytes("/y", 1000)


class TestApacheWorker:
    def test_serves_sized_document(self):
        worker = ApacheWorker(DEFAULT_COSTS)
        response = worker.handle(build_request("/doc-2048-5.html"))
        status, body = parse_response(response)
        assert status.startswith("HTTP/1.1 200")
        assert len(body) == 2048

    def test_unknown_path_is_404(self):
        worker = ApacheWorker(DEFAULT_COSTS)
        status, _ = parse_response(worker.handle(build_request("/nope")))
        assert "404" in status

    def test_bad_request_is_400(self):
        worker = ApacheWorker(DEFAULT_COSTS)
        status, _ = parse_response(worker.handle(b"garbage\r\n\r\n"))
        assert "400" in status

    def test_non_get_rejected(self):
        worker = ApacheWorker(DEFAULT_COSTS)
        status, _ = parse_response(worker.handle(
            b"POST /doc-10-0.html HTTP/1.1\r\n\r\n"))
        assert "405" in status

    def test_charges_httpd_module(self, isolated_profiler):
        ApacheWorker(DEFAULT_COSTS).handle(build_request("/doc-1024-0.html"))
        modules = dict((n, c) for n, c, _ in
                       isolated_profiler.module_breakdown())
        assert modules.get("httpd", 0) > 0


class TestWorkload:
    def test_fixed_workload(self):
        wl = RequestWorkload.fixed(4096)
        reqs = wl.as_list(5)
        assert len(reqs) == 5
        assert all(r.size_bytes == 4096 for r in reqs)
        assert len({r.path for r in reqs}) == 5

    def test_mix_respects_choices(self):
        wl = RequestWorkload([(100, 1.0), (9999, 1.0)], seed=b"mix")
        sizes = {r.size_bytes for r in wl.requests(40)}
        assert sizes <= {100, 9999}
        assert len(sizes) == 2

    def test_resumption_rate_extremes(self):
        all_resume = RequestWorkload.fixed(10, resumption_rate=1.0)
        assert all(r.resumable for r in all_resume.requests(10))
        no_resume = RequestWorkload.fixed(10, resumption_rate=0.0)
        assert not any(r.resumable for r in no_resume.requests(10))

    def test_deterministic_for_seed(self):
        a = RequestWorkload([(1, 1), (2, 1)], seed=b"s").as_list(10)
        b = RequestWorkload([(1, 1), (2, 1)], seed=b"s").as_list(10)
        assert [r.size_bytes for r in a] == [r.size_bytes for r in b]

    @pytest.mark.parametrize("bad_kwargs", [
        dict(size_mix=[]),
        dict(size_mix=[(10, 0.0)]),
        dict(size_mix=[(10, 1.0)], resumption_rate=1.5),
        dict(size_mix=[(10, 1.0)], clients=0),
    ])
    def test_validation(self, bad_kwargs):
        with pytest.raises(ValueError):
            RequestWorkload(**bad_kwargs)

    def test_three_way_mix_has_no_boundary_skew(self):
        # Satellite fix: cumulative *float* shares drift for weights that
        # don't sum cleanly -- three 1/3 shares accumulate to 0.9999...,
        # so the last bucket silently absorbed boundary draws.  With
        # integer cumulative thresholds each bucket's share of the draw
        # span is exact to within one unit in 10^6.
        wl = RequestWorkload([(100, 1.0), (200, 1.0), (300, 1.0)],
                             seed=b"skew")
        counts = {100: 0, 200: 0, 300: 0}
        n = 9000
        for r in wl.requests(n):
            counts[r.size_bytes] += 1
        for size, c in counts.items():
            assert abs(c - n / 3) < n * 0.05, (size, counts)

    def test_mix_thresholds_are_exact_integers(self):
        # The final threshold is pinned to the full draw span: no draw
        # value can fall off the end of the table, whatever the weights.
        wl = RequestWorkload([(1, 1.0), (2, 1.0), (3, 1.0)], seed=b"t")
        bounds = [b for b, _ in wl._thresholds]
        assert bounds[-1] == 1_000_000
        assert bounds == sorted(bounds)
        assert all(isinstance(b, int) for b in bounds)
        # Three equal weights: thresholds within one unit of exact
        # thirds, not 333299-style drifted values.
        assert abs(bounds[0] - 333_333) <= 1
        assert abs(bounds[1] - 666_667) <= 1

    def test_client_ids_drawn_only_when_population_set(self):
        # No population: no client draw at all, so pre-existing seeded
        # workloads (and every committed baseline) see an unchanged
        # request stream.
        anon = RequestWorkload.fixed(100, seed=b"c")
        assert all(r.client_id is None for r in anon.requests(5))
        pop = RequestWorkload.fixed(100, resumption_rate=0.5, seed=b"c",
                                    clients=7)
        stamped = pop.as_list(20)
        assert all(r.client_id in range(7) for r in stamped)
        assert len({r.client_id for r in stamped}) > 1
        # Deterministic per seed, like the rest of the stream.
        again = RequestWorkload.fixed(100, resumption_rate=0.5, seed=b"c",
                                      clients=7).as_list(20)
        assert [r.client_id for r in stamped] \
            == [r.client_id for r in again]


class TestCostModel:
    def test_costs_scale_with_size(self):
        m = SystemCostModel()
        assert m.kernel_cycles(32) > m.kernel_cycles(1)
        assert m.httpd_cycles(32) > m.httpd_cycles(1)
        assert m.other_cycles(32) > m.other_cycles(1)

    def test_connection_setup_dominates_at_small_sizes(self):
        m = SystemCostModel()
        assert m.kernel_cycles(1) < 1.1 * m.kernel_per_connection


class TestSimulation:
    @pytest.fixture(scope="class")
    def sim_result(self):
        # The paper's configuration: 1024-bit key, non-CRT private op
        # (see DESIGN.md), 1 KB documents.  A dedicated key is generated
        # because the simulator configures use_crt on the key object.
        from repro.crypto.rand import PseudoRandom
        from repro.crypto.rsa import generate_key
        from repro.ssl.x509 import make_self_signed
        key = generate_key(1024, rng=PseudoRandom(b"websim-key"))
        cert = make_self_signed("CN=websim", key)
        sim = WebServerSimulator(key=key, cert=cert, use_crt=False)
        return sim.run(RequestWorkload.fixed(1024), 2)

    def test_all_requests_complete(self, sim_result):
        assert sim_result.requests_completed == 2
        assert sim_result.failures == 0
        assert sim_result.bytes_served == 2048

    def test_all_five_modules_present(self, sim_result):
        shares = sim_result.module_shares()
        assert set(shares) == {"libcrypto", "libssl", "httpd", "vmlinux",
                               "other"}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_libcrypto_dominates(self, sim_result):
        shares = sim_result.module_shares()
        assert shares["libcrypto"] > 0.6  # paper: 70.83%
        assert shares["libssl"] < 0.05    # paper: 0.82%

    def test_crypto_split_public_dominates(self, sim_result):
        split = sim_result.crypto_category_shares()
        assert split["public"] == max(split.values())
        assert split["public"] > 0.8  # paper: ~90% at 1 KB
        assert sum(split.values()) == pytest.approx(1.0)

    def test_resumption_reduces_cost(self, identity512):
        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True)
        full = sim.run(RequestWorkload.fixed(512), 1)
        resumed = sim.run(
            RequestWorkload.fixed(512, resumption_rate=1.0), 2)
        assert resumed.resumed_handshakes >= 1
        assert resumed.cycles_per_request() < full.cycles_per_request()


class TestClientSink:
    """Measurements are server-side: the client machine and the engines'
    software crypto charge a discard sink, so every charge a run makes
    lands in the worker's profile.  The workload's own draws charge the
    caller's active profiler, so the run is made under a sink, as the
    gate makes its scenarios."""

    @pytest.mark.parametrize("engines", [False, True],
                             ids=["software", "engines"])
    def test_every_charge_lands_in_the_worker_profile(
            self, identity512, monkeypatch, engines):
        key, cert = identity512
        sim = WebServerSimulator(
            key=key, cert=cert, use_crt=True, seed=b"client-sink",
            engines=default_engine_config() if engines else None)
        charged = record_charged_profilers(monkeypatch)
        with perf.activate(perf.Discard()):
            result = sim.run(RequestWorkload.fixed(4096, resumption_rate=0.5),
                             6, concurrency=2)
        assert result.requests_completed == 6
        if engines:
            assert result.offload["record_ops"] > 0
            assert result.offload["modexp_ops"] > 0
        stray = [p for p in charged.values() if p is not result.profiler]
        assert stray == []
        assert id(result.profiler) in charged


class TestTransactionAccounting:
    def _bare_transaction(self, nrequests):
        from collections import deque
        from repro.webserver.simulator import SimulationResult, _Transaction
        txn = _Transaction.__new__(_Transaction)
        txn._requests = deque(range(nrequests))
        txn._nrequests = nrequests
        txn._result = SimulationResult(profiler=perf.Profiler())
        return txn

    def test_fail_counts_remaining_requests(self):
        from repro.webserver.simulator import _Transaction
        txn = self._bare_transaction(3)
        txn.phase = _Transaction.HANDSHAKE
        txn._fail()
        assert txn._result.failures == 3
        assert txn.done

    def test_fail_in_closing_counts_nothing(self):
        """Every request was already tallied (completed or failed) by the
        time CLOSING starts; pre-fix, `len(...) or self._nrequests`
        double-counted all of them as failures too."""
        from repro.webserver.simulator import _Transaction
        txn = self._bare_transaction(3)
        txn._requests.clear()
        txn.phase = _Transaction.CLOSING
        txn._fail()
        assert txn._result.failures == 0
        assert txn.done

    def test_admission_failure_counts_not_crashes(self, identity512,
                                                  monkeypatch):
        """Satellite fix: _Transaction.__init__ runs real handshake
        openings, and an SslError escaping it used to crash the
        scheduling loop instead of being accounted.
        Now admission failures count every request of the would-be
        connection as a failure and the run completes."""
        from repro.ssl.errors import SslError
        from repro.webserver import simulator as sim_mod

        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True)
        boom = {"remaining": 2}
        original = sim_mod.SslServer.__init__

        def flaky(self, *args, **kwargs):
            if boom["remaining"]:
                boom["remaining"] -= 1
                raise SslError("injected constructor failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sim_mod.SslServer, "__init__", flaky)
        result = sim.run(RequestWorkload.fixed(1024), 5, concurrency=2)
        assert result.failures == 2
        assert result.requests_completed == 3

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_handshake_failure_counts_at_every_concurrency(
            self, identity512, concurrency):
        """A handshake that dies mid-flight (no common cipher suite) is
        a counted failure, never an exception escaping run() -- at
        concurrency 1 exactly as above it."""
        from repro.ssl.ciphersuites import AES128_SHA, RC4_MD5

        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True,
                                 suite=AES128_SHA, client_suites=(RC4_MD5,))
        result = sim.run(RequestWorkload.fixed(1024), 3,
                         concurrency=concurrency)
        assert result.failures == 3
        assert result.requests_completed == 0


class TestKeepAlive:
    @pytest.fixture(scope="class")
    def identities(self, identity512):
        return identity512

    def test_keepalive_amortizes_handshake(self, identities):
        key, cert = identities
        one = WebServerSimulator(key=key, cert=cert, use_crt=True).run(
            RequestWorkload.fixed(2048), 4, requests_per_connection=1)
        four = WebServerSimulator(key=key, cert=cert, use_crt=True).run(
            RequestWorkload.fixed(2048), 4, requests_per_connection=4)
        assert one.requests_completed == four.requests_completed == 4
        assert four.cycles_per_request() < 0.5 * one.cycles_per_request()

    def test_partial_final_batch(self, identities):
        key, cert = identities
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True)
        result = sim.run(RequestWorkload.fixed(1024), 5,
                         requests_per_connection=2)
        assert result.requests_completed == 5  # 2 + 2 + 1

    def test_keepalive_shifts_module_shares(self, identities):
        """More bulk per handshake: crypto share of *private* rises."""
        key, cert = identities
        one = WebServerSimulator(key=key, cert=cert, use_crt=True).run(
            RequestWorkload.fixed(4096), 3, requests_per_connection=1)
        many = WebServerSimulator(key=key, cert=cert, use_crt=True).run(
            RequestWorkload.fixed(4096), 3, requests_per_connection=3)
        assert many.crypto_category_shares()["private"] > \
            one.crypto_category_shares()["private"]

    def test_validation(self, identities):
        key, cert = identities
        sim = WebServerSimulator(key=key, cert=cert)
        with pytest.raises(ValueError):
            sim.run(RequestWorkload.fixed(1024), 1,
                    requests_per_connection=0)


class TestPhaseBreakdown:
    def test_small_requests_are_handshake_bound(self, identity512):
        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True)
        result = sim.run(RequestWorkload.fixed(1024), 2)
        phases = result.phase_breakdown()
        assert phases["handshake"] > phases["bulk"]
        assert sum(phases.values()) == pytest.approx(
            result.profiler.total_cycles(), rel=0.01)

    def test_large_keepalive_shifts_to_bulk(self, identity512):
        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert, use_crt=True)
        result = sim.run(RequestWorkload.fixed(16384), 4,
                         requests_per_connection=4)
        phases = result.phase_breakdown()
        assert phases["bulk"] > phases["handshake"]

    def test_empty_result(self, identity512):
        key, cert = identity512
        sim = WebServerSimulator(key=key, cert=cert)
        from repro import perf as perf_mod
        from repro.webserver.simulator import SimulationResult
        empty = SimulationResult(profiler=perf_mod.Profiler())
        assert empty.cycles_per_request() == 0.0
        assert sum(empty.phase_breakdown().values()) == 0.0
