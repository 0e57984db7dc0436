"""Timed repetitions of one campaign and their modeled-output checks.

Used by ``episode.py`` (one measured episode per fresh interpreter) and
``pin.py``.  Importing it imports the library.
"""

import gc
import resource
import time
from typing import List

import campaigns
from reference import SpeedProbe
from repro import perf
from repro.crypto import rsa
from repro.perf import Profiler
from spans import LAYERS, Tracer


def timed_run(camp: campaigns.Campaign, built: campaigns.Built, stream,
              tracer=None, full: bool = True) -> dict:
    """One timed ``run()`` call plus its modeled-output checks: the
    identities, the counters' fingerprint and, when ``full``, the digest
    of the whole modeled signature.  An untraced call runs under a speed
    probe and also reports its reference seconds."""
    lookups = [0]
    rsa.reset_error_tables()
    gc.collect()
    probe = None if tracer else SpeedProbe()
    with campaigns.counting_lookups(lookups), perf.activate(Profiler()), \
            (tracer or probe):
        start = time.perf_counter()
        result = camp.run(built, stream)
        seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = camp.outcome(built, result)
    return {"seconds": seconds - (probe.spent if probe else 0.0),
            "ref_seconds": (probe.reference_seconds(seconds) if probe
                            else None),
            "rss_mb": rss_mb, "outcome": out,
            "fingerprint": camp.fingerprint(out),
            "digest": camp.digest(result, out) if full else None,
            "problems": campaigns.identity_problems(out, lookups[0])}


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_metrics(tracer: Tracer, traced_seconds: float,
                  outcomes: List[campaigns.Outcome]) -> dict:
    """Per-offered-request layer readings of the traced repetitions, and
    traffic ratios over their pooled counters."""
    def total(name: str) -> int:
        return sum(getattr(out, name) for out in outcomes)

    offered = total("offered")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.layer_calls(layer) / offered
        metrics[f"{layer}.self_ms"] = (1e3 * tracer.layer_self(layer)
                                       / offered)
    metrics["side.server.incl_ms"] = (1e3 * tracer.outer_time("ssl.server")
                                      / offered)
    metrics["side.client.incl_ms"] = (1e3 * tracer.outer_time("ssl.client")
                                      / offered)
    metrics["unattributed_ms"] = (1e3 * (traced_seconds
                                         - tracer.covered_time()) / offered)
    metrics["resumed_share"] = _ratio(total("resumed"), total("handshakes"))
    hits = total("cache_hits")
    metrics["ssl.session.hit_ratio"] = _ratio(hits,
                                              hits + total("cache_misses"))
    accepted = total("tickets_accepted")
    metrics["ssl.ticket.accept_ratio"] = _ratio(
        accepted, accepted + total("tickets_rejected"))
    metrics["crypto.batch_rsa.ops_per_flush"] = _ratio(total("batched_ops"),
                                                       total("flushes"))
    metrics["webserver.overload.admit_ratio"] = _ratio(
        total("admitted_connections"), total("offered_connections"),
        empty=1.0)
    return metrics


def _summary(rep: dict) -> dict:
    return {"stream": rep["stream"], "seconds": rep["seconds"],
            "ref_seconds": rep["ref_seconds"],
            "offered": rep["outcome"].offered,
            "failed": rep["outcome"].failed,
            "fingerprint": rep["fingerprint"], "digest": rep["digest"],
            "problems": rep["problems"]}


def measure(workload: str, seed: int, first_stream: int, budget: float,
            trace: bool, started: float, imported: float,
            setup_probe: SpeedProbe) -> dict:
    """Set the campaign up, then time repetitions over successive
    streams until about ``budget`` host seconds of ``run()`` are spent.
    ``started``/``imported`` are the interpreter's start and post-import
    clock readings; ``setup_probe`` has sampled host speed since the
    start."""
    camp = campaigns.CAMPAIGNS[workload]()
    t0 = time.perf_counter()
    keys = camp.keys()
    t1 = time.perf_counter()
    stream = camp.stream(seed, first_stream)
    t2 = time.perf_counter()
    built = camp.build(keys)
    t3 = time.perf_counter()
    setup_probe.stop()
    setup = {"imports_s": imported - started, "keys_s": t1 - t0,
             "inputs_s": t2 - t1, "build_s": t3 - t2,
             "total_s": t3 - started - setup_probe.spent,
             "ref_s": setup_probe.reference_seconds(t3 - started)}

    tracer = Tracer() if trace else None
    plain, traced = [], []
    measured = 0.0
    index = first_stream
    while True:
        if stream is None:
            stream = camp.stream(seed, index)
        # The full digest costs ~0.5-1.5 s: stream 0 only, the one whose
        # digest is pinned at the default seed.
        full = index == 0
        rep = timed_run(camp, built or camp.build(keys), stream, full=full)
        built = None
        plain.append(dict(rep, stream=index))
        measured += rep["seconds"]
        if trace:
            rep = timed_run(camp, camp.build(keys), stream, tracer, full=full)
            traced.append(dict(rep, stream=index))
            measured += rep["seconds"]
        stream = None
        index += 1
        if measured + 0.5 * rep["seconds"] >= budget:
            break

    result = {"setup": setup,
              "reps": [_summary(r) for r in plain + traced],
              # Peak RSS when the first run() returned: a fixed workload.
              "rss_mb": plain[0]["rss_mb"]}
    if trace:
        traced_s = sum(r["seconds"] for r in traced)
        metrics = layer_metrics(tracer, traced_s,
                                [r["outcome"] for r in traced])
        metrics["setup.keys_s"] = setup["keys_s"]
        metrics["setup.inputs_s"] = setup["inputs_s"]
        metrics["trace.overhead"] = (traced_s
                                     / sum(r["seconds"] for r in plain) - 1)
        result["trace"] = {"metrics": metrics, "edges": tracer.edges()}
    return result
