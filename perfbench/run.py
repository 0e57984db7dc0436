"""The repository's benchmark: host speed, memory and set-up of three SSL
campaigns, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: ``full_handshake``,
``bulk_resume`` and ``flash_crowd`` (see ``campaigns.py``).  Each run
starts fresh interpreters (``episode.py``) with ``src`` on the path and
``REPRO_FASTPATH``, ``REPRO_PARALLEL`` and ``REPRO_EVENTS`` removed, so
the library's defaults are what is measured.

``--trace 0`` sets the campaign up :data:`SETUPS` times, one episode
each, splitting ``--seconds`` of timed ``run()`` calls between them;
repetition ``k`` of the run replays request stream ``k`` of the seed.
Times are reference seconds: host seconds rescaled by the host speed a
probe measured during them (``reference.py``).  End-to-end metrics:

* ``sim_req_per_s`` -- offered requests (shed and abandoned included)
  per reference second of ``run()``, over all repetitions;
* ``setup_s`` -- reference seconds from interpreter start to the first
  request (imports, keys, request stream, server construction), median
  over episodes;
* ``peak_rss_mb`` -- peak resident memory when the first ``run()`` of an
  episode returns, median over episodes;
* ``success_frac`` -- share of offered requests not failed.  A run whose
  modeled output fails its checks counts all its requests as failed.

``--trace 1`` runs one episode, each stream untraced and then traced,
and reports, per offered request, each layer's calls and host self
time (``spans.py``), server- and client-side inclusive time, time
covered by no span, the two large parts of set-up, traffic ratios and
the tracing overhead.

Modeled output is checked on every repetition: accounting identities on
any seed, traced and untraced runs of a stream that agree, and at the
default seed stream 0's digest pinned in ``digests.json``.  Earlier
stdout lines carry provenance (command, commit, Python, CPUs, seed) and
the raw samples; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("full_handshake", "bulk_resume", "flash_crowd")
#: Episodes (fresh interpreters, each with its own set-up) per untraced run.
SETUPS = 3
#: Environment switches that select non-default library code paths.
SWITCHES = ("REPRO_FASTPATH", "REPRO_PARALLEL", "REPRO_EVENTS")
#: Set in every episode's environment (besides ``PYTHONPATH=src``).
CHILD_ENV = {"PYTHONHASHSEED": "0"}
#: Seconds an episode may take beyond its budget (set-up, checks).
EPISODE_SLACK = 60.0
#: Seconds a whole run may take, whatever its episodes do.
RUN_LIMIT = 170.0

END_TO_END_UNITS = {"sim_req_per_s": "req/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_frac": "fraction"}


def per_layer_units(layers) -> Dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "count/req"
        units[f"{layer}.self_ms"] = "ms/req"
    units.update({
        "side.server.incl_ms": "ms/req", "side.client.incl_ms": "ms/req",
        "unattributed_ms": "ms/req", "setup.keys_s": "s",
        "setup.inputs_s": "s", "resumed_share": "ratio",
        "ssl.session.hit_ratio": "ratio", "ssl.ticket.accept_ratio": "ratio",
        "crypto.batch_rsa.ops_per_flush": "ops/flush",
        "webserver.overload.admit_ratio": "ratio",
        "trace.overhead": "ratio"})
    return units


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def clean_env(src: Path) -> Dict[str, str]:
    """The episodes' environment: the library from ``src`` at its
    defaults, with a fixed string-hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env.update(CHILD_ENV, PYTHONPATH=str(src))
    return env


def source_digest(src: Path) -> str:
    """SHA-256 over the library's source files: the code identity when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(root: Path, src: Path, args: argparse.Namespace) -> dict:
    return {"command": [Path(sys.executable).name, "perfbench/run.py"]
            + sys.argv[1:],
            "commit": git_commit(root), "src_sha256": source_digest(src),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "env_removed": list(SWITCHES), "env_set": CHILD_ENV,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def episode(root: Path, env: Dict[str, str], workload: str, seed: int,
            first_stream: int, budget: float, trace: bool,
            deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "episode.py"), "--workload", workload,
           "--seed", str(seed), "--first-stream", str(first_stream),
           "--budget", repr(budget), "--trace", str(int(trace))]
    timeout = min(budget + EPISODE_SLACK, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"episode timed out: {exc}") from exc
    if done.returncode != 0:
        raise BenchError(f"episode exited {done.returncode}:\n"
                         f"{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("episode printed nothing")
    return json.loads(lines[-1])


def verdict(workload: str, seed: int, episodes: List[dict],
            pinned: Dict[str, str], default_seed: int) -> dict:
    """Correctness and failure accounting over every repetition.

    Each repetition must satisfy its identities.  Runs of one stream
    (untraced and traced) must agree on the counters' fingerprint and
    the full digest, and at the default seed stream 0's digest must be
    the pinned one.  Wrong modeled output fails every request of the
    run; a repetition that breaks an identity fails all its requests.
    """
    reps = [r for ep in episodes for r in ep["reps"]]
    problems = [p for r in reps for p in r["problems"]]
    streams: Dict[int, List[dict]] = {}
    for r in reps:
        streams.setdefault(r["stream"], []).append(r)
    modeled_ok = True
    for index, group in sorted(streams.items()):
        if (len({r["fingerprint"] for r in group}) > 1
                or len({r["digest"] for r in group if r["digest"]}) > 1):
            modeled_ok = False
            problems.append(f"stream {index}: traced and untraced runs "
                            f"disagree on modeled output")
    if seed == default_seed:
        got = {r["digest"] for r in streams.get(0, []) if r["digest"]}
        if got != {pinned[workload]}:
            modeled_ok = False
            problems.append(f"stream 0 modeled digest {sorted(got)} != "
                            f"pinned {pinned[workload]}")
    attempted = sum(r["offered"] for r in reps)
    failed = sum(r["offered"] if r["problems"] or not modeled_ok
                 else r["failed"] for r in reps)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems}


def end_to_end(episodes: List[dict], attempted: int, failed: int) -> dict:
    reps = [r for ep in episodes for r in ep["reps"]]
    return {
        "sim_req_per_s": (sum(r["offered"] for r in reps)
                          / sum(r["ref_seconds"] for r in reps)),
        "setup_s": statistics.median(ep["setup"]["ref_s"]
                                     for ep in episodes),
        "peak_rss_mb": statistics.median(ep["rss_mb"] for ep in episodes),
        "success_frac": 1.0 - failed / attempted,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src / 'repro'}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    env = clean_env(src)
    print(json.dumps({"provenance": provenance(root, src, args)}),
          flush=True)

    pinned = json.loads((HERE / "digests.json").read_text())
    default_seed = pinned.pop("default_seed")
    try:
        if args.trace:
            episodes = [episode(root, env, args.workload, args.seed, 0,
                                args.seconds, True, deadline)]
        else:
            episodes = []
            left, stream = args.seconds, 0
            for i in range(SETUPS):
                ep = episode(root, env, args.workload, args.seed, stream,
                             left / (SETUPS - i), False, deadline)
                left -= sum(r["seconds"] for r in ep["reps"])
                stream += len(ep["reps"])
                episodes.append(ep)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    check = verdict(args.workload, args.seed, episodes, pinned,
                    default_seed)
    if args.trace:
        values = episodes[0]["trace"]["metrics"]
        units = per_layer_units(LAYERS)
        print(json.dumps({"spans": episodes[0]["trace"]["edges"]}))
    else:
        values = end_to_end(episodes, check["attempted"], check["failed"])
        units = END_TO_END_UNITS
    print(json.dumps({"samples": [{"setup": ep["setup"],
                                   "rss_mb": ep["rss_mb"],
                                   "reps": ep["reps"]} for ep in episodes],
                      "problems": check["problems"]}))
    print(json.dumps({
        "correct": check["correct"], "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
