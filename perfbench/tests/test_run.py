import json
import shutil
import subprocess
import sys
from pathlib import Path

import campaigns
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def _rep(stream, digest=None, fingerprint="f", failed=0, problems=()):
    return {"stream": stream, "seconds": 1.0, "ref_seconds": 1.0,
            "offered": 10, "failed": failed, "fingerprint": fingerprint,
            "digest": digest, "problems": list(problems)}


def test_verdict_accepts_matching_digest():
    episodes = [{"reps": [_rep(0, "good"), _rep(1)]}]
    check = run.verdict("w", 0, episodes, {"w": "good"}, 0)
    assert check["correct"] and check["failed"] == 0
    assert check["attempted"] == 20


def test_perturbed_digest_fails_the_run():
    episodes = [{"reps": [_rep(0, "good"), _rep(1)]}]
    check = run.verdict("w", 0, episodes, {"w": "bad"}, 0)
    assert not check["correct"]
    assert check["failed"] == check["attempted"] == 20
    # At another seed the pin does not apply.
    assert run.verdict("w", 5, episodes, {"w": "bad"}, 0)["correct"]


def test_traced_run_must_match_untraced():
    episodes = [{"reps": [_rep(4, fingerprint="x"),
                          _rep(4, fingerprint="y")]}]
    check = run.verdict("w", 1, episodes, {"w": "bad"}, 0)
    assert not check["correct"] and check["failed"] == 20


def test_broken_identity_fails_its_requests():
    episodes = [{"reps": [_rep(1, problems=["leak"]), _rep(2, failed=1)]}]
    check = run.verdict("w", 1, episodes, {}, 0)
    assert not check["correct"] and check["failed"] == 11


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(campaigns.CAMPAIGNS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units(spans.LAYERS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_handshake",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
