"""Shared fixtures for the experiment benchmarks.

Each ``bench_*.py`` module regenerates one table or figure of the paper
(see DESIGN.md's experiment index).  Benchmarks print their reproduction
table and also write it to ``benchmarks/out/<experiment>.txt`` so the
artifacts survive pytest's output capture; EXPERIMENTS.md is written from
those artifacts.
"""

from __future__ import annotations

import copy
import pathlib

import pytest

from repro import perf
from repro.crypto import rsa
from repro.crypto.rand import PseudoRandom
from repro.ssl.x509 import make_self_signed

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(autouse=True)
def isolated_profiler():
    """Start every benchmark as if it ran alone: its charges go to a
    private profiler, never the default one, and the process-global
    one-shot error-string charge (``ERR_load_BN_strings``) is re-armed,
    so a table does not depend on which bench files share the session."""
    rsa.reset_error_tables()
    with perf.activate(perf.Profiler()) as profiler:
        yield profiler


@pytest.fixture(scope="session")
def _paper_identity():
    """The identity :func:`paper_key` copies, generated once per session."""
    key = rsa.generate_key(1024, rng=PseudoRandom(b"paper-identity"))
    cert = make_self_signed("CN=paper-server", key)
    return key, cert


@pytest.fixture()
def paper_key(_paper_identity):
    """The paper's server identity: a 1024-bit RSA key + certificate.

    Every benchmark gets a private copy, the key it would get if run
    alone: runs advance the key's blinding state, build its Montgomery
    contexts and switch ``use_crt``, which would otherwise carry over
    to the next benchmark.
    """
    return copy.deepcopy(_paper_identity)


@pytest.fixture()
def emit(request):
    """Print a report block and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(text: str, name: str | None = None) -> None:
        stem = name or request.node.name
        path = OUT_DIR / f"{stem}.txt"
        path.write_text(text)
        print()
        print(text, end="")

    return _emit


def fmt_pct(x: float) -> str:
    return f"{100.0 * x:6.2f}%"
