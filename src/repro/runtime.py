"""Host-execution configuration: the fast-path switch.

The reproduction separates two concerns that real profiled code fuses:

* **modeled cycles** -- every instrumented routine *charges* the paper's
  per-word/per-block instruction mixes into :mod:`repro.perf`, producing
  the Tables 1-12 numbers analytically;
* **host compute** -- the arithmetic the routine actually performs on this
  machine to produce protocol-visible bytes.

Because the charges are batch-computed from operand sizes (never from the
host loop shape), the host compute can be swapped for much faster
native-int implementations without perturbing a single modeled cycle.
This module holds the process-wide switch selecting between the two
backends:

* **fast path** (default): word arrays pack into Python ints and whole
  operands multiply/reduce in one big-int operation; MD5 and SHA-1 hash
  with ``hashlib``, charged from byte counts (a hash context keeps the
  backend it was built on); symmetric ciphers run flattened cores.
* **faithful path** (``REPRO_FASTPATH=0`` in the environment, or
  :func:`set_fastpath` / :func:`fastpath` at runtime): the original
  word-by-word reference loops execute, mirroring the profiled OpenSSL
  source structure.

Both backends are bit-identical in outputs *and* in charged cycles --
enforced by ``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_FALSEY = ("0", "false", "off", "no")

_fastpath: bool = os.environ.get("REPRO_FASTPATH", "1").lower() not in _FALSEY


def fastpath_enabled() -> bool:
    """True when the native-int/flattened host backend is selected."""
    return _fastpath


def set_fastpath(enabled: bool) -> bool:
    """Select the host backend; returns the previous setting."""
    global _fastpath
    previous = _fastpath
    _fastpath = bool(enabled)
    return previous


@contextmanager
def fastpath(enabled: bool) -> Iterator[None]:
    """Temporarily select a host backend (tests compare the two)."""
    previous = set_fastpath(enabled)
    try:
        yield
    finally:
        set_fastpath(previous)
