"""Self-tests of the benchmark, run from the repository root:

    python3 -m pytest perfbench/tests -q

They import the benchmark's modules and the library from ``src``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def small_full_handshake():
    """A two-request ``full_handshake`` campaign and its keys."""
    import campaigns
    camp = campaigns.FullHandshake(requests=2)
    return camp, camp.keys()
