"""Re-pin the modeled digests in ``digests.json``.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each campaign once at the pinned default seed and records the
digest of its modeled signature.  Re-pin only after an intentional
change to modeled output (one that also re-records ``baselines/``).
"""

import json
import sys
from pathlib import Path

import campaigns
from harness import timed_run

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def main() -> int:
    pinned = json.loads(DIGESTS.read_text())
    seed = pinned["default_seed"]
    for name, cls in campaigns.CAMPAIGNS.items():
        camp = cls()
        rep = timed_run(camp, camp.build(camp.keys()), camp.stream(seed))
        if rep["problems"]:
            print(f"{name}: {rep['problems']}", file=sys.stderr)
            return 1
        pinned[name] = rep["digest"]
        print(f"{name}: {rep['digest']}")
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
