"""One measured episode of a campaign, run in a fresh interpreter.

    python3 perfbench/episode.py --workload NAME --seed N --first-stream K \\
        --budget S --trace 0|1

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and the
``REPRO_*`` switches removed, so the library runs at its defaults.  The
episode sets the campaign up once (imports, keys, request stream ``K``,
server construction), then times ``run()`` on a freshly built server
for stream ``K``, ``K + 1``, ... until about ``--budget`` host seconds
of ``run()`` are spent.  Streams after the first are generated from
``(seed, stream index)`` outside the timed calls.  Set-up and untraced
calls run under a :class:`~reference.SpeedProbe`.  With ``--trace 1``
each stream is run untraced and then traced; traced calls time each
layer's entry points (:mod:`spans`) and run without the probe.  The
episode prints one JSON object on its last stdout line.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from reference import SpeedProbe  # noqa: E402  (stdlib only)


def main(argv=None) -> int:
    probe = SpeedProbe().start()
    import harness  # imports the library: part of set-up
    imported = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.campaigns.CAMPAIGNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-stream", type=int, default=0)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(harness.measure(
        args.workload, args.seed, args.first_stream, args.budget,
        bool(args.trace), _START, imported, probe)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
