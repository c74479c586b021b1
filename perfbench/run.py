"""The repository benchmark: the query server measured end to end.

Run from the repository root::

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 45 --trace 0

Workloads: ``tpch_power``, ``adhoc_compile`` (see ``workloads.py``).
The benchmark spawns ``python -m repro.server`` from ``src/`` (pure
Python, nothing to build), drives it over TCP with a closed-loop
client, checks every answer against the NumPy reference in
``reference.py``, and prints one JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run:
``qps``, ``latency_p50_ms``, ``latency_p95_ms``, ``geomean_ms``,
``setup_s`` (median of several server start-ups, each until the
warm-up pass has run every fixed template once) and ``server_rss_mb``
(peak RSS). ``error_rate`` is printed on the lines above the result
and equals ``failed / attempted`` of the result line. ``--trace 1``
runs an untraced and then a traced server for half the time each and
reports the per-layer metrics of ``layers.PER_LAYER``.

Dataset generation, the reference answers and a read of the dataset
files into the page cache all happen before any timed window. The
dataset cache lives under ``.perfbench/`` in the working directory, as
do the full JSON reports, server logs and span dumps.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "server" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the servers started so far are
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(root / "src")]
    os.environ["REPRO_CACHE_DIR"] = str(root / ".perfbench" / "datasets")
    import runner

    return runner.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
