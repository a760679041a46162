"""Per-method timings of perfbench runs.

``perfbench/run.py`` reports ``kpix_per_s`` and ``ms_per_block`` as one
median over all calls of a run, so on a workload with two methods (the
``baselines`` workload runs ``nn`` and ``lin``) both are mixed in one
number.  This script reads the ``summary.json`` each run writes and
prints, per source, workload and method, the median and quartiles of
``recon_s`` (the reconstruction alone) and ``wall_s`` (the whole bench
call) over every call of every untraced (``--trace 0``) run found:

    python scripts/bench_by_method.py                     # .perfbench_out
    python scripts/bench_by_method.py parent-runs change-runs

Each argument is a ``summary.json`` file or a directory searched
recursively for them, and is one source in the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summaries(source: Path) -> list[Path]:
    return [source] if source.is_file() else sorted(source.rglob("summary.json"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sources", nargs="*", type=Path, default=[Path(".perfbench_out")])
    args = ap.parse_args(argv)
    calls: dict[tuple[str, str, str], dict[str, list[float]]] = defaultdict(
        lambda: {"recon_s": [], "wall_s": []}
    )
    for source in args.sources:
        for path in summaries(source):
            summary = json.loads(path.read_text())
            if summary["args"]["trace"]:
                continue
            for call in summary["result"]["calls"]:
                if "recon_s" not in call:  # the call failed before reconstructing
                    continue
                key = (str(source), summary["args"]["workload"], call["method"])
                calls[key]["recon_s"].append(call["recon_s"])
                calls[key]["wall_s"].append(call["wall_s"])
    if not calls:
        print("no untraced summary.json under " + ", ".join(map(str, args.sources)), file=sys.stderr)
        return 1
    width = max(len("source"), *(len(key[0]) for key in calls))
    print(f"{'source':{width}s} {'workload':10s} {'method':8s} {'calls':>5s}  "
          f"{'recon_s ms median [q1, q3]':>30s}  {'wall_s ms median [q1, q3]':>30s}")
    for (source, workload, method), times in calls.items():
        cols = []
        for name in ("recon_s", "wall_s"):
            q1, q2, q3 = (1e3 * v for v in quartiles(times[name]))
            cols.append(f"{q2:10.2f} [{q1:8.2f}, {q3:8.2f}]")
        print(f"{source:{width}s} {workload:10s} {method:8s} {len(times['recon_s']):5d}  "
              f"{cols[0]:>30s}  {cols[1]:>30s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
