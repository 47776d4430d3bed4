#!/usr/bin/env python3
"""Regenerate bench/reference.json from the framelab sources in this checkout.

    python3 bench/capture_reference.py

For every workload and size it records the summary numbers of the warm-up
op (seed REFERENCE_SEED), the mean and standard deviation of each checked
statistic over STAT_OPS ops with seeds derived from CAPTURE_SEED, and for
rate-loss the whole-dB table the ops are compared with.  Capture only from a
commit whose outputs are trusted: later runs are judged against it.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, WORK_ROOT, import_framelab, op_seed
from workloads import REFERENCE_SEED, WORKLOADS, RateLossP02

CAPTURE_SEED = 1_000_003
STAT_OPS = 30


def capture(workload, workdir):
    cli = import_framelab().cli
    out = str(Path(workdir) / "out.csv")

    def summary(argv):
        rc = cli.main(argv)
        if rc != 0:
            sys.exit(f"error: {' '.join(argv)} exited {rc}")
        return workload.summarize(out)[1]

    ref = {"warmup": summary(workload.argv(REFERENCE_SEED, out))}
    samples = [summary(workload.argv(op_seed(CAPTURE_SEED, i), out))
               for i in range(STAT_OPS)]
    ref["stats"] = {key: [statistics.fmean(s[key] for s in samples),
                          statistics.stdev(s[key] for s in samples)]
                    for key in workload.statistics}
    if isinstance(workload, RateLossP02):
        table = summary(workload.argv(0, out, grid=workload.table_grid[workload.size]))
        ref["table"] = {k: v for k, v in table.items() if k != "points"}
    return ref


def main():
    WORK_ROOT.mkdir(exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        for size in ("full", "tiny"):
            out[size] = {}
            for name, cls in WORKLOADS.items():
                print(f"capturing {size} {name}", file=sys.stderr)
                out[size][name] = capture(cls(size), workdir)
    WORK_ROOT.rmdir()
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
