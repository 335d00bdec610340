#!/usr/bin/env python3
"""Record the reference output of every request a workload's pool can
produce, into perfbench/references/<workload>.json.

    python3 perfbench/record.py [workload ...]

Run from the repository root at a commit whose outputs are trusted; the
benchmark compares every later run against these files.  Float references
are cross-checked against exact mode where exact mode is affordable.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from run import ROOT, import_library  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    WORKLOADS,
    all_requests,
    check_optimize,
    long_horizon_pool,
    scaling_pool,
    summarize_optimize,
)

# float requests whose result is also computed exactly as a cross-check
EXACT_CROSS_CHECK = {"bs10", "p20-i0"}


def record(m, name):
    refs = {}
    for req in all_requests(m, name):
        summary = req.summarize(req.call())
        if not req.check(summary, summary):
            raise SystemExit(f"{name}/{req.key}: output fails its own check")
        refs[req.key] = summary
    if name in ("scaling", "long-horizon"):
        cross_check(m, name, refs)
    return refs


def cross_check(m, name, refs):
    pool = scaling_pool(m) if name == "scaling" else long_horizon_pool(m)
    for key, asym in dict((k, a) for k, a, _ in pool).items():
        if key not in EXACT_CROSS_CHECK:
            continue
        exact = summarize_optimize(asym, m.optimize(asym, mode=m.EXACT), False)
        if not check_optimize(refs[key], exact):
            raise SystemExit(f"{name}/{key}: float output disagrees with exact mode")
        print(f"  {key}: float agrees with exact")


def main(argv):
    m = import_library()
    names = argv or list(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        refs = record(m, name)
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(refs, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
        print(f"{name}: {len(refs)} references -> {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
