#!/usr/bin/env python3
"""Scan composite n for revealed lower order terms and summarize by family.

Writes the per-n CSV next to a JSON summary; the summary also breaks the
flags down by residue class of n, which is where the interesting structure
lives (the 4M and 6M families with M coprime to 6 behave very differently
from semiprimes).
"""

import argparse
import collections
import json
import time

from malle_lab.theta import SubconvexityModel, scan_cyclic, write_scan_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=20000)
    parser.add_argument("--model", default="soehne",
                        choices=["soehne", "convexity", "lindelof"])
    parser.add_argument("--out", default="scan.csv")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs {args.jobs} must be at least 1")

    started = time.monotonic()
    report = scan_cyclic(args.max, SubconvexityModel(args.model, 1), jobs=args.jobs)
    elapsed = time.monotonic() - started

    write_scan_csv(args.out, report.rows)

    by_case = collections.Counter(r.case for r in report.rows if r.flag_ii)
    mod12 = collections.Counter(r.n % 12 for r in report.rows if r.flag_i)
    summary = report.summary()
    summary["seconds"] = round(elapsed, 2)
    summary["flag_ii_by_case"] = dict(by_case)
    summary["flag_i_by_n_mod_12"] = {str(k): v for k, v in sorted(mod12.items())}
    summary["csv"] = args.out
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
