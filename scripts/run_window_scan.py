#!/usr/bin/env python3
"""Certify the root window over all index pairs up to a bound.

For every pair m < n <= M this checks, with Descartes certificates (exact
Sturm counts where a certificate is inconclusive), that no nonzero real
root of Phi_m - Phi_n lies outside 1/2 < |x| < 2, except the known root of
the pair {2,6} at exactly 2.
"""
import argparse
import sys
import time

from cyclolab.roots import verify_root_window


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-index", type=int, default=120)
    ap.add_argument("--jobs", type=int, default=None)
    args = ap.parse_args()

    t0 = time.time()
    report = verify_root_window(args.max_index, jobs=args.jobs)
    dt = time.time() - t0
    print(f"pairs checked: {report.pairs_checked} in {dt:.1f}s")
    print(f"exception (root 2 for pair {{2,6}}) found: {report.exception_found}")
    if report.violations:
        print("VIOLATIONS:")
        for v in report.violations:
            print("  ", v)
        return 1
    print("window holds: every nonzero real coincidence lies in 1/2 < |x| < 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
