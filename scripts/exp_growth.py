#!/usr/bin/env python3
"""Measure how the minimal counter-example grows with the parameter of the
built-in exponential schema family.

For each n, runs the bounded search once up to the node budget ceiling.
The search ascends by node count and returns a witness of minimal node
count, so its size is the smallest counter-example within the ceiling.
Reports that size and the wall-clock time.
"""

import argparse
import time

from shapegraph import Budget, NotContained, exponential_family, find_counterexample


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=2, help="largest family parameter")
    ap.add_argument("--max-nodes", type=int, default=10, help="node budget ceiling")
    ap.add_argument("--timeout", type=float, default=300.0, help="per-search timeout (s)")
    args = ap.parse_args()

    print(f"{'n':>3} {'nodes':>6} {'seconds':>9}")
    for n in range(1, args.max_n + 1):
        h, k = exponential_family(n)
        start = time.monotonic()
        v = find_counterexample(
            h, k, Budget(max_nodes=args.max_nodes, max_card=1, timeout=args.timeout)
        )
        found = len(v.witness.nodes) if isinstance(v, NotContained) else None
        elapsed = time.monotonic() - start
        print(f"{n:>3} {found if found is not None else '-':>6} {elapsed:>9.2f}")


if __name__ == "__main__":
    main()
