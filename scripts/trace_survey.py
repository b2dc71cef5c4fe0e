#!/usr/bin/env python3
"""Enumerate elliptic curves over small prime fields, histogram their
Frobenius traces, and confirm the degree identity deg(1 - q pi) against the
zeta special value for every curve."""
import argparse
from collections import Counter

from k2sym.zeta import CurveFq, l_polynomial, tate_identity


def survey(p: int) -> Counter:
    traces = Counter()
    failures = 0
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = CurveFq.elliptic(p, a, b)
            traces[l_polynomial(c).trace] += 1
            if not tate_identity(c).holds:
                failures += 1
    assert failures == 0, f"identity failed {failures} times at p={p}"
    return traces


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="*", default=[5, 7, 11, 13])
    args = ap.parse_args()

    for p in args.primes:
        traces = survey(p)
        total = sum(traces.values())
        print(f"p = {p}: {total} curves, identity holds for all")
        width = max(traces.values())
        for t in sorted(traces):
            bar = "#" * (40 * traces[t] // width)
            print(f"  a = {t:+3d}: {traces[t]:3d} {bar}")
        print()


if __name__ == "__main__":
    main()
