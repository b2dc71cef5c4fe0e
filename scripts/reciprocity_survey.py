#!/usr/bin/env python3
"""Survey the product formula over Q on random inputs and tabulate how the
local factors of {p, q} distribute for small odd primes."""
import argparse
import random
from collections import Counter
from fractions import Fraction

from k2sym.arith import primes_below
from k2sym.k2q import hilbert_reciprocity, quadratic_reciprocity


# Numerators and denominators of the random pairs are drawn from 1..BOUND.
BOUND = 10**6


def random_product_check(trials: int, seed: int) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        x = Fraction(rng.randint(1, BOUND) * rng.choice([1, -1]), rng.randint(1, BOUND))
        y = Fraction(rng.randint(1, BOUND) * rng.choice([1, -1]), rng.randint(1, BOUND))
        if hilbert_reciprocity(x, y).product != 1:
            violations += 1
            print(f"  product formula FAILED at x={x}, y={y}")
    return violations


def sign_pattern_table(prime_bound: int) -> Counter:
    patterns = Counter()
    odd = [p for p in primes_below(prime_bound) if p > 2]
    for p in odd:
        for q in odd:
            if p >= q:
                continue
            rec = quadratic_reciprocity(p, q)
            patterns[(rec.legendre_p_q, rec.legendre_q_p)] += 1
    return patterns


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prime-bound", type=int, default=100)
    args = ap.parse_args()

    print(f"checking the product formula on {args.trials} random pairs ...")
    bad = random_product_check(args.trials, args.seed)
    print(f"  violations: {bad}")

    print(f"\nlegendre sign patterns for unordered odd prime pairs below {args.prime_bound}:")
    table = sign_pattern_table(args.prime_bound)
    total = sum(table.values())
    for (a, b), n in sorted(table.items()):
        print(f"  ({a:+d}, {b:+d}): {n:5d}  ({n / total:.1%})")


if __name__ == "__main__":
    main()
