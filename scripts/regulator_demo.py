#!/usr/bin/env python3
"""Numerically recover logarithms of tame symbols from loop integrals, with
each loop's convergence by dyadic level, and plot (as text) the
single-valued dilogarithm along a circle through i.

    PYTHONPATH=src python3 scripts/regulator_demo.py --steps 24
"""
import argparse
import math
from fractions import Fraction

from k2sym.regnum import Loop, bloch_wigner, gauss, loop_integral, ratfunc_z, residue_check


def residue_demo() -> None:
    # f vanishes at 1 and -2, g has a pole at 1/2; probe all three points
    f = ratfunc_z((-2, 1, 1))            # z^2 + z - 2 = (z - 1)(z + 2)
    g = ratfunc_z((0, 1), (-1, 2))       # 2z / (2z - 1), pole at 1/2
    print("point      integral          log|tame|        difference")
    for pt in (gauss(1), gauss(-2), gauss(Fraction(1, 2))):
        rc = residue_check(f, g, pt)
        print(
            f"{str(pt):10s} {rc.integral:+.12f}  {rc.expected:+.12f}  {rc.difference:.2e}"
            + ("" if rc.holds else "  MISMATCH")
        )
        for samples, estimate, delta in rc.trajectory:
            change = "" if delta is None else f"  |change| {delta:.2e}"
            print(f"    {samples:7d} samples  {estimate:+.12f}{change}")


def dilog_profile(steps: int) -> None:
    print("\nD(e^{i t}) along the unit circle (peak at the hexagonal point):")
    width = 46
    for k in range(1, steps):
        t = math.pi * k / steps
        z = complex(math.cos(t), math.sin(t))
        d = bloch_wigner(z)
        bar = "#" * int(width * d / 1.0149416064096537)  # max of D on |z| = 1
        print(f"  t = {t:5.2f}  D = {d:+.6f}  {bar}")


def loop_demo() -> None:
    print("\nconvergence of the loop integral for the pair (z, 2z) around 0:")
    f, g = ratfunc_z((0, 1)), ratfunc_z((0, 2))
    li = loop_integral(f, g, Loop(0j, 1.0))
    print(f"  value = {li.value:+.12f} after {li.samples} samples")
    print(f"  -log 2 = {-math.log(2):+.12f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=24, help="circle subdivision for the profile")
    args = ap.parse_args()
    residue_demo()
    loop_demo()
    dilog_profile(args.steps)


if __name__ == "__main__":
    main()
