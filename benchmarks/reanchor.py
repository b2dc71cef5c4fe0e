"""The per-call figures of the ROADMAP baseline, measured again.

Each case times one public function on seeded inputs, untraced, and prints
its median per call beside the value the ROADMAP recorded (single runs of
CPython 3.11.7, so rough).  Tracing inflates per-call times, so these come
from plain calls rather than from the traced run.
"""
from __future__ import annotations

import random
import statistics
import time

import workloads
from k2sym import arith, funcfield, k2q, quadforms, regnum


def _weil_inputs(rng, q, n=40):
    F = arith.field(q)
    return [(workloads.rand_ratfunc(rng, F, rng.randint(0, 5), rng.randint(0, 5)),
             workloads.rand_ratfunc(rng, F, rng.randint(0, 5), rng.randint(0, 5))) for _ in range(n)]


def _linear(root):
    return regnum.poly_z([regnum.gauss(-root[0], -root[1]), 1])


def _loop_inputs(rng, n=20):
    """(f, g, loop): f = c (z - a)(z - b)/(z - e) and g alike on six distinct
    pool points, the loop around a at half the distance to the nearest
    other point, as residue_check places it."""
    out = []
    for _ in range(n):
        pts = rng.sample(workloads.RESIDUE_POOL, 6)
        f, g = (arith.RatFunc(regnum.poly_z([rng.choice((1, 2, -1))]) * _linear(a) * _linear(b), _linear(e))
                for a, b, e in (pts[:3], pts[3:]))
        center = complex(*map(float, pts[0]))
        radius = min(abs(complex(*map(float, p)) - center) for p in pts[1:]) / 2
        out.append((f, g, regnum.Loop(center, radius)))
    return out


def _time(fn, inputs):
    times = []
    for args in inputs:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    rng = random.Random("reanchor")
    for q in (4, 5, 9):
        arith.field(q)
    arith.primes_below(1 << 10)
    hilbert_inputs = [(workloads.rand_rational(rng, 999_999), workloads.rand_rational(rng, 999_999))
                      for _ in range(200)]
    forms = [(quadforms.DiagForm.of(*(rng.choice((1, -1)) * rng.randint(1, 50) for _ in range(6))),)
             for _ in range(50)]
    loops = _loop_inputs(rng)
    samples = statistics.median(regnum.loop_integral(*args).samples for args in loops)
    cases = (
        ("weil_check q=4, degree <= 5 pairs", "12 ms", _time(funcfield.weil_check, _weil_inputs(rng, 4))),
        ("weil_check q=5, degree <= 5 pairs", "1.7-3.3 ms (q=2,3,5,7)", _time(funcfield.weil_check, _weil_inputs(rng, 5))),
        ("weil_check q=9, degree <= 5 pairs", "27 ms", _time(funcfield.weil_check, _weil_inputs(rng, 9))),
        ("hilbert_reciprocity, 6-digit parts", "0.7 ms", _time(k2q.hilbert_reciprocity, hilbert_inputs)),
        ("invariants, rank 6, entries <= 50", "6 ms", _time(quadforms.invariants, forms)),
        (f"loop_integral, median {samples:g} samples", "34 ms (256 samples)", _time(regnum.loop_integral, loops)),
    )
    print("ROADMAP re-anchor figures, median per call:")
    print(f"  {'case':40s} {'now ms':>10s}   re-anchor")
    for label, then, now in cases:
        print(f"  {label:40s} {now:10.3f}   {then}")
    return 0
