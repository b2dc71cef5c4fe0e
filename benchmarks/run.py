"""Closed-loop benchmark of k2sym: one client in one process sends its next
operation only after the previous one returns.  No threads run and no
processes are started while operations are timed.

    python3 benchmarks/run.py --workload q-symbols --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --report        # every workload, traced and not
    python3 benchmarks/run.py --reanchor      # the ROADMAP baseline figures

Run from the repository root; the library is imported from ./src.
Workloads (BENCHMARK.json says why each exists):

    q-symbols       symbols, reciprocity, lifts and forms over Q
    ff-prime        Weil reciprocity and lift round trips over F_2..F_7
    ff-prime-power  the same over F_4, F_8, F_9, F_25
    cli-mix         cli.main over all 24 subcommands, 5 % malformed argv

With --trace 0 the run times whole decks (workloads.py) until the timed
operations have taken --seconds, after one untimed warm deck, and reports
the end-to-end metrics.  setup_s is the median over seven fresh
interpreters, three started before the timed loop and four after, of the
time from spawning one to its "ready" after importing k2sym and warming
the workload's fields and sieve.

Times are reported at reference speed.  A shared machine runs the same
Python code up to a third slower for tens of seconds at a time, so the run
also times a fixed piece of interpreter work that never calls k2sym (the
reference kernel) between operations, about 5 % of the busy time, and
before each set-up interpreter.  Each operation's time is multiplied by
REF_KERNEL_S over the mean of the kernel timings around it (each set-up
time by the median of those before it), which cancels most of the
machine's speed and leaves the program's.  The unscaled figures are
printed too.

With --trace 1 the run executes a fixed number of decks (set by --seconds)
with spans around every public k2sym function, then the same decks again
untraced, and reports the per-layer metrics of tracer.py, self times at
reference speed; the ratio of the two busy times is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations whose oracle fails are
listed above it, and so are the known defects, which are probed outside
the timed stream.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_BEFORE, SETUP_AFTER = 3, 4

# Typical reference-kernel time on the machine the benchmark was written on
# (Intel Xeon at 2.0 GHz, CPython 3.11.7); it only sets the scale.
REF_KERNEL_S = 0.00016
KERNEL_SHARE = 0.05
KERNEL_WINDOW = 25

# Traced decks per requested second, chosen so the traced pass takes about
# half of --seconds on the commit that introduced the benchmark.
TRACE_DECKS_PER_S = {"q-symbols": 12, "ff-prime": 0.8, "ff-prime-power": 0.12, "cli-mix": 0.22}

READY = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.warm_up(sys.argv[3]); print('ready', flush=True)"
)


def load_library():
    """Import k2sym from ./src of this checkout and nowhere else."""
    if not (SRC / "k2sym" / "__init__.py").is_file():
        sys.exit(f"benchmark: no k2sym sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import k2sym

    if Path(k2sym.__file__).resolve().parent != SRC / "k2sym":
        sys.exit(f"benchmark: imported k2sym from {k2sym.__file__}, not {SRC}")


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter work of k2sym's kind (trial
    division, Fraction powers, residues of a polynomial) that never calls
    k2sym: the least of three back-to-back timings, so that neither the
    caches the previous operation left nor a garbage collection weighs on it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for n in (6999881, 654321, 999999, 123456):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    n //= d
                d += 1
        Fraction(12, 35) ** 3 * Fraction(50, 7) ** -2
        sum(1 for t in range(13) if (t**3 + 2 * t + 1) % 13 == 0)
        best = min(best, time.perf_counter() - start)
    return best


def setup_time(workload: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its "ready", and the
    median of five reference kernels timed just before the spawn."""
    kernel = statistics.median(reference_kernel() for _ in range(5))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY, str(SRC), str(BENCH), workload],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up interpreter failed: exit {code}, said {line!r}")
    return ready - start, kernel


class Run:
    """Latencies and oracle verdicts of the operations executed so far,
    with reference-kernel timings interleaved."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.families: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.kernel: list[float] = []
        self.kernel_at: list[int] = []   # len(self.kernel) when each operation ended
        self.busy = 0.0
        self._kernel_busy = 0.0

    def execute(self, op) -> None:
        tracer = self.tracer
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.call()
            reason = None
        except Exception as exc:  # an escaping exception is a failed operation
            out, reason = None, f"unexpected {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # a report the oracle cannot read
                reason = f"oracle could not read the result: {type(exc).__name__}: {exc}"
        self.latencies.append(elapsed)
        self.kinds.append(op.kind)
        self.families.append(op.family)
        if reason is not None:
            self.failures.append((op.kind, reason))
        self.busy += elapsed
        self.kernel_at.append(len(self.kernel))
        while self._kernel_busy < KERNEL_SHARE * self.busy:
            start = time.perf_counter()
            self.kernel.append(reference_kernel())
            self._kernel_busy += time.perf_counter() - start

    def run_deck(self, deck) -> None:
        for op in deck:
            self.execute(op)

    def at_reference_speed(self) -> list[float]:
        """Each latency times REF_KERNEL_S over the mean of the kernel
        timings around it, KERNEL_WINDOW on either side."""
        k = self.kernel
        local = [statistics.fmean(k[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW] or k[-1:])
                 for i in range(len(k) + 1)]
        return [lat * REF_KERNEL_S / local[i] for lat, i in zip(self.latencies, self.kernel_at)]

    @property
    def scale(self) -> float:
        """Busy time at reference speed over busy time."""
        return sum(self.at_reference_speed()) / self.busy


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def print_kind_table(run: Run) -> None:
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(run.kinds, run.at_reference_speed()):
        by_kind.setdefault(kind, []).append(lat)
    print("latency by kind at reference speed: kind, count, median ms, max ms")
    for kind in sorted(by_kind):
        lats = by_kind[kind]
        print(f"  {kind:32s} {len(lats):6d} {statistics.median(lats) * 1e3:10.3f} {max(lats) * 1e3:10.3f}")


def print_failures(run: Run) -> None:
    print(f"oracle failures: {len(run.failures)} of {len(run.latencies)}")
    for kind, reason in run.failures[:20]:
        print(f"  FAILED {kind}: {reason}")


def print_known_open(workload, slow=False) -> None:
    import workloads

    for item in workloads.known_open(workload, slow):
        print(f"known open [{item['status']}] {item['workload']}: {item['case']} -- {item['detail']}"
              f" (awaits: {item['awaits']})")


def untraced(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    setup = [setup_time(workload) for _ in range(SETUP_BEFORE)]
    workloads.warm_up(workload)
    stream = workloads.Stream(workload, seed)
    Run().run_deck(stream.deck())   # warm deck, not timed
    gc.collect()
    run, decks = Run(), 0
    while run.busy < seconds:
        run.run_deck(stream.deck())
        decks += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [setup_time(workload) for _ in range(SETUP_AFTER)]
    setup_raw = statistics.median(t for t, _ in setup)
    setup_s = statistics.median(t * REF_KERNEL_S / k for t, k in setup)
    n, scaled = len(run.latencies), run.at_reference_speed()
    p95 = percentile(scaled, 95)
    metrics = {
        "ops_per_s": {"value": n / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "op_p95_ms": {"value": p95 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    print(f"workload {workload} seed {seed}: {n} operations in {decks} decks, {run.busy:.2f} s busy, "
          f"{sum(1 for lat in scaled if lat > p95)} samples beyond p95; {len(run.kernel)} reference "
          f"kernel timings, median {statistics.median(run.kernel) * 1e3:.4f} ms, busy time scaled by "
          f"{sum(scaled) / run.busy:.4f}")
    print(f"unscaled: ops_per_s {n / run.busy:.6g}, op_p50_ms {statistics.median(run.latencies) * 1e3:.6g}, "
          f"op_p95_ms {percentile(run.latencies, 95) * 1e3:.6g}, setup_s {setup_raw:.6g}")
    print_kind_table(run)
    print_failures(run)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {len(run.failures) / n:.6g} (failed / attempted, {n} attempted)")
    if workload == "cli-mix":
        print(f"loop_err_max = {max(stream.loop_errors):.3g} over {len(stream.loop_errors)} residue checks")
    print_known_open(workload)
    return {"correct": not run.failures, "attempted": n, "failed": len(run.failures), "metrics": metrics}


def traced(workload: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    import workloads

    workloads.warm_up(workload)
    stream = workloads.Stream(workload, seed)
    Run().run_deck(stream.deck())   # warm deck, not timed
    decks = [stream.deck() for _ in range(max(1, round(seconds * TRACE_DECKS_PER_S[workload])))]
    tracer = tracing.Tracer()
    tracer.install()
    gc.collect()
    run = Run(tracer)
    for deck in decks:
        run.run_deck(deck)
    tracer.uninstall()
    loop_err_max = max(stream.loop_errors, default=0.0)
    gc.collect()
    plain = Run()
    for deck in decks:
        plain.run_deck(deck)
    overhead = (run.busy * run.scale) / (plain.busy * plain.scale)
    values = tracing.layer_values(tracer, len(run.latencies), loop_err_max, overhead, run.scale)
    print(f"workload {workload} seed {seed} traced: {len(run.latencies)} operations in {len(decks)} decks, "
          f"traced {run.busy:.2f} s, untraced {plain.busy:.2f} s, overhead {overhead:.2f}x at reference speed")
    for metric in tracing.LAYER_METRICS:
        print(f"  {metric.name:46s} {values[metric.name]:14.6g} {metric.unit:6s} moves {metric.moves}")
    if workload == "cli-mix":
        print("share of untraced busy time by command family:")
        share: dict[str, float] = {}
        for family, lat in zip(plain.families, plain.latencies):
            share[family] = share.get(family, 0.0) + lat
        for family, t in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"  {family:10s} {100 * t / plain.busy:6.2f} %")
    print_failures(run)
    print_known_open(workload)
    failed = len(run.failures)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in tracing.LAYER_METRICS}
    return {"correct": not failed, "attempted": len(run.latencies), "failed": failed, "metrics": metrics}


def report(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh interpreter, then
    all seven end-to-end metrics in one table, the known-open probes and
    the re-anchor figures."""
    import reanchor
    import workloads

    ok = True
    rows: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("known open")))
            if done.returncode != 0 or not lines:
                print(done.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            if trace == 0:
                row = rows.setdefault(workload, dict(result["metrics"]))
                row["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
                for line in lines:
                    if line.startswith("loop_err_max"):
                        row["loop_err_max"] = {"value": float(line.split()[2]), "unit": "1"}
    print("\nend-to-end metrics (times at reference speed):")
    names = ("ops_per_s", "op_p50_ms", "op_p95_ms", "failed_ratio", "setup_s", "peak_rss_mb", "loop_err_max")
    print(f"  {'metric':14s}" + "".join(f"{w:>18s}" for w in workloads.WORKLOADS))
    for name in names:
        cells = []
        for w in workloads.WORKLOADS:
            m = rows.get(w, {}).get(name)
            cells.append(f"{m['value']:>12.4g} {m['unit']:>5s}" if m else f"{'-':>18s}")
        print(f"  {name:14s}" + "".join(cells))
    print()
    print_known_open(None, slow=True)
    print()
    reanchor.main()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default 20, 5 with --report)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and print all figures")
    parser.add_argument("--reanchor", action="store_true", help="print the ROADMAP baseline figures")
    args = parser.parse_args(argv)
    load_library()
    if args.report:
        return report(args.seed, args.seconds or 5)
    if args.reanchor:
        import reanchor

        return reanchor.main()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = (traced if args.trace else untraced)(args.workload, args.seed, args.seconds or 20)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
