#!/usr/bin/env python3
"""Fingerprint the output of the benchmark's decks, through the CLI or the library.

For each workload and seed, runs one deck of benchmarks/workloads.py's
stream and the oracle check of every call.  A cli-mix deck is 100 calls of
cli.main, in process, each recorded as (kind, exit code, stdout); a
q-symbols, ff-prime or ff-prime-power deck calls the library (reciprocity,
lift round trips, conics and invariants over Q; weil_check and lift_ff
round trips over F_q(T)), each recorded as (kind, repr of the result), and
the reprs of its results are deterministic.  Prints, per workload, one
sha256 per operation kind and one over all calls, each taken over the
records in deck order, then every failing check.  Two trees whose overall
digests agree gave byte-identical results.

    python3 scripts/cli_digest.py --seeds 0 1 2 3 4 5
    python3 scripts/cli_digest.py --workload q-symbols ff-prime ff-prime-power --seeds 0 1 2 3 4 5

The library and the decks are imported from the tree this script sits in.
Exits 1 when a check fails.
"""
import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402

DIGESTED = ("cli-mix", "q-symbols", "ff-prime", "ff-prime-power")


def _record(kind: str, *fields) -> bytes:
    return "".join(f"{x}\0" for x in (kind, *fields)).encode()


def _digest(workload: str, seeds, failures: list) -> None:
    overall = hashlib.sha256()
    per_kind, counts = {}, {}
    for seed in seeds:
        for i, op in enumerate(workloads.Stream(workload, seed).deck()):
            out = op.call()
            record = _record(op.kind, *out) if workload == "cli-mix" else _record(op.kind, repr(out))
            overall.update(record)
            per_kind.setdefault(op.kind, hashlib.sha256()).update(record)
            counts[op.kind] = counts.get(op.kind, 0) + 1
            reason = op.check(out)
            if reason is not None:
                failures.append(f"{workload} seed {seed} op {i} ({op.kind}): {reason}")

    print(f"workload {workload}")
    for kind in sorted(per_kind):
        print(f"{per_kind[kind].hexdigest()}  {counts[kind]:4d}  {kind}")
    print(f"{overall.hexdigest()}  {sum(counts.values()):4d}  overall")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--workload", nargs="+", choices=DIGESTED, default=["cli-mix"])
    args = ap.parse_args()

    failures = []
    for workload in args.workload:
        _digest(workload, args.seeds, failures)
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
