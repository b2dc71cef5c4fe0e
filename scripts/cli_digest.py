#!/usr/bin/env python3
"""Fingerprint the CLI's output on the benchmark's cli-mix decks.

For each seed, runs one deck of benchmarks/workloads.py's cli-mix stream
(100 calls of cli.main, in process) and the oracle check of every call.
Prints one sha256 per operation kind and one over all calls, each taken
over (kind, exit code, stdout) in deck order, then every failing check.
Two trees whose overall digests agree printed byte-identical reports.

    python3 scripts/cli_digest.py --seeds 0 1 2 3 4 5

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


def _record(kind: str, code, stdout: str) -> bytes:
    return f"{kind}\0{code}\0{stdout}\0".encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()

    overall = hashlib.sha256()
    per_kind, counts = {}, {}
    failures = []
    for seed in args.seeds:
        for i, op in enumerate(workloads.Stream("cli-mix", seed).deck()):
            code, stdout = out = op.call()
            record = _record(op.kind, code, stdout)
            overall.update(record)
            per_kind.setdefault(op.kind, hashlib.sha256()).update(record)
            counts[op.kind] = counts.get(op.kind, 0) + 1
            reason = op.check(out)
            if reason is not None:
                failures.append(f"seed {seed} op {i} ({op.kind}): {reason}")

    for kind in sorted(per_kind):
        print(f"{per_kind[kind].hexdigest()}  {counts[kind]:4d}  {kind}")
    print(f"{overall.hexdigest()}  {sum(counts.values()):4d}  overall")
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
