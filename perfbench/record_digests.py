#!/usr/bin/env python3
"""Record the output digests that run.py checks at the digest seed.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_digests.py

Each workload is set up and passed twice, so a nondeterministic output is
refused instead of recorded.
"""

import json
import shutil
import sys

import run


def main() -> int:
    cli = run.load_cli()
    recorded = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        workdir = run.WORK / f"record-{name}"
        try:
            bench = run.Bench(cli, workload, run.DIGEST_SEED, workdir, expected=None)
            for _ in range(2):
                bench.setup()
                bench.run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bench.failed:
            print(f"{name}: {bench.failed} failed calls: {bench.mismatches}", file=sys.stderr)
            return 1
        recorded[name] = bench.reference
    doc = {"seed": run.DIGEST_SEED, "revision": run.git_revision(), "workloads": recorded}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
