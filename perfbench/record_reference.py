"""Write reference_digests.json: the report sha256s of every workload per seed.

    python3 perfbench/record_reference.py [--seeds N]

Runs each workload once per seed 0..N-1 with tracing off and keeps the
digests only if the run passes its output check.  Traced runs count how
many of their reports match this table in ``cli.report_digest_match``, so
a change that moves the last digits of a report shows there without
failing the run.  Re-record only on purpose: the table is the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    table = {}
    for name, wl in run.WORKLOADS.items():
        work = os.path.join(run.ROOT, ".perfbench_work", name)
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(work, "workload.cfg"), "w", encoding="utf-8") as fh:
            fh.write(wl.config_text())
        try:
            for seed in range(args.seeds):
                sample = run.run_cli(wl, seed, work, traced=False)
                if sample.problems:
                    print(f"{name} seed {seed}: {'; '.join(sample.problems)}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = sample.digests
                print(f"{name} seed {seed}: {sample.run_s:.2f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
