"""Record the correctness gate: trace and report digests, audit verdicts and
AuditSink state for every simulation seed of each workload's default sweep.

    python3 bench/record.py [workload ...]

Run it only on a commit whose behaviour is known good: expected.json is what
every later run of the benchmark is checked against.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    run._import_package()
    names = argv or list(workloads.WORKLOADS)
    expected = run.load_expected() if run.EXPECTED_PATH.exists() else {}
    workdir = run.WORK_DIR / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            entry = {}
            for seed in workload.seeds(workloads.DEFAULT_SEED):
                result = run.run_seed(workload, seed, workdir)
                problems = run.check(workload, result, None)
                if problems:
                    print(f"{name} seed {seed}: {'; '.join(problems)}",
                          file=sys.stderr)
                    return 1
                entry[str(seed)] = result.outputs()
                print(f"{name} seed {seed}: {result.trace_sha256[:16]} "
                      f"{result.report_sha256[:16]}")
            expected[name] = {"seeds": entry}
            if workload.reason:
                expected[name]["reason"] = workload.reason
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
