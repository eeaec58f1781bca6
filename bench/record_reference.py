"""Record the reference values that runs on the default seed are checked
against.  Run it only on a commit whose values are trusted:

    python3 bench/record_reference.py [--count N]

Every recorded task must also pass its output check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # pins the thread pools before numpy loads
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=400, help="tasks recorded per workload")
    args = parser.parse_args(argv)
    lib = run.import_library()
    recorded = {}
    workdir = run.OUT_DIR / "reference-work"
    try:
        for workload in sorted(workloads.CYCLES):
            if workdir.exists():
                shutil.rmtree(workdir)
            workdir.mkdir(parents=True)
            tasks = workloads.TaskList(lib, workload, run.DEFAULT_SEED, str(workdir))
            rows = []
            for i in range(args.count):
                task = tasks.get(i)
                out = task.run()
                problems = task.check(out)
                if problems:
                    print(f"{workload} task {i} ({task.kind}): {problems}", file=sys.stderr)
                    return 1
                rows.append([task.kind, [float(v) for v in task.values(out)]])
            recorded[workload] = rows
            print(f"{workload}: {len(rows)} tasks recorded", flush=True)
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)
    payload = {"seed": run.DEFAULT_SEED, "tolerance": workloads.TOL, "workloads": recorded}
    run.REFERENCE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
