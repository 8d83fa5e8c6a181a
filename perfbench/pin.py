"""Re-pin golden.json: the artifact digests of every workload at the default seed.

    python3 perfbench/pin.py

Run this only when a change alters artifact bytes on purpose, and say so in
the change. The benchmark fails any run whose pinned artifacts differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    bench = run.Bench(deadline=time.monotonic() + 600, pins={})
    bundled = {(run.CONFIGS / name).read_bytes(): name for name in workloads.BUNDLED.values()}
    golden: dict = {"runs": {}, "compares": {}}
    try:
        for name in workloads.WORKLOADS:
            runner = run.Runner(bench, workloads.make(name, workloads.DEFAULT_SEED, run.CONFIGS))
            runner.write_configs()
            for exp in runner.workload.experiments:
                runner.run(exp)
                label = f"bundled {bundled[exp.config]}" if exp.config in bundled else f"{name}/{exp.name}"
                golden["runs"][exp.digest] = {"name": label, **bench.replay[("run", exp.name)]}
            for index, names in enumerate(runner.workload.comparisons):
                runner.compare(index)
                digests = [e.digest for e in runner.workload.experiments if e.name in names]
                golden["compares"][run.comparison_key(digests)] = {
                    "name": f"{name}/compare {' '.join(names)}",
                    **bench.replay[("compare", names)],
                }
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    if bench.problems:
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(golden['runs'])} runs and {len(golden['compares'])} compares in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
