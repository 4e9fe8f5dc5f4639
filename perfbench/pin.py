"""Record the pinned trial decisions of a CLI workload at the default seed.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py skewed_two_stage 12

Runs batches ``0..N-1`` of the workload at ``DEFAULT_SEED`` through the CLI
and writes ``perfbench/pins/<workload>.json``: for each batch and experiment
point, the SHA-256 of the trial CSV's decision columns
``seed,m_max,m_min,rows_recovered,exact_recovery`` (not ``residual``, which a
legitimate solver change may perturb). ``run.py`` compares against these
whenever it runs the default seed; tail-table rows are not pinned.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    name, batches = argv[0], int(argv[1])
    os.environ.update(run.WORKLOAD_ENV.get(name, {}))
    sys.path[:0] = [str(run.SRC)]
    import workloads

    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT))
    pins = {}
    try:
        wl = workloads.make(name, scratch)
        wl.pins = {}
        for k in range(batches):
            batch = wl.inputs(workloads.DEFAULT_SEED, k)
            tally = workloads.Tally()
            seen = wl.check(batch, wl.run(batch), tally, k, workloads.DEFAULT_SEED)
            if tally.failed:
                print(f"error: batch {k} failed its checks: {tally.notes}", file=sys.stderr)
                return 1
            pins[str(k)] = {key: workloads.digest(lines) for key, lines in seen.items()
                            if not key.startswith("tail_bounds")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = run.HERE / "pins" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": name, "seed": workloads.DEFAULT_SEED,
                   "columns": "seed,m_max,m_min,rows_recovered,exact_recovery",
                   "batches": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
