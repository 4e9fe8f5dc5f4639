"""Compare two commits on the repo benchmark and write the result as JSON.

Usage (from the root of a checkout)::

    python3 bench_compare.py --base REV --head REV --pairs 10 --out BENCH_name.json

Each side is exported with ``git archive`` into its own temporary directory,
so each runs its own committed ``perfbench/`` and ``src/``. For every
workload in ``BENCHMARK.json`` the script runs ``perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` once per side and pair, alternating
which side goes first; pair ``k`` uses seed ``--seed + k`` on both sides.
The output holds, per workload and side, every run's end-to-end metrics,
their medians and quartiles, the failed-op counts and the machine record
``run.py`` printed, and per metric the number of pairs in which the head
read better than the base.

While a run goes, the script reads its process's minor page faults from
``/proc/<pid>/stat`` (field 10) every ``FAULT_POLL_S`` seconds. Each run
records ``faults``: the last count read, and ``steady_per_s``, the rate over
the second half of the run's wall time, past the set-up; it is None where
``/proc`` is missing. The rate tells a run whose heap hands freed
chunk-sized arrays back to the kernel (thousands of faults a second) from
one that reuses their pages (a few).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
FAULT_POLL_S = 0.25


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` under ``into``; return its full commit hash."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def minor_faults(pid: int):
    """The minor page faults of live process ``pid`` so far, or None where ``/proc`` cannot tell."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()  # from field 3; the name in field 2 may hold spaces
    return None if fields[0] == "Z" else int(fields[7])


def fault_record(samples: list):
    """``{"faults", "steady_per_s"}`` from a run's ``(seconds, faults)`` samples, or None."""
    if len(samples) < 2:
        return None
    end, last = samples[-1]
    start, first = next(s for s in samples if s[0] >= end / 2)
    rate = (last - first) / (end - start) if end > start else None
    return {"faults": last, "steady_per_s": rate}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                cwd=checkout, stdout=out, stderr=err, text=True)
        began, samples = time.monotonic(), []
        while proc.poll() is None:
            faults = minor_faults(proc.pid)
            if faults is not None:
                samples.append((time.monotonic() - began, faults))
            time.sleep(FAULT_POLL_S)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           f"{stdout}{stderr}")
    result = json.loads(lines[-1])
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "machine": machine, "faults": fault_record(samples),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(runs: list, names: list) -> dict:
    out = {}
    for name in names:
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="run only these workloads (default: all in BENCHMARK.json)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"command": "python3 perfbench/run.py --trace 0", "seconds": seconds,
              "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            dirs[side].mkdir()
            report[side] = export(rev, dirs[side])
        for wl in args.workloads or [w["name"] for w in bench["workloads"]]:
            runs = {"base": [], "head": []}
            for k in range(args.pairs):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(dirs[side], wl, args.seed + k, seconds))
                    print(wl, side, k, runs[side][-1]["metrics"], runs[side][-1]["faults"],
                          flush=True)
            wins = {}
            for name, m in metrics.items():
                sign = 1.0 if m["better"] == "higher" else -1.0
                wins[name] = sum(sign * (h["metrics"][name] - b["metrics"][name]) > 0
                                 for b, h in zip(runs["base"], runs["head"]))
            report["workloads"][wl] = {
                side: {"summary": summary(runs[side], list(metrics)),
                       "failed": sum(r["failed"] for r in runs[side]),
                       "attempted": sum(r["attempted"] for r in runs[side]),
                       "correct": all(r["correct"] for r in runs[side]),
                       "machine": runs[side][0]["machine"], "runs": runs[side]}
                for side in runs}
            report["workloads"][wl]["head_wins"] = wins
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
