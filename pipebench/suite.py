"""Run every workload, repeatedly, and summarize the spread.

    python3 pipebench/suite.py [--workloads A B] [--seeds 1 2 3] [--traced N] [--seconds S]

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run. For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound. With
``--traced N`` it also makes N traced runs per workload on the first seed,
reports whether their counts repeat exactly, and reports the tracing
overhead: traced ``pipeline_s`` minus the untraced median. A JSON record of
every run goes to ``.pipebench_out/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["checks"] = [line for line in lines if line.startswith("check ")]
    result["host"] = next((line for line in lines if line.startswith("host: ")), None)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: wall {runs[-1]['wall_s']:.1f} s, "
                  f"failed {runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        record[workload] = {"runs": runs}
        print(f"\n{workload}: {len(runs)} runs, mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s")
        print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in runs]
            if len(values) >= 2:
                median, q1, q3, rel = spread(values)
                print(f"| `{entry['name']}` | {entry['unit']} | {median:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {rel:.3f} | {entry['bound']} |")
        print("\nchecks (last run):")
        for line in runs[-1]["checks"]:
            print("  " + line)
        if args.traced:
            traced = [run_once(workload, args.seeds[0], seconds, 1) for _ in range(args.traced)]
            record[workload]["traced"] = traced
            counts = [
                {k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "ratio")}
                for t in traced
            ]
            untraced = statistics.median(r["metrics"]["pipeline_s"]["value"] for r in runs)
            overhead = [t["metrics"]["trace.pipeline_s"]["value"] - untraced for t in traced]
            print(f"\ntraced runs: {len(traced)}, counts repeat exactly: {all(c == counts[0] for c in counts)}, "
                  f"overhead (traced - untraced median pipeline_s): "
                  + ", ".join(f"{o:.2f} s" for o in overhead))
        print(flush=True)
    out = Path(".pipebench_out")
    out.mkdir(exist_ok=True)
    (out / "suite.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
