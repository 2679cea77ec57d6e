"""Stage-timed benchmark of the kitaevqse pipeline.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round is a fresh process
(``worker.py``) that imports the package from ``src/``, loads the generated
configuration and calls the CLI stages in ``kitaevqse all`` order, timing each
and scaling the times to a nominal host speed with a calibration loop (see
README "Host speed"). After each round the stages' artifacts are checked
against the scipy reference (``checks.py``); a stage that exits non-zero or
fails a check counts as failed. Untraced runs first time nine set-up-only
processes, then repeat whole rounds until ``--seconds`` have passed and report
medians; a traced run makes one traced round and reports the per-layer
figures. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 170.0
# Median time of worker.calibration_seconds() on the reference host (2-core
# Xeon VM, Python 3.11, numpy 2.4). Stage times are scaled by this over the
# round's median calibration; see README "Host speed".
CALIBRATION_NOMINAL_S = 0.045


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.work = work
        self.stages = workloads.stages(workload)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workloads.make_config(workload, seed), indent=1))
        threads = str(workloads.WORKLOADS[workload]["blas_threads"])
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
        self.checker = None

    def spawn(self, out: Path, extra: list[str]) -> tuple[dict | None, float]:
        """Run the worker once; (its result or None, parent clock at spawn)."""
        out.mkdir(parents=True, exist_ok=True)
        result_path = out / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.src), str(self.config_path),
               str(out), str(result_path), ",".join(workloads.stage_plan(self.workload)), *extra]
        with open(out / "log.txt", "w") as log:
            spawned = time.monotonic()
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                               cwd=self.root, timeout=ROUND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None, spawned
        if not result_path.exists():
            return None, spawned
        return json.loads(result_path.read_text()), spawned

    def setup_time(self, index: int) -> float:
        result, spawned = self.spawn(self.work / f"setup{index}", ["--setup-only"])
        if result is None:
            raise RuntimeError("set-up process did not finish")
        return result["ready"] - spawned

    def round(self, index: int, trace_file: Path | None) -> dict:
        import checks

        out = self.work / f"round{index}"
        extra = ["--trace", str(trace_file)] if trace_file else []
        result, spawned = self.spawn(out, extra)
        if result is None:
            sys.stderr.write((out / "log.txt").read_text()[-2000:])
            return {"failed": list(self.stages), "outcomes": [], "result": None}
        if self.checker is None and (out / "lattice_fixture.json").exists():
            from kitaevqse.config import load_config

            fixture = json.loads((out / "lattice_fixture.json").read_text())
            self.checker = checks.Checker(load_config(self.config_path), fixture)
        failed, outcomes = [], []
        for stage in self.stages:
            info = result["stages"].get(stage, {"codes": [None], "error": "not run"})
            found = self.checker.check(stage, out) if self.checker else []
            outcomes += found
            if any(code != 0 for code in info["codes"]) or not found or not all(o.passed for o in found):
                failed.append(stage)
                if info.get("error"):
                    sys.stderr.write(f"{stage}: {info['error']}\n")
        result["setup_s"] = result["ready"] - spawned
        return {"failed": failed, "outcomes": outcomes, "result": result}


def calibration(result: dict) -> float:
    """Median of the calibration loop timings taken between the round's stage runs."""
    return statistics.median(c for info in result["stages"].values() for c in info["calibration"])


def round_metrics(result: dict) -> dict[str, float]:
    """One round's figures: stage medians, scaled to the nominal host speed."""
    scale = CALIBRATION_NOMINAL_S / calibration(result)
    seconds = {stage: scale * statistics.median(info["seconds"]) for stage, info in result["stages"].items()}
    return {
        "setup_s": result["setup_s"],
        "pipeline_s": sum(seconds.values()),
        "vqe_s": seconds["vqe"],
        "qse_s": seconds["qse"],
        "response_s": seconds["greens"] + seconds.get("dsf", 0.0),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kitaevqse" / "cli.py").is_file():
        print(f"error: no kitaevqse sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".pipebench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, args.workload, args.seed, work)
        trace_file = None
        if args.trace:
            trace_file = root / ".pipebench_out" / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
        else:
            bench.setup_time(0)  # warm-up: byte-compilation and file cache
            setups = [bench.setup_time(i) for i in range(1, SETUP_SAMPLES + 1)]

        rounds = []
        start = time.monotonic()
        while True:
            rounds.append(bench.round(len(rounds), trace_file))
            if args.trace or time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rounds) * len(bench.stages)
    failed = sum(len(r["failed"]) for r in rounds)
    for outcome in rounds[-1]["outcomes"]:
        mark = "ok" if outcome.passed else "FAIL"
        print(f"check {outcome.stage}.{outcome.name}: {outcome.value:.6g} (bound {outcome.bound:g}) {mark}")

    completed = [r["result"] for r in rounds if r["result"] is not None]
    values: dict[str, float] = {}
    if completed and args.trace:
        values = dict(completed[0]["layers"])
        values["trace.pipeline_s"] = round_metrics(completed[0])["pipeline_s"]
        values["host.calibration_s"] = calibration(completed[0])
    elif completed:
        per_round = [round_metrics(r) for r in completed]
        values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        values["setup_s"] = statistics.median(setups + [m["setup_s"] for m in per_round])
        raw = sum(statistics.median(i["seconds"]) for i in completed[0]["stages"].values())
        print(f"host: calibration loop {calibration(completed[0]):.4f} s "
              f"(nominal {CALIBRATION_NOMINAL_S} s), unadjusted pipeline {raw:.4g} s")
    if len(completed) < len(rounds):
        print("error: a round did not finish", file=sys.stderr)
        return 1

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']}: {values[entry['name']]:.6g} {entry['unit']}")
    print(f"stages attempted: {attempted}, failed: {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
