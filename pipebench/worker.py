"""One benchmark round in a fresh process: set up, then run the CLI stages.

    python3 worker.py SRC_DIR CONFIG OUT_DIR RESULT PLAN [--setup-only] [--trace TRACE_FILE]

Set-up is interpreter start, ``import kitaevqse`` and loading and validating
the configuration; ``ready`` is the monotonic clock when it is done, which the
parent compares with its own clock reading taken just before the spawn. PLAN
lists the stage runs in order, comma-separated, a stage appearing once per
run; each run goes through ``kitaevqse.cli.main`` and is timed on its own,
and is followed by one calibration measurement of the host's speed. A traced
round runs each stage once. The result file holds the stage times, return
codes and calibrations, the peak resident set and, when traced, the
per-layer figures.
"""

import sys
import time

CALIBRATION_STEPS = 8000
CALIBRATION_SAMPLES = 5


def calibration_seconds() -> float:
    """Median time of a fixed loop of small-array numpy work, like the package's at N=8."""
    import statistics

    import numpy as np

    idx = np.arange(256) ^ 5
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        x = np.linspace(0.0, 1.0, 256) + 0j
        start = time.perf_counter()
        for _ in range(CALIBRATION_STEPS):
            x = 0.9 * x - 0.1j * x[idx]
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


if __name__ == "__main__":
    src, config_path, out_dir, result_path, plan = sys.argv[1:6]
    sys.path.insert(0, src)
    from kitaevqse import cli
    from kitaevqse.config import load_config

    load_config(config_path)
    ready = time.monotonic()

    import json
    import resource
    import traceback
    from pathlib import Path

    result = {"ready": ready}
    if "--setup-only" not in sys.argv:
        tracer = None
        if "--trace" in sys.argv:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        stages = {}
        for stage in plan.split(","):
            if stage in stages and tracer is not None:
                continue
            runs = stages.setdefault(stage, {"seconds": [], "calibration": [], "codes": [], "error": None})
            argv = [stage, "--config", config_path, "--out", out_dir, "--threads", "1"]
            start = time.perf_counter()
            if tracer is not None:
                tracer.enter(f"cli.{stage}")
            try:
                code = cli.main(argv)
            except Exception:
                code, runs["error"] = None, traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.exit(f"cli.{stage}")
            runs["seconds"].append(time.perf_counter() - start)
            runs["codes"].append(code)
            sys.stdout.flush()
            runs["calibration"].append(calibration_seconds())
        result["stages"] = stages
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            trace_file = sys.argv[sys.argv.index("--trace") + 1]
            tracer.save(Path(trace_file))
            result["spans"] = len(tracer.span_start)
    Path(result_path).write_text(json.dumps(result))
