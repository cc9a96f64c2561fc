"""Run `nvc` commands inside this interpreter and report what they cost.

Usage: python child.py JOB.json RESULT.json

JOB.json holds ``{"argvs": [[...], ...], "trace": bool, "serial": bool}``.
Each argv is passed to ``nvcoh.cli.main`` in turn, timed from after the
imports.  ``serial`` swaps the process pools for an in-process executor;
``trace`` installs the layer wrappers of `layers.LayerTrace` and reports
per-layer metrics for each argv, and is only set together with ``serial``.
RESULT.json gets one entry per argv plus the peak resident set size of this
process.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main() -> int:
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)

    import nvcoh.cli as cli
    from nvcoh import (baselines, inference, rank_core, simulation, spectral,
                       vector_measure)

    import layers

    modules = {"cli": cli, "spectral": spectral, "vector_measure": vector_measure,
               "rank_core": rank_core, "inference": inference,
               "simulation": simulation, "baselines": baselines}
    pools = [(m, m.ProcessPoolExecutor) for m in (cli, simulation)]
    if job["serial"]:
        for module, _ in pools:
            module.ProcessPoolExecutor = layers.SerialExecutor
    tracer = layers.LayerTrace() if job["trace"] else None
    if tracer:
        tracer.install(modules)

    runs = []
    try:
        for argv in job["argvs"]:
            if tracer:
                tracer.reset()
            t0 = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - t0
            runs.append({"rc": rc, "wall_s": wall,
                         "layers": tracer.metrics() if tracer else None})
    finally:
        not_restored = tracer.uninstall() if tracer else []
        for module, original in pools:
            module.ProcessPoolExecutor = original
            if module.ProcessPoolExecutor is not original:
                not_restored.append(f"{module.__name__}.ProcessPoolExecutor")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"runs": runs, "peak_rss_mb": peak_kb / 1024.0,
                   "not_restored": not_restored}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
