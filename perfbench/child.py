"""One benchmark sample, run as a fresh interpreter by run.py.

    python3 perfbench/child.py '<job as JSON>'

The job names the checkout root, the preset, the clock reading taken just
before this process was spawned, the result file, and either the argument
list for ``stcontrol.cli.main`` or null (set-up only).  ``trace`` is a run
id to record layer spans under, or null.

Set-up is timed from the spawn through ``import stcontrol.cli`` and
building the preset's ProblemSpec, the cost every invocation pays.  Only
the standard library is imported before that point.
"""

import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import stcontrol.cli
    from stcontrol import config

    config.problem_from_source(("preset", job["preset"]))
    setup_s = _now() - job["spawned"]

    if not os.path.abspath(stcontrol.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stcontrol was imported from {stcontrol.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    result = {"setup_s": setup_s,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if job["argv"] is not None:
        tracer = None
        main_fn = stcontrol.cli.main
        if job["trace"] is not None:
            import spans

            tracer = spans.Tracer(job["trace"])
            tracer.install()
            main_fn = tracer.wrap("cli.main", main_fn)
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = main_fn(job["argv"])
        except Exception as exc:  # a crash is a failed operation, not a harness error
            code = f"{type(exc).__name__}: {exc}"
        result["wall_s"] = time.perf_counter() - start
        # CPU time is kept with the sample to tell scheduling noise from work.
        result["cpu_s"] = time.process_time() - start_cpu
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["code"] = code
        if tracer is not None:
            result["spans"] = tracer.spans
            result["layers"] = spans.layer_metrics(tracer.spans, tracer.installed)

    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
