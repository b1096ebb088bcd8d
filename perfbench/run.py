"""stcontrol benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each sample is one fresh child process (child.py)
that imports ``stcontrol`` and calls ``stcontrol.cli.main`` in-process
with BLAS threads pinned to 1.  At most one child runs at a time.  A run
lasts as near to ``--seconds`` as whole samples allow (at least one);
``--seed`` only shuffles the order of the samples of a run and is recorded.

``--trace 0`` reports the end-to-end metrics: the medians of ``wall_s``
(the ``cli.main`` call) and ``peak_rss_mb`` (the child's ``ru_maxrss``)
over the samples, and of ``setup_s`` (spawn through ``import
stcontrol.cli`` and building the ProblemSpec) over at least
MIN_SETUP_SAMPLES children, adding set-up-only children where needed.
``--trace 1`` alternates untraced samples with traced ones and reports
the per-layer metrics of spans.py as medians over the traced samples, with
each layer's share of the traced ``wall_s`` and the tracing overhead.

Every sample passes the correctness gate of workloads.py or counts as a
failed operation.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  Result records, with the
environment they were measured in, and traced spans (JSONL) are written
under perfbench/.runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Workload, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, ".runs")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 5
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed sample)."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(preset, argv, trace_id, tag) -> dict:
    """Run one child to completion and return its result record."""
    result_path = os.path.join(RUNS, f"child-{tag}.json")
    job = {"root": ROOT, "preset": preset, "argv": argv, "trace": trace_id,
           "result": result_path, "spawned": _now()}
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                              env={**os.environ, **BLAS_PIN}, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {tag} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise HarnessError(f"child {tag} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    return result


def run_sample(w: Workload, kind, tag) -> dict:
    """One sample of kind "plain", "traced" or "setup" (set-up only)."""
    if kind == "setup":
        return {"kind": kind, **spawn(w.preset, None, None, tag)}
    outdir = os.path.join(RUNS, f"out-{tag}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    try:
        sample = spawn(w.preset, w.argv(outdir), tag if kind == "traced" else None, tag)
        code = sample["code"]
        sample["problems"] = check(w, outdir) if code == 0 else [f"cli.main returned {code!r}"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"kind": kind, **sample}


def run_workload(w: Workload, seconds, trace, seed, min_setup=MIN_SETUP_SAMPLES) -> dict:
    """All samples of one run and the metrics they give."""
    os.makedirs(RUNS, exist_ok=True)
    rng = random.Random(seed)
    samples = []
    start = _now()
    while True:
        # A round is one untraced sample, or one untraced and one traced.
        # Start another only if the run then ends nearer to ``seconds``.
        began = _now()
        kinds = ["plain", "traced"] if trace else ["plain"]
        rng.shuffle(kinds)
        for kind in kinds:
            while len(samples) < min_setup and rng.random() < 0.5:
                samples.append(run_sample(w, "setup", f"{w.name}-{seed}-{len(samples)}"))
            samples.append(run_sample(w, kind, f"{w.name}-{seed}-{len(samples)}"))
        end = _now()
        if end + (end - began) / 2 >= start + seconds:
            break
    while len(samples) < min_setup:
        samples.append(run_sample(w, "setup", f"{w.name}-{seed}-{len(samples)}"))
    return summarize(w, samples, trace, seed)


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def summarize(w: Workload, samples, trace, seed) -> dict:
    plain = [s for s in samples if s["kind"] == "plain"]
    traced = [s for s in samples if s["kind"] == "traced"]
    mains = plain + traced
    end_to_end = {
        "wall_s": _median(plain, "wall_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "setup_s": _median(samples, "setup_s"),
    }
    report = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": samples[0]["numpy"],
            "scipy": samples[0]["scipy"],
            "blas_threads": BLAS_PIN,
            "platform": platform.platform(),
        },
        "attempted": len(mains),
        "failed": sum(1 for s in mains if s["problems"]),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()},
        "samples": [{k: v for k, v in s.items() if k not in ("spans", "layers")}
                    for s in samples],
    }
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = {
                "value": statistics.median(s["layers"][name]["value"] for s in traced),
                "unit": traced[0]["layers"][name]["unit"],
            }
        report["per_layer"] = layers
        report["traced_wall_s"] = _median(traced, "wall_s")
        report["spans"] = [span for s in traced for span in s["spans"]]
    return report


def print_report(r) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}")
    print("environment " + json.dumps(r["environment"], sort_keys=True))
    for s in r["samples"]:
        line = f"  {s['kind']:6s} setup_s={s['setup_s']:.4f}"
        if s["kind"] != "setup":
            line += (f" wall_s={s['wall_s']:.4f} cpu_s={s['cpu_s']:.4f} "
                     f"peak_rss_mb={s['peak_rss_mb']:.1f} "
                     + ("; ".join(s["problems"]) or "ok"))
        print(line)
    print(f"{r['failed']} of {r['attempted']} operations failed")
    print("end-to-end (medians; untraced samples)")
    for name, m in r["end_to_end"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if r["trace"]:
        wall = r["traced_wall_s"]
        print(f"per-layer (medians of traced samples; share of traced wall_s {wall:.4f} s)")
        for name, m in r["per_layer"].items():
            share = f"{100.0 * m['value'] / wall:6.1f}%" if m["unit"] == "s" else ""
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} {share}")
        overhead = wall - r["end_to_end"]["wall_s"]["value"]
        print(f"tracing overhead: traced wall_s median {wall:.4f} s - untraced "
              f"{r['end_to_end']['wall_s']['value']:.4f} s = {overhead:+.4f} s")


def save(r) -> None:
    stem = os.path.join(RUNS, f"{r['workload']}-seed{r['seed']}-trace{r['trace']}")
    if r["trace"]:
        with open(stem + ".spans.jsonl", "w") as f:
            for span in r["spans"]:
                f.write(json.dumps(span, sort_keys=True) + "\n")
        print(f"spans written to {os.path.relpath(stem, ROOT)}.spans.jsonl")
    with open(stem + ".json", "w") as f:
        json.dump({k: v for k, v in r.items() if k != "spans"}, f, indent=1)


def result_line(reports, trace) -> str:
    """The closing JSON object; with several workloads (``all``) each
    metric name is prefixed by its workload."""
    key = "per_layer" if trace else "end_to_end"
    if len(reports) == 1:
        metrics = reports[0][key]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r[key].items()}
    failed = sum(r["failed"] for r in reports)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in reports),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stcontrol", "cli.py")):
        print(f"perfbench: no stcontrol sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            r = run_workload(WORKLOADS[name], args.seconds, args.trace, args.seed)
            print_report(r)
            save(r)
            reports.append(r)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(result_line(reports, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
