#!/usr/bin/env python3
"""confres benchmark: one workload per invocation, each in a fresh process.

    python3 perfbench/run.py --workload novelty_8d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root.  Inputs are generated from --seed before any
timing; a worker process then runs the workload for about --seconds,
checks every output, and reports.  With --trace 0 the last line is a JSON
object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run.  --out FILE also saves the full result
(provenance, every metric) for perfbench/compare.py.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import Calibration  # noqa: E402
from inputs import write_inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("novelty_8d", "cluster_4k", "explicit_2k")
WORKER_TIMEOUT_S = 150
SETUP_REPEATS = 3
SETUP_REF_SAMPLES = 3  # reference samples before each set-up probe
# BLAS and OpenMP pools pinned to one thread; recorded in the provenance
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
# a fresh interpreter importing all of confres and solving a 4-item graph,
# which also forces any lazy kernel compilation
SETUP_PROBE = (
    "import confres.cli\n"
    "from confres.graph import from_edge_list\n"
    "from confres.optimizer import optimize\n"
    "optimize(from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.1)]), 1.0)\n"
)


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.abspath("src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"  # e.g. an exported tree; do not look above it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def measure_setup(env):
    """Median wall time of fresh interpreters running SETUP_PROBE, raw and
    scaled by reference samples taken between them (see calibrate.py)."""
    calibration = Calibration()
    for _ in range(SETUP_REPEATS):
        calibration.sample(SETUP_REF_SAMPLES)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        calibration.record(time.perf_counter() - t0)
    calibration.sample(SETUP_REF_SAMPLES)
    raw = statistics.median(seconds for seconds, _ in calibration.intervals)
    return raw, statistics.median(calibration.scaled())


def run_one(workload, seed, seconds, trace):
    """Generate inputs, run the worker, measure set-up; returns the result."""
    # relative, so the paths the CLI records in its output are the same
    # in every checkout
    workdir = os.path.join(".perfbench_work", f"{workload}-{seed}")
    env = child_env()
    try:
        files = write_inputs(workload, seed, workdir)
        request = {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "files": files, "workdir": workdir}
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{workload} worker exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:  # keep the spans; the rest of the work directory goes
            result["spans_file"] = f"{workdir}.spans.jsonl"
            os.replace(os.path.join(workdir, "spans.jsonl"), result["spans_file"])
        result["raw_setup_s"], result["setup_s"] = measure_setup(env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only if no other run uses it
    result["provenance"]["git_sha"] = git_sha()
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def contract_metrics(result, per_layer):
    """The metrics named in BENCHMARK.json, with units."""
    if result["trace"]:
        layers = result["layers"]
        return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                for m in per_layer}
    return {
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "neg_energy": {"value": -result["energy"], "unit": "H"},
        "quality": {"value": result["quality"], "unit": "1"},
    }


def report(result):
    """Human-readable lines; the caller prints the JSON line after them."""
    lines = [f"# {result['workload']} seed={result['seed']} "
             f"backend={result['provenance']['backend']} "
             f"correct={result['correct']} passes={result['attempted']} "
             f"timed={len(result['walls'])} "
             f"fail_ratio={result['failed'] / result['attempted']:.3f} "
             f"output_sha256={result['output_sha256']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"#   {name:28s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"# unscaled: wall_s {result['raw_wall_s']:.6g} "
                 f"setup_s {result['raw_setup_s']:.6g}")
    if not result["trace"]:
        lines.append(f"# reference: median {result['ref_s']:.6g} s over "
                     f"{result['ref_samples']} samples")
    if result["trace"]:
        lines.append("# layers " + json.dumps(result["layers"], sort_keys=True))
        lines.append(f"# spans written to {result['spans_file']}")
    lines.append("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="save the full result JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "confres", "__init__.py")):
        parser.error("run from the repository root: src/confres is missing")
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result["metrics"] = contract_metrics(result, per_layer)
        print(report(result), flush=True)
        results.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
    lines = [{"correct": r["correct"], "attempted": r["attempted"],
              "failed": r["failed"], "metrics": r["metrics"]}
             for r in results]
    print(json.dumps(lines[0] if len(lines) == 1 else
                     {r["workload"]: line for r, line in zip(results, lines)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
