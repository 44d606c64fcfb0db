"""One workload run in a fresh process: timed passes, untimed output checks.

Invoked by run.py as `python3 worker.py '<json request>'` with confres on
PYTHONPATH.  Prints one JSON object as its last line of output.
"""

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import confres
from confres import cli, cognition, graph, kernels, optimizer
from confres.energy import canonicalize, hamiltonian, landscape_point
from confres.evaluation import ari, contingency

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import Calibration  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

NOVELTY_K = 10
NOVELTY_GAMMA_MAX = 2.0
NOVELTY_GRID = NOVELTY_GAMMA_MAX * np.arange(1, 65) / 64
AUC_TARGET = 0.85
REF_EVERY_S = 0.5  # one reference sample per this much pass time


def _sha(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.encode())
    return digest.hexdigest()


def _labels_ok(labels, n):
    labels = np.asarray(labels, dtype=np.int64)
    return len(labels) == n and np.array_equal(canonicalize(labels), labels)


def _pair_precision(table):
    """Share of same-cluster item pairs that also share a ground-truth group."""
    counts = table.counts.astype(np.float64)
    return float(np.sum(counts * (counts - 1)) /
                 np.sum(table.col_sums * (table.col_sums - 1.0)))


def _energy_ok(graph_, labels, gamma, reported):
    expect = hamiltonian(graph_, labels, gamma).total
    return math.isfinite(reported) and math.isclose(reported, expect,
                                                    rel_tol=1e-12, abs_tol=1e-9)


class Workload:
    """A pool of independent instances, one per pass, taken in order:
    `run` is timed; `digest` and `check` run afterwards, untimed.

    Energy and quality come from the first MIN_PASSES instances, so they do
    not depend on how many instances a run completes.  The warm-up runs
    instance 0, which the first timed pass repeats: both must give the same
    bytes.
    """

    MIN_PASSES = 1

    def instances(self):
        return range(len(self.opt_seeds))

    @contextlib.contextmanager
    def session(self):
        """Held for the whole run, warm-up included."""
        yield

    def warm_up(self):
        """One untimed pass before timing starts; returns its check."""
        return self.check(0, self.run(0))

    def summarise(self, warm, infos):
        head = infos[:self.MIN_PASSES]
        return {"energy": statistics.fmean(x["energy"] for x in head),
                "quality": self.pooled_quality([x["quality"] for x in head]),
                "ok": warm["digest"] == infos[0]["digest"]}

    @staticmethod
    def pooled_quality(values):
        return statistics.fmean(values)


class Novelty(Workload):
    """The novelty experiment's pipeline on each pooled instance in turn."""

    MIN_PASSES = 160

    def __init__(self, files):
        self.points = np.load(files["points"])
        self.flags = np.load(files["flags"])
        self.opt_seeds = np.load(files["opt_seeds"])

    def run(self, i):
        g = cognition.points_to_graph(self.points[i], k=NOVELTY_K)
        configs = cognition.find_configurations(
            g, NOVELTY_GAMMA_MAX,
            optimizer.OptimizeOptions(seed=int(self.opt_seeds[i])))
        entry = configs.widest(skip_extremes=True)
        gamma = 0.5 * (entry.gamma_lo + entry.gamma_hi)
        scores = cognition.item_energy_scores(g, entry.labels, gamma)
        auc = cognition.roc_auc(scores.scores, self.flags[i])
        return g, configs, scores.scores, auc

    @staticmethod
    def digest(out):
        _, configs, scores, auc = out
        return _sha(configs.to_json(), scores.tobytes(), repr(auc))

    def check(self, i, out):
        g, configs, scores, auc = out
        entries = configs.entries
        ok = (entries[0].gamma_lo == 0.0
              and entries[-1].gamma_hi == configs.gamma_max
              and all(a.gamma_hi == b.gamma_lo for a, b in zip(entries, entries[1:])))
        lines = [(h_a, h_r) for _, h_a, h_r in configs.discovered]
        for e in entries:
            ok = ok and _labels_ok(e.labels, g.n)
            ok = ok and (e.h_a, e.h_r) == landscape_point(g, e.labels)
            for gamma in np.linspace(e.gamma_lo, e.gamma_hi, 7)[1:-1]:
                here = e.h_a + gamma * e.h_r
                ok = ok and all(here <= a + gamma * r + 1e-9 for a, r in lines)
        envelope = [configs.partition_at(x) for x in NOVELTY_GRID]
        energy = float(np.mean([e.h_a + x * e.h_r
                                for e, x in zip(envelope, NOVELTY_GRID)]))
        ok = ok and math.isfinite(energy) and math.isfinite(auc)
        return {"ok": ok, "energy": energy, "quality": auc,
                "digest": self.digest(out)}

    def summarise(self, warm, infos):
        summary = super().summarise(warm, infos)
        summary["ok"] = summary["ok"] and summary["quality"] >= AUC_TARGET
        return summary

    @staticmethod
    def pooled_quality(values):
        # the median AUC: some instances pick a wrong scale at their widest
        # plateau, which makes the mean jump between seeds
        return statistics.median(values)


class Cluster(Workload):
    """`confres cluster` on each pooled CSV in turn, through confres.cli.main."""

    GAMMA = 1.0
    K = 10
    MIN_PASSES = 4

    def __init__(self, files, workdir):
        self.csvs = files["csvs"]
        self.truth = np.load(files["truth"])
        self.opt_seeds = np.load(files["opt_seeds"])
        self.out = os.path.join(workdir, "partition.json")
        self.graph = None

    @contextlib.contextmanager
    def session(self):
        # keep the affinity graph the CLI builds, for the energy check; a
        # pass-through costing one Python call per pass
        original = cli.derive_affinity

        def keep(*args, **kwargs):
            self.graph = original(*args, **kwargs)
            return self.graph

        cli.derive_affinity = keep
        try:
            yield
        finally:
            cli.derive_affinity = original

    def run(self, i):
        self.graph = None
        code = cli.main(["cluster", "--input", self.csvs[i], "--k", str(self.K),
                         "--gamma", str(self.GAMMA),
                         "--seed", str(int(self.opt_seeds[i])), "--out", self.out])
        with open(self.out, "rb") as fh:
            return code, fh.read()

    @staticmethod
    def digest(out):
        return _sha(out[1])

    def check(self, i, out):
        code, raw = out
        payload = json.loads(raw)
        labels = np.asarray(payload["labels"], dtype=np.int64)
        total = payload["energy"]["total"]
        table = contingency(self.truth[i], labels)
        ok = (code == 0 and self.graph is not None
              and _labels_ok(labels, len(self.truth[i]))
              and _energy_ok(self.graph, labels, self.GAMMA, total))
        return {"ok": ok, "energy": total, "quality": _pair_precision(table),
                "ari": ari(table), "digest": self.digest(out)}


class Explicit(Workload):
    """from_edge_list with explicit repulsion, then one optimize at gamma=1,
    on each pooled instance in turn."""

    GAMMA = 1.0
    MIN_PASSES = 12

    def __init__(self, files):
        self.n = files["n"]
        self.edges = np.load(files["edges"])
        self.repulsion = np.load(files["repulsion"])
        self.truth = np.load(files["truth"])
        self.opt_seeds = np.load(files["opt_seeds"])

    def run(self, i):
        g = graph.from_edge_list(self.n, self.edges[i], repulsion_scheme="explicit",
                                 repulsion_edges=self.repulsion[i])
        labels, energy = optimizer.optimize(
            g, self.GAMMA, optimizer.OptimizeOptions(seed=int(self.opt_seeds[i])))
        return g, labels, energy.total

    @staticmethod
    def digest(out):
        return _sha(out[1].tobytes(), repr(out[2]))

    def check(self, i, out):
        g, labels, total = out
        ok = (g.rep_mode == kernels.REP_EXPLICIT and _labels_ok(labels, self.n)
              and _energy_ok(g, labels, self.GAMMA, total))
        return {"ok": ok, "energy": total,
                "quality": ari(contingency(self.truth[i], labels)),
                "digest": self.digest(out)}


def make_workload(name, files, workdir):
    if name == "novelty_8d":
        return Novelty(files)
    if name == "cluster_4k":
        return Cluster(files, workdir)
    if name == "explicit_2k":
        return Explicit(files)
    raise ValueError(f"unknown workload {name!r}")


def timed_passes(work, seconds, instances=None, tracer=None, calibration=None):
    """Run instances until one more would take the run past `seconds`.

    At least `work.MIN_PASSES` passes run; with `instances` given, exactly
    those.  Each output is checked right after its pass, untimed, and then
    dropped, so memory does not grow with the number of passes.  Under a
    tracer each pass is a root span and its output is only hashed, because
    the checks call traced code.  With a calibration, reference samples are
    taken before the first pass and between passes, one per REF_EVERY_S of
    pass time since the last ones, and after the last pass.
    Returns [(instance, wall_s, info)].
    """
    done = []
    start = time.perf_counter()
    since_sample = REF_EVERY_S
    for i in instances if instances is not None else work.instances():
        if calibration is not None and since_sample >= REF_EVERY_S:
            calibration.sample(int(since_sample / REF_EVERY_S))
            since_sample = 0.0
        with tracer.span("workload") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = work.run(i)
            wall = time.perf_counter() - t0
        since_sample += wall
        if calibration is not None:
            calibration.record(wall)
        info = {"digest": work.digest(out)} if tracer else work.check(i, out)
        del out  # not alive during the next pass
        done.append((i, wall, info))
        walls = [w for _, w, _ in done]
        if instances is None and len(done) >= work.MIN_PASSES and (
                time.perf_counter() - start + statistics.median(walls) > seconds):
            break
    if calibration is not None:
        calibration.sample(max(1, int(since_sample / REF_EVERY_S)))
    return done


def provenance():
    return {
        "backend": "numba" if kernels.NUMBA_ENABLED else "python",
        "confres": confres.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def run_workload(name, files, seed, seconds, trace, workdir):
    """Measure one workload; returns the result dict worker.py prints."""
    work = make_workload(name, files, workdir)
    with work.session():
        return _measure(work, f"{name}-{seed}", seconds, trace, workdir)


def _measure(work, run_id, seconds, trace, workdir):
    result = {"provenance": provenance()}
    # one untimed pass first, so every timed pass runs warm
    warm = work.warm_up()
    if trace:
        # half the time untraced, then the same instances traced: the
        # difference of their wall times is the tracing overhead
        plain = timed_passes(work, seconds / 2)
        tracer = Tracer(run_id)
        with tracer.patched():
            traced = timed_passes(work, seconds, [i for i, _, _ in plain], tracer)
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
        passes = plain
        layers = layer_metrics(tracer.spans)
        layers["trace.wall_s"] = sum(w for _, w, _ in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - sum(
            w for _, w, _ in plain)
        result["layers"] = layers
    else:
        calibration = Calibration()
        passes = timed_passes(work, seconds, calibration=calibration)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    infos = [info for _, _, info in passes]
    failed = sum(not info["ok"] for info in [warm] + infos)
    summary = work.summarise(warm, infos)
    walls = [w for _, w, _ in passes]
    result.update({
        "attempted": 1 + len(passes), "failed": failed,
        "correct": failed == 0 and summary["ok"],
        "raw_wall_s": statistics.fmean(walls),
        "walls": walls, "energy": summary["energy"],
        "quality": summary["quality"],
        # over the fixed instance prefix: for cluster_4k the output JSONs
        "output_sha256": _sha(*(x["digest"] for x in infos[:work.MIN_PASSES])),
    })
    if not trace:
        result.update(wall_s=statistics.fmean(calibration.scaled()),
                      ref_s=statistics.median(calibration.samples),
                      ref_samples=len(calibration.samples))
    if trace:
        # traced outputs must be byte-identical to the untraced ones
        result["traced_identical"] = all(
            a["digest"] == b["digest"] for (_, _, a), (_, _, b) in zip(plain, traced))
        result["correct"] = result["correct"] and result["traced_identical"]
    return result


def main():
    request = json.loads(sys.argv[1])
    result = run_workload(request["workload"], request["files"],
                          request["seed"], request["seconds"],
                          request["trace"], request["workdir"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
