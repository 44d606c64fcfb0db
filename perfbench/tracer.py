"""Spans around the calls into confres's layers, recorded from outside.

`Tracer.patched()` replaces each call site in `SITES` with a wrapper that
records a span (name, start, end, parent, run id, attributes) and restores
the original on exit.  Spans stay in memory; `dump` writes them once.
A span's self time is its duration minus the durations of its children.
"""

import contextlib
import importlib
import json
import time

import numpy as np


def _sweep_attrs(args, moves):
    # attraction + repulsion CSR entries the pass walks over
    return {"moves": int(moves), "edges": int(len(args[1]) + len(args[7]))}


def _graph_attrs(args, graph):
    return {"edges": int(len(graph.indices) // 2)}


def _configs_attrs(args, configs):
    return {"partitions": len(configs.discovered), "plateaus": configs.m,
            "exhausted": int(configs.budget_exhausted)}


# (module, attribute looked up at call time, span name, attribute recorder)
SITES = (
    ("confres.kernels", "sweep", "kernels.sweep", _sweep_attrs),
    ("confres.kernels", "energy_components", "kernels.energy", None),
    ("confres.optimizer", "aggregate", "optimizer.aggregate", None),
    ("confres.optimizer", "optimize", "optimizer.optimize", None),
    ("confres.resolution", "optimize", "optimizer.optimize", None),
    ("confres.graph", "from_edge_list", "graph.from_edges", _graph_attrs),
    ("confres.cognition", "build_knn_graph", "graph.knn", None),
    ("confres.cognition", "derive_affinity", "graph.affinity", _graph_attrs),
    ("confres.cognition", "find_configurations", "resolution.sweep",
     _configs_attrs),
    ("confres.cognition", "item_energy_scores", "evaluation.scores", None),
    ("confres.cognition", "roc_auc", "evaluation.auc", None),
    ("confres.cli", "load_points_csv", "cli.load", None),
    ("confres.cli", "build_knn_graph", "graph.knn", None),
    ("confres.cli", "derive_affinity", "graph.affinity", _graph_attrs),
    ("confres.cli", "optimize", "optimizer.optimize", None),
    ("confres.cli", "_write_json", "cli.write", None),
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record["attrs"] = attrs(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name, attrs in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans):
    """Per-layer counts and times from one traced workload run.

    The run's root span is the workload itself; time under it that no
    child span covers is reported as `trace.unaccounted_s`.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[idx]

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return float(sum(dur[i] for i in pick(name)))

    def self_time(name):
        return float(sum(dur[i] - child[i] for i in pick(name)))

    def attr_sum(name, key):
        return int(sum(spans[i]["attrs"].get(key, 0) for i in pick(name)))

    sweeps = pick("kernels.sweep")
    sweep_s = total("kernels.sweep")
    edge_visits = attr_sum("kernels.sweep", "edges")
    useful = sum(1 for i in sweeps if spans[i]["attrs"]["moves"] > 0)
    sweep_roots = set(pick("resolution.sweep"))
    probes = [dur[i] for i in pick("optimizer.optimize")
              if spans[i]["parent"] in sweep_roots]
    plateaus = attr_sum("resolution.sweep", "plateaus")
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    return {
        "graph.s": total("graph.knn") + total("graph.affinity")
        + total("graph.from_edges"),
        "graph.knn_s": total("graph.knn"),
        "graph.affinity_s": total("graph.affinity"),
        "graph.from_edges_s": total("graph.from_edges"),
        "graph.edges": attr_sum("graph.affinity", "edges")
        + attr_sum("graph.from_edges", "edges"),
        "cli.load_s": total("cli.load"),
        "cli.write_s": total("cli.write"),
        "kernels.sweep_calls": len(sweeps),
        "kernels.sweep_s": sweep_s,
        "kernels.sweep_moves": attr_sum("kernels.sweep", "moves"),
        "kernels.useful_sweep_ratio": useful / len(sweeps) if sweeps else 0.0,
        "kernels.edge_visits": edge_visits,
        "kernels.ns_per_edge": 1e9 * sweep_s / edge_visits if edge_visits else 0.0,
        "kernels.energy_calls": len(pick("kernels.energy")),
        "kernels.energy_s": total("kernels.energy"),
        "optimizer.calls": len(pick("optimizer.optimize")),
        "optimizer.self_s": self_time("optimizer.optimize"),
        "optimizer.aggregate_calls": len(pick("optimizer.aggregate")),
        "optimizer.aggregate_s": total("optimizer.aggregate"),
        "resolution.probes": len(probes),
        "resolution.probe_s_p50": float(np.median(probes)) if probes else 0.0,
        "resolution.probe_s_p90": float(np.percentile(probes, 90)) if probes else 0.0,
        "resolution.partitions": attr_sum("resolution.sweep", "partitions"),
        "resolution.plateaus": plateaus,
        "resolution.envelope_ratio": plateaus / len(probes) if probes else 0.0,
        "resolution.budget_exhausted": attr_sum("resolution.sweep", "exhausted"),
        "resolution.self_s": self_time("resolution.sweep"),
        "evaluation.scores_s": total("evaluation.scores"),
        "evaluation.auc_s": total("evaluation.auc"),
        "trace.unaccounted_s": float(sum(dur[i] - child[i] for i in roots)),
    }
