"""Tracer self-test on tiny inputs.

Each workload's claimed call sites must record at least one span (a wrapper
patched onto the wrong module would silently read 0), traced outputs must
be byte-identical to untraced ones, and every patched name must be restored.
An untraced run must scale its passes by the reference task.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import confres.cli  # noqa: E402
import confres.kernels  # noqa: E402
from inputs import write_inputs  # noqa: E402
from worker import run_workload  # noqa: E402

EXPECTED_SPANS = {
    "novelty_8d": ("graph.knn", "graph.affinity", "resolution.sweep",
                   "optimizer.optimize", "optimizer.aggregate", "kernels.sweep",
                   "kernels.energy", "evaluation.scores", "evaluation.auc"),
    "cluster_4k": ("cli.load", "graph.knn", "graph.affinity",
                   "optimizer.optimize", "kernels.sweep", "kernels.energy",
                   "cli.write"),
    "explicit_2k": ("graph.from_edges", "optimizer.optimize", "kernels.sweep",
                     "kernels.energy"),
}
SCALE = {"novelty_8d": 0.4, "cluster_4k": 0.03, "explicit_2k": 0.04}


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_traced_run_records_every_call_site(workload, tmp_path):
    originals = (confres.kernels.sweep, confres.cli.derive_affinity)
    files = write_inputs(workload, 0, str(tmp_path), scale=SCALE[workload])
    result = run_workload(workload, files, 0, 0, 1, str(tmp_path))
    assert (confres.kernels.sweep, confres.cli.derive_affinity) == originals
    assert result["failed"] == 0
    assert result["traced_identical"]
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as fh:
        names = [json.loads(line)["name"] for line in fh]
    traced_passes = names.count("workload")
    assert traced_passes >= 1
    for name in EXPECTED_SPANS[workload]:
        assert names.count(name) >= 1, name
    layers = result["layers"]
    assert layers["kernels.sweep_calls"] > 0 and layers["kernels.edge_visits"] > 0
    assert layers["optimizer.calls"] > 0 and layers["graph.edges"] > 0
    if workload == "novelty_8d":
        assert layers["resolution.probes"] > 0
        assert layers["resolution.probes"] == names.count("optimizer.optimize")
    else:
        assert layers["resolution.probes"] == 0
    if workload == "explicit_2k":
        assert names.count("graph.from_edges") == traced_passes


def test_untraced_run_scales_every_pass(tmp_path):
    files = write_inputs("explicit_2k", 0, str(tmp_path), scale=SCALE["explicit_2k"])
    result = run_workload("explicit_2k", files, 0, 0, 0, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    # a group of reference samples before the first pass and after the last
    assert result["ref_samples"] >= 2
    assert result["wall_s"] > 0 and result["raw_wall_s"] > 0
    assert len(result["walls"]) == 12  # the explicit_2k prefix
