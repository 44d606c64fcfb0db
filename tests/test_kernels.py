"""The C kernels and the plain-Python reference must agree exactly."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from confres import kernels
from conftest import random_affinity

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler to build the C kernels")

# product-form repulsion (a scheme drawn at random) and explicit repulsion
SCHEMES = (None, "explicit")


def _kernel_args(graph):
    return (graph.indptr, graph.indices, graph.weights,
            graph.rep_mode, graph.rep_strength,
            graph.rep_denom, graph.rep_indptr, graph.rep_indices,
            graph.rep_weights)


@needs_cc
def test_energy_components_backends_agree(rng):
    assert kernels.BACKEND == "c"
    for trial in range(40):
        graph = random_affinity(rng, scheme=SCHEMES[trial % 2])
        labels = rng.integers(0, 3, graph.n).astype(np.int64)
        got = kernels.energy_components(*_kernel_args(graph)[:3], labels,
                                        *_kernel_args(graph)[3:])
        ref = kernels.energy_components_py(*_kernel_args(graph)[:3], labels,
                                           *_kernel_args(graph)[3:])
        assert got == ref


@needs_cc
def test_sweep_backends_agree(rng):
    assert kernels.BACKEND == "c"
    for trial in range(80):
        graph = random_affinity(rng, scheme=SCHEMES[trial % 2])
        if trial % 4 < 2:
            labels_a = np.arange(graph.n, dtype=np.int64)
        else:
            labels_a = rng.integers(0, graph.n, graph.n).astype(np.int64)
        labels_b = labels_a.copy()
        order = np.asarray(rng.permutation(graph.n), dtype=np.int64)
        if trial % 8 < 4:
            constraint = np.zeros(graph.n, dtype=np.int64)
        else:
            constraint = rng.integers(0, 2, graph.n).astype(np.int64)
        args = _kernel_args(graph)
        gamma = float(rng.random() * 2)
        moved_a = kernels.sweep(*args[:3], *args[3:], gamma, labels_a,
                                constraint, order, 1e-12)
        moved_b = kernels.sweep_py(*args[:3], *args[3:], gamma, labels_b,
                                   constraint, order, 1e-12)
        assert moved_a == moved_b
        assert np.array_equal(labels_a, labels_b)


@needs_cc
def test_compiled_sweep_rejects_out_of_range_label(rng):
    assert kernels.BACKEND == "c"
    graph = random_affinity(rng)
    args = _kernel_args(graph)
    order = np.arange(graph.n, dtype=np.int64)
    constraint = np.zeros(graph.n, dtype=np.int64)
    for sweep in (kernels.sweep, kernels.sweep_py):
        labels = np.arange(graph.n, dtype=np.int64)
        labels[0] = graph.n
        with pytest.raises(IndexError):
            sweep(*args, 1.0, labels, constraint, order, 1e-12)


def test_backend_flag_disables_compilation():
    code = ("import confres.kernels as k; "
            "print(k.BACKEND, k.sweep is k.sweep_py)")
    env = dict(os.environ, CONFRES_DISABLE_COMPILED="1")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["python", "True"]


@needs_cc
def test_failed_build_is_remembered(tmp_path, monkeypatch):
    broken = tmp_path / "_kernels.c"
    broken.write_text("this is not C;\n")
    monkeypatch.setattr(kernels, "_SOURCE", str(broken))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.warns(RuntimeWarning, match=r"\.failed") as first:
        assert kernels._load_library() is None
    assert len(first) == 1
    (marker,) = (tmp_path / "confres").glob("kernels-*.failed")
    assert "error" in marker.read_text()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(kernels.subprocess, "run", no_compiler)
    with pytest.warns(RuntimeWarning, match=marker.name) as again:
        assert kernels._load_library() is None
    assert len(again) == 1
    marker.unlink()  # deleting the marker retries the build
    with pytest.raises(AssertionError, match="compiler ran again"):
        kernels._load_library()
