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
    # the C loop draws each pass's order as rng.permutation does: same
    # labels, same move count, same generator state afterwards
    assert kernels.BACKEND == "c"
    for trial in range(80):
        graph = random_affinity(rng, scheme=SCHEMES[trial % 2])
        if trial % 4 < 2:
            labels_a = np.arange(graph.n, dtype=np.int64)
        else:
            labels_a = rng.integers(0, graph.n, graph.n).astype(np.int64)
        labels_b = labels_a.copy()
        if trial % 8 < 4:
            constraint = np.zeros(graph.n, dtype=np.int64)
        else:
            constraint = rng.integers(0, 2, graph.n).astype(np.int64)
        args = _kernel_args(graph)
        gamma = float(rng.random() * 2)
        max_sweeps = (1, 2, 100)[trial % 3]
        seed = int(rng.integers(2 ** 32))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        moved_a = kernels.sweep(*args, gamma, labels_a, constraint,
                                rng_a, max_sweeps)
        moved_b = kernels.sweep_py(*args, gamma, labels_b, constraint,
                                   rng_b, max_sweeps)
        assert moved_a == moved_b
        assert type(moved_a) is int
        assert np.array_equal(labels_a, labels_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@needs_cc
def test_compiled_sweep_rejects_out_of_range_label(rng):
    assert kernels.BACKEND == "c"
    graph = random_affinity(rng)
    args = _kernel_args(graph)
    constraint = np.zeros(graph.n, dtype=np.int64)
    for sweep in (kernels.sweep, kernels.sweep_py):
        labels = np.arange(graph.n, dtype=np.int64)
        labels[0] = graph.n
        with pytest.raises(IndexError):
            sweep(*args, 1.0, labels, constraint, np.random.default_rng(0), 1)


@needs_cc
def test_compiled_kernels_reject_out_of_range_csr(rng):
    # the range checks run in C before any indexed read, and leave the
    # labels and the generator untouched
    graph = random_affinity(rng, scheme="explicit")
    constraint = np.zeros(graph.n, dtype=np.int64)
    for position, value in ((0, -1), (1, graph.n), (6, -1), (7, graph.n)):
        args = list(_kernel_args(graph))
        args[position] = args[position].copy()
        args[position][-1] = value
        labels = np.arange(graph.n, dtype=np.int64)
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(IndexError, match="out of range"):
            kernels.sweep(*args, 1.0, labels, constraint, gen, 5)
        assert np.array_equal(labels, np.arange(graph.n))
        assert gen.bit_generator.state == before
        with pytest.raises(IndexError, match="out of range"):
            kernels.energy_components(*args[:3], labels, *args[3:])


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
