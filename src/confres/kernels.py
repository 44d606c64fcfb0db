"""Hot inner loops for energy evaluation and local moving.

All kernels operate on flat CSR arrays.  The functions defined here in
Python are the reference implementation.  `_kernels.c` ports the hot ones
operation for operation: `_energy_components`, and `_local_move`, one
local-moving phase, with its inner pass `_sweep`.  The C phase runs every
pass in one call and draws each pass's item order from the caller's numpy
Generator through its bit generator's ctypes interface, replaying
`rng.permutation` (numpy's Fisher-Yates shuffle over `random_interval`), so
labels, move counts and the generator's state afterwards match the Python
loop exactly.  On first import the C file is compiled with the system C
compiler (`cc`, else `gcc`) into a per-user cache directory, keyed by the
source, the compiler flags and the machine type, and loaded with ctypes;
`energy_components` and `sweep` then call it.  Without a compiler, when
the build fails, or with CONFRES_DISABLE_COMPILED=1 they are the Python
reference itself (identical results, much slower).  A failed build is
remembered by a marker file beside the cache entry, so later imports do
not run the compiler again.  `BACKEND` names the one in use, "c" or
"python".
`move_delta`, a single-item query that only `energy.move_delta` calls, has
no C port.  tests/test_kernels.py checks that the two backends agree bit
for bit; to time the Python reference, run perfbench/run.py with
CONFRES_DISABLE_COMPILED=1.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings

import numpy as np

# Repulsion modes understood by the kernels.
REP_PRODUCT = 0   # w-_ij = rho_i * rho_j / rep_denom (configuration-null, uniform)
REP_EXPLICIT = 1  # w-_ij given as a sparse CSR map

EPSILON = 1e-12  # a move must lower H by more than this to be taken


def _energy_components(indptr, indices, weights, labels,
                       rep_mode, rep_strength, rep_denom,
                       rep_indptr, rep_indices, rep_weights):
    """Return (h_a, h_r) for a labelling over CSR attraction edges.

    h_a = -sum of within-cluster attraction, h_r = sum of within-cluster
    repulsion.  Attraction CSR stores both edge directions; pairs are
    counted once via j > i.
    """
    n = labels.shape[0]
    h_a = 0.0
    for i in range(n):
        ci = labels[i]
        for e in range(indptr[i], indptr[i + 1]):
            j = indices[e]
            if j > i and labels[j] == ci:
                h_a -= weights[e]
    h_r = 0.0
    if rep_mode == REP_PRODUCT:
        k = 0
        for i in range(n):
            if labels[i] > k:
                k = labels[i]
        sums = np.zeros(k + 1)
        sq = 0.0
        for i in range(n):
            rho = rep_strength[i]
            sums[labels[i]] += rho
            sq += rho * rho
        tot = 0.0
        for c in range(k + 1):
            tot += sums[c] * sums[c]
        h_r = (tot - sq) / (2.0 * rep_denom)
    else:
        for i in range(n):
            ci = labels[i]
            for e in range(rep_indptr[i], rep_indptr[i + 1]):
                j = rep_indices[e]
                if j > i and labels[j] == ci:
                    h_r += rep_weights[e]
    return h_a, h_r


def _sweep(indptr, indices, weights,
           rep_mode, rep_strength, rep_denom,
           rep_indptr, rep_indices, rep_weights,
           gamma, labels, constraint, order, eps):
    """One local-moving pass; mutates `labels` in place.

    Visits items in `order`; each item is moved to the cluster (among
    clusters of its attraction/repulsion neighbours with matching
    `constraint`, plus a fresh singleton cluster) that minimises the energy
    delta.  Moves are accepted only when delta < -eps.  Ties go to the
    lowest existing cluster id, then to the new cluster.  Returns the
    number of accepted moves.
    """
    n = labels.shape[0]
    rs = np.zeros(n)               # per-cluster sum of rep_strength
    cnt = np.zeros(n, np.int64)    # per-cluster member count
    for i in range(n):
        c = labels[i]
        rs[c] += rep_strength[i]
        cnt[c] += 1
    empty = np.empty(n, np.int64)  # stack of reusable cluster ids
    top = 0
    for c in range(n):
        if cnt[c] == 0:
            empty[top] = c
            top += 1
    wsum = np.zeros(n)             # attraction from item to each touched cluster
    rsum = np.zeros(n)             # explicit repulsion likewise
    seen = np.zeros(n, np.bool_)
    touched = np.empty(n, np.int64)
    moves = 0
    for oi in range(n):
        i = order[oi]
        ci = labels[i]
        ki = constraint[i]
        ntouch = 0
        for e in range(indptr[i], indptr[i + 1]):
            j = indices[e]
            if j == i or constraint[j] != ki:
                continue
            cj = labels[j]
            if not seen[cj]:
                seen[cj] = True
                touched[ntouch] = cj
                ntouch += 1
            wsum[cj] += weights[e]
        if rep_mode == REP_EXPLICIT:
            for e in range(rep_indptr[i], rep_indptr[i + 1]):
                j = rep_indices[e]
                if j == i or constraint[j] != ki:
                    continue
                cj = labels[j]
                if not seen[cj]:
                    seen[cj] = True
                    touched[ntouch] = cj
                    ntouch += 1
                rsum[cj] += rep_weights[e]
        rho_i = rep_strength[i]
        # g(c): energy contributed by i's membership in cluster c (i excluded)
        if rep_mode == REP_PRODUCT:
            g_cur = -wsum[ci] + gamma * rho_i * (rs[ci] - rho_i) / rep_denom
        else:
            g_cur = -wsum[ci] + gamma * rsum[ci]
        best_c = -1      # -1 means a fresh singleton cluster
        best_g = 0.0     # g of the fresh cluster
        for t in range(ntouch):
            c = touched[t]
            if rep_mode == REP_PRODUCT:
                scl = rs[c]
                if c == ci:
                    scl -= rho_i
                g = -wsum[c] + gamma * rho_i * scl / rep_denom
            else:
                g = -wsum[c] + gamma * rsum[c]
            if g < best_g or (g == best_g and (best_c == -1 or c < best_c)):
                best_g = g
                best_c = c
        # with no free cluster id every cluster is a singleton, so a move to
        # a fresh cluster would only relabel i
        if (best_c != ci and best_g - g_cur < -eps
                and (best_c != -1 or top > 0)):
            if best_c == -1:
                top -= 1
                best_c = empty[top]
            labels[i] = best_c
            rs[ci] -= rho_i
            cnt[ci] -= 1
            if cnt[ci] == 0:
                empty[top] = ci
                top += 1
            rs[best_c] += rho_i
            cnt[best_c] += 1
            moves += 1
        for t in range(ntouch):
            c = touched[t]
            seen[c] = False
            wsum[c] = 0.0
            rsum[c] = 0.0
    return moves


def _local_move(indptr, indices, weights,
                rep_mode, rep_strength, rep_denom,
                rep_indptr, rep_indices, rep_weights,
                gamma, labels, constraint, rng, max_sweeps):
    """One local-moving phase; mutates `labels` in place.

    Runs `_sweep` passes, each in a fresh `rng.permutation` of the items,
    until a pass accepts no move or `max_sweeps` passes have run.  Returns
    the total number of accepted moves.
    """
    total = 0
    for _ in range(max_sweeps):
        order = rng.permutation(labels.shape[0])
        moves = _sweep(indptr, indices, weights,
                       rep_mode, rep_strength, rep_denom,
                       rep_indptr, rep_indices, rep_weights,
                       gamma, labels, constraint, order, EPSILON)
        total += moves
        if moves == 0:
            break
    return total


def move_delta(indptr, indices, weights,
               rep_mode, rep_strength, rep_denom,
               rep_indptr, rep_indices, rep_weights,
               gamma, labels, cluster_rho, item, target):
    """Energy change of moving one item to `target` (degree-local).

    `cluster_rho[c]` holds the per-cluster sum of rep_strength (the one
    strength lookup needed for product-form repulsion).  `target` may be
    an existing cluster id or K (one past the maximum label) to open a
    new cluster.
    """
    ci = labels[item]
    w_cur = 0.0
    w_tgt = 0.0
    for e in range(indptr[item], indptr[item + 1]):
        j = indices[e]
        if j == item:
            continue
        cj = labels[j]
        if cj == ci:
            w_cur += weights[e]
        if cj == target:
            w_tgt += weights[e]
    rho = rep_strength[item]
    if rep_mode == REP_PRODUCT:
        rs_cur = cluster_rho[ci] - rho
        rs_tgt = 0.0
        if target < cluster_rho.shape[0]:
            rs_tgt = cluster_rho[target]
            if target == ci:
                rs_tgt -= rho
        r_cur = rho * rs_cur / rep_denom
        r_tgt = rho * rs_tgt / rep_denom
    else:
        r_cur = 0.0
        r_tgt = 0.0
        for e in range(rep_indptr[item], rep_indptr[item + 1]):
            j = rep_indices[e]
            if j == item:
                continue
            cj = labels[j]
            if cj == ci:
                r_cur += rep_weights[e]
            if cj == target:
                r_tgt += rep_weights[e]
    g_cur = -w_cur + gamma * r_cur
    g_tgt = -w_tgt + gamma * r_tgt
    if target == ci:
        return 0.0
    return g_tgt - g_cur


# Uncompiled references: the fallback path and the oracle the C port is
# tested against.
energy_components_py = _energy_components
sweep_py = _local_move

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# -ffp-contract=off keeps a*b+c from fusing into one rounding; -ffast-math
# and -march=native are left out for the same reason: every float result
# must round exactly as the Python reference rounds it.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compiled_enabled() -> bool:
    flag = os.environ.get("CONFRES_DISABLE_COMPILED", "").strip().lower()
    return flag not in ("1", "true", "yes")


class _BuildFailed(Exception):
    """The C kernels did not compile; the argument is the marker file that
    holds the compiler's output."""


def _build_library():
    """Path of the compiled kernels, built first if the cache lacks them.

    Returns None when there is no C compiler.  A cache hit runs no
    compiler.  The library is written under a temporary name and renamed
    into place, so a concurrent process never loads a half-written file.
    A failed build leaves a `.failed` marker with the compiler's error
    beside it and raises `_BuildFailed`; while the marker exists no build
    is tried again, so deleting it retries.
    """
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(CFLAGS).encode(), platform.machine().encode()]))
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"),
                         "confres")
    stem = os.path.join(cache, f"kernels-{key.hexdigest()[:16]}")
    path, marker = stem + ".so", stem + ".failed"
    if os.path.exists(path):
        return path
    if os.path.exists(marker):
        raise _BuildFailed(marker)
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run([compiler, *CFLAGS, "-o", tmp, _SOURCE], check=True,
                       capture_output=True, text=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(exc.stderr)
        raise _BuildFailed(marker) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _load_library():
    """The loaded C kernels, or None when the Python reference must run."""
    try:
        path = _build_library()
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except _BuildFailed as exc:
        warnings.warn(f"confres: the C kernels do not build, using the Python "
                      f"reference; compiler output in {exc} (delete "
                      f"it to retry)", RuntimeWarning)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"confres: C kernels unavailable, using the Python "
                      f"reference: {exc}", RuntimeWarning)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    # n, then CSR (indptr, indices, m, weights), the repulsion model and
    # its CSR, as _graph_args orders them
    graph = [i64, ptr, ptr, i64, ptr, i64, ptr, f64, ptr, ptr, i64, ptr]
    lib.energy_components.argtypes = graph[:5] + [ptr] + graph[5:] + [ptr]
    lib.energy_components.restype = i64
    lib.sweep.argtypes = graph + [f64, ptr, ptr, i64, f64, ptr, ptr, ptr]
    lib.sweep.restype = i64
    return lib


# Every pointer handed to C is checked here first: dtype, C-contiguity and
# length of each array.  The C entry points check the range of every value
# used as an index, in one scan before any indexed read, and return a
# negative status when one is out of range; `_raise` maps it to the
# exception.

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def _ptr(name, arr, dtype, length=None):
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or arr.ndim != 1 or not arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous 1-D {dtype} array")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    return arr.ctypes.data


def _csr_args(prefix, n, indptr, indices, weights):
    p_ptr = _ptr(f"{prefix}indptr", indptr, _I64, n + 1)
    p_idx = _ptr(f"{prefix}indices", indices, _I64)
    m = indices.shape[0]
    return p_ptr, p_idx, m, _ptr(f"{prefix}weights", weights, _F64, m)


def _graph_args(n, indptr, indices, weights, rep_mode, rep_strength,
                rep_denom, rep_indptr, rep_indices, rep_weights):
    """The graph arguments every C kernel takes, in C order."""
    if rep_mode not in (REP_PRODUCT, REP_EXPLICIT):
        raise ValueError(f"unknown repulsion mode {rep_mode!r}")
    attraction = _csr_args("", n, indptr, indices, weights)
    p_rho = _ptr("rep_strength", rep_strength, _F64, n)
    repulsion = (None, None, 0, None)  # never read for product-form repulsion
    if rep_mode == REP_EXPLICIT:
        repulsion = _csr_args("rep_", n, rep_indptr, rep_indices, rep_weights)
    return (n, *attraction, rep_mode, p_rho, rep_denom, *repulsion)


def _raise(status, graph_args, labels_error):
    """Raise the error a negative C status stands for; `graph_args` are
    the `_graph_args` the kernel was called with."""
    n, m, rep_m = graph_args[0], graph_args[3], graph_args[10]
    errors = {
        -1: MemoryError("the C kernels could not allocate their scratch arrays"),
        -2: IndexError(labels_error),
        -3: IndexError(f"indptr out of range [0, {m + 1})"),
        -4: IndexError(f"indices out of range [0, {n})"),
        -5: IndexError(f"rep_indptr out of range [0, {rep_m + 1})"),
        -6: IndexError(f"rep_indices out of range [0, {n})"),
    }
    raise errors[status]


def _energy_components_c(indptr, indices, weights, labels,
                         rep_mode, rep_strength, rep_denom,
                         rep_indptr, rep_indices, rep_weights):
    n = labels.shape[0]
    p_lab = _ptr("labels", labels, _I64)
    args = _graph_args(n, indptr, indices, weights, rep_mode, rep_strength,
                       rep_denom, rep_indptr, rep_indices, rep_weights)
    out = np.empty(2)
    status = _LIB.energy_components(*args[:5], p_lab, *args[5:],
                                    out.ctypes.data)
    if status < 0:
        _raise(status, args, "labels must be >= 0")
    return float(out[0]), float(out[1])


def _local_move_c(indptr, indices, weights,
                  rep_mode, rep_strength, rep_denom,
                  rep_indptr, rep_indices, rep_weights,
                  gamma, labels, constraint, rng, max_sweeps):
    n = labels.shape[0]
    p_lab = _ptr("labels", labels, _I64)
    if not labels.flags.writeable:
        raise ValueError("labels must be writable: sweep moves items in place")
    p_con = _ptr("constraint", constraint, _I64, n)
    args = _graph_args(n, indptr, indices, weights, rep_mode, rep_strength,
                       rep_denom, rep_indptr, rep_indices, rep_weights)
    bitgen = rng.bit_generator
    draw = bitgen.ctypes
    with bitgen.lock:
        moves = _LIB.sweep(*args, gamma, p_lab, p_con, max_sweeps, EPSILON,
                           draw.state_address, draw.next_uint32,
                           draw.next_uint64)
    if moves < 0:
        _raise(moves, args, f"labels out of range [0, {n})")
    return moves


_LIB = _load_library() if _compiled_enabled() else None
if _LIB is None:
    BACKEND = "python"
    energy_components = _energy_components
    sweep = _local_move
else:
    BACKEND = "c"
    energy_components = _energy_components_c
    sweep = _local_move_c

# Always False: numba is no longer a backend.  perfbench/worker.py still
# reads this name to label its results, so it stays until the benchmark
# reads BACKEND instead.
NUMBA_ENABLED = False
