"""kNN graph construction and attraction/repulsion affinity graphs."""

from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .errors import InputError, NumericalError, ParameterError, check_integer
from .kernels import REP_EXPLICIT, REP_PRODUCT

REPULSION_SCHEMES = ("configuration_null", "uniform", "explicit")
AFFINITY_KERNELS = ("self_tuning_gaussian", "inverse_distance")


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetrized kNN graph: undirected (i, j, distance) edges."""

    n: int
    edges: np.ndarray       # (m, 2) int64, i < j, unique
    distances: np.ndarray   # (m,) float64
    k: int


@dataclass(frozen=True)
class AffinityGraph:
    """Sparse symmetric attraction weights plus a repulsion scheme.

    Attraction is stored in CSR form with both edge directions so the
    optimizer kernels can walk neighbourhoods directly.  Repulsion is
    either product-form (rho_i * rho_j / rep_denom, covering the
    configuration-null and uniform schemes) or an explicit CSR map.

    `kernels.check_graph` checks a graph once, when it is made: ValueError
    unless the kernels can read its arrays, InputError unless its CSRs are
    symmetric, with rising columns in [0, n) off the diagonal, and its
    numbers finite.  No kernel checks it again, so it owns its arrays: each
    read-only and a view of no other (`_owned`), else a read-only copy.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    strengths: np.ndarray        # s_i = sum_j w+_ij
    total_weight: float          # W = sum_{i<j} w+_ij
    repulsion_scheme: str
    rep_strength: np.ndarray     # rho_i for the product form
    rep_denom: float
    rep_indptr: np.ndarray = field(default=None)
    rep_indices: np.ndarray = field(default=None)
    rep_weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.rep_indptr is None:  # an empty CSR, owned as any array is
            object.__setattr__(self, "rep_indptr", np.zeros(self.n + 1, dtype=np.int64))
            object.__setattr__(self, "rep_indices", np.empty(0, np.int64))
            object.__setattr__(self, "rep_weights", np.empty(0))
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray) and (value.flags.writeable
                                                  or value.base is not None):
                value = value.copy()
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        # the C kernels' view of the arrays, None without them
        object.__setattr__(self, "_kernel_graph", kernels.check_graph(self))

    @property
    def rep_mode(self) -> int:
        return REP_EXPLICIT if self.repulsion_scheme == "explicit" else REP_PRODUCT

    @property
    def _kernel_args(self) -> tuple:
        """The CSRs and the repulsion model in `kernels.sweep`'s argument
        order, which perfbench's tracer reads by position."""
        return (self.indptr, self.indices, self.weights, self.rep_mode,
                self.rep_strength, self.rep_denom, self.rep_indptr,
                self.rep_indices, self.rep_weights)

    def __reduce__(self):
        # a copy or an unpickled graph is made, so checked and owned, anew
        return type(self), tuple(vars(self)[f.name] for f in fields(self))

    def attraction_dense(self) -> np.ndarray:
        """Dense w+ matrix; intended for small-n tests and oracles."""
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        a[rows, self.indices] = self.weights
        return a

    def repulsion_dense(self) -> np.ndarray:
        """Dense w- matrix under the active scheme (zero diagonal)."""
        if self.rep_mode == REP_PRODUCT:
            r = np.outer(self.rep_strength, self.rep_strength) / self.rep_denom
            np.fill_diagonal(r, 0.0)
            return r
        r = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.rep_indptr))
        r[rows, self.rep_indices] = self.rep_weights
        return r


def _owned(**fields) -> AffinityGraph:
    """The graph of fresh arrays, marked read-only: it keeps them uncopied."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return AffinityGraph(**fields)


def _check_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] < 1:
        raise InputError("points must be an n x d matrix with n >= 2, d >= 1")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite coordinates")
    return points


def build_knn_graph(points, k: int, metric: str = "euclidean") -> NeighborGraph:
    """Link each item to its k nearest others; edge set is the union.

    Ties in distance are broken by smaller item index, so the graph is
    deterministic for a given point matrix.  The graph is one call of
    `kernels.knn_graph`: an exact kd-tree search in C, batched by leaf,
    typically O(n k log n) time, also for large groups of identical
    points, then the O(n k + n) pair grouping of `kernels.pairs`; O(n k)
    arrays plus O(n (d + k)) C scratch that tracemalloc does not see.
    Without the C kernels it is a chunked brute force in numpy, then the
    numpy pair grouping.  Cosine distance is searched as |u - v|^2 / 2
    between unit vectors, which equals 1 - cos.
    """
    points = _check_points(points)
    n = points.shape[0]
    check_integer("k", k)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    if metric == "cosine":
        norms = np.linalg.norm(points, axis=1)
        if np.any(norms == 0.0):
            raise NumericalError("cosine metric undefined for zero vectors")
        points = points / norms[:, None]
    elif metric != "euclidean":
        raise ParameterError(f"unknown metric {metric!r}")
    edges, dist = kernels.knn_graph(points, k, metric)
    return NeighborGraph(n=n, edges=edges, distances=dist, k=k)


def _pairs(n, rows, cols, vals, mean=False):
    """(rows, cols, vals, indptr, indices, weights): the sorted unique
    unordered pairs (row <= col) of the entries over n items, the weights
    of each pair's repeats summed in input order (or averaged, with
    `mean`), and their both-direction CSR, each row's columns ascending,
    each entry holding its pair's weight.  One call of `kernels.pairs`,
    O(m + n), on the arrays as C-contiguous int64, int64 and float64."""
    return kernels.pairs(n, np.ascontiguousarray(rows, dtype=np.int64),
                         np.ascontiguousarray(cols, dtype=np.int64),
                         np.ascontiguousarray(vals, dtype=np.float64), mean)


def _with_repulsion(n, indptr, indices, weights, strengths, total, scheme,
                    rep_csr):
    """The AffinityGraph of the attraction CSR, its strengths and total
    weight, with the repulsion of `scheme`, which `_check_repulsion` has
    passed; `rep_csr` is the CSR of the explicit scheme."""
    if total <= 0.0:
        raise NumericalError("total attraction weight W must be positive")
    kwargs = {}
    if scheme == "configuration_null":
        rep_strength = strengths  # one array for both
        rep_denom = 2.0 * total
    elif scheme == "uniform":
        rep_strength = np.ones(n)
        rep_denom = float(n)
    else:
        rep_strength = np.zeros(n)
        rep_denom = 1.0
        ri, rj, rw = rep_csr
        kwargs = {"rep_indptr": ri, "rep_indices": rj, "rep_weights": rw}
    return _owned(
        n=n, indptr=indptr, indices=indices, weights=weights,
        strengths=strengths, total_weight=total,
        repulsion_scheme=scheme, rep_strength=rep_strength,
        rep_denom=rep_denom, **kwargs)


def _merge_pairs(n, edges, label="edge"):
    """Average duplicate directions / repeats of unordered pairs: `_pairs`
    of the checked (i, j, w) rows."""
    arr = np.asarray(edges, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InputError(f"{label} rows must be (i, j, w) triples")
    # contiguous: numpy reduces a strided view many times slower
    ends, w = np.ascontiguousarray(arr[:, :2]), arr[:, 2]
    # whole-array bounds decide (a NaN fails them, since min and max
    # propagate it); the per-edge masks only name the first bad edge
    if arr.shape[0] and not (
            ends.min() >= 0 and ends.max() < n and w.min() >= 0.0
            and w.max() < np.inf and np.all(np.trunc(ends) == ends)
            and not np.any(ends[:, 0] == ends[:, 1])):
        # a NaN or infinite index is out of range, not a fraction
        fraction = np.any(np.isfinite(ends) & (np.trunc(ends) != ends), axis=1)
        in_range = np.all((ends >= 0) & (ends < n), axis=1)
        bad = (fraction | ~in_range | (ends[:, 0] == ends[:, 1])
               | ~(np.isfinite(w) & (w >= 0.0)))
        e = int(np.argmax(bad))
        i, j = (int(x) if x.is_integer() else x for x in ends[e])
        if fraction[e]:
            raise InputError(f"{label} index ({i}, {j}) is not an integer")
        if not in_range[e]:
            raise InputError(f"{label} index ({i}, {j}) out of range for n={n}")
        if i == j:
            raise InputError(f"self-loop ({i}, {i}) not allowed")
        raise InputError(f"{label} weight {w[e]} on ({i}, {j}) must be "
                         f"finite and non-negative")
    return _pairs(n, ends[:, 0], ends[:, 1], w, mean=True)


def _repulsion_csr(n, repulsion_edges):
    """The CSR of the merged repulsion edges, or None without them."""
    if repulsion_edges is None:
        return None
    return _merge_pairs(n, repulsion_edges, label="repulsion")[3:]


def _check_repulsion(scheme, repulsion_edges):
    """ParameterError unless `scheme` is one of REPULSION_SCHEMES and
    repulsion edges come with the explicit scheme and only with it."""
    if repulsion_edges is not None and scheme != "explicit":
        raise ParameterError(f"repulsion edges need the explicit repulsion "
                             f"scheme, got {scheme!r}")
    if scheme not in REPULSION_SCHEMES:
        raise ParameterError(f"unknown repulsion scheme {scheme!r}")
    if repulsion_edges is None and scheme == "explicit":
        raise ParameterError("explicit repulsion scheme needs repulsion edges")


def from_edge_list(n: int, edges, repulsion_scheme: str = "configuration_null",
                   repulsion_edges=None) -> AffinityGraph:
    """Build an AffinityGraph from (i, j, w+) triples.

    Duplicate directions of the same unordered pair are averaged.
    ParameterError unless n is an integer >= 1 and the repulsion
    arguments fit (`_check_repulsion`); InputError naming the first edge
    or repulsion edge whose indices are no integers in [0, n) (`2.0` reads
    as 2, a NaN index is out of range), that is a self-loop, or whose
    weight is not finite and >= 0.
    """
    check_integer("n", n, 1)
    n = int(n)
    _check_repulsion(repulsion_scheme, repulsion_edges)
    if len(edges) == 0:
        raise InputError("edge list is empty")
    rows, cols, vals, *csr = _merge_pairs(n, edges)
    # each item's strength: from 0.0 over its pairs, in pair order over
    # `rows`, then over `cols` (np.bincount adds in input order)
    strengths = np.bincount(np.concatenate([rows, cols]),
                            weights=np.concatenate([vals, vals]), minlength=n)
    return _with_repulsion(n, *csr, strengths, float(np.sum(vals)),
                           repulsion_scheme,
                           _repulsion_csr(n, repulsion_edges))


def _edge_arrays(graph: NeighborGraph):
    """The graph's edges and distances as the kernels read them: a
    C-contiguous (m, 2) int64 array and m float64 values; InputError
    unless they have those shapes and the edges are integers."""
    edges = np.asarray(graph.edges)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise InputError(f"edges must be an (m, 2) integer array, got shape "
                         f"{edges.shape} of {edges.dtype}")
    dist = np.asarray(graph.distances, dtype=np.float64)
    if dist.shape != (edges.shape[0],):
        raise InputError(f"distances of shape {dist.shape} for "
                         f"{edges.shape[0]} edges")
    return (np.ascontiguousarray(edges, dtype=np.int64),
            np.ascontiguousarray(dist))


def derive_affinity(graph: NeighborGraph, kernel: str = "self_tuning_gaussian",
                    repulsion_scheme: str = "configuration_null",
                    repulsion_edges=None) -> AffinityGraph:
    """Kernelize distances, row-normalize, symmetrize w+ = (P + P^T) / 2.

    The graph need not come from `build_knn_graph`: InputError unless its
    edges are unique pairs (i, j), 0 <= i < j < n, in increasing order,
    each with a finite distance >= 0, and every item has an edge;
    ParameterError unless k and n are integers >= 1.  Two kernel calls (C, or
    without it their numpy references), `kernels.affinity_layout` and
    `kernels.affinity_weights`, around numpy's exp do the work in
    O(m + n) for m edges, plus a selection per item for the Gaussian's
    sigma.
    """
    if kernel not in AFFINITY_KERNELS:
        raise ParameterError(f"unknown kernel {kernel!r}")
    _check_repulsion(repulsion_scheme, repulsion_edges)
    k = graph.k
    check_integer("k", k, 1)
    check_integer("n", graph.n, 1)
    n = int(graph.n)
    edges, dist = _edge_arrays(graph)
    gaussian = kernel == "self_tuning_gaussian"
    # sigma_i = distance to the ceil(k/2)-th neighbour of i, a selection in
    # i's edge distances.  Where duplicates make it 0, take i's nearest
    # non-zero distance; only items whose edges are all at distance 0 keep
    # sigma = 0.  A rank past n is past every degree, as k itself is.
    rank = min((int(k) + 1) // 2, n)
    layout, vals = kernels.affinity_layout(n, edges, dist, rank, not gaussian)
    sim = np.exp(vals) if gaussian else vals
    # stochastic reweighting: rows of the similarity matrix sum to one
    w, strengths, weights = kernels.affinity_weights(n, edges, layout[2], sim)
    return _with_repulsion(n, *layout[:2], weights, strengths,
                           float(w.sum()), repulsion_scheme,
                           _repulsion_csr(n, repulsion_edges))


def read_text(path) -> str:
    """The file's text without a leading byte-order mark, every newline
    read as a line feed; InputError unless it is UTF-8."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _is_header(line) -> bool:
    """The header rule of a points file, for its first non-blank line:
    a header unless every field is a number."""
    try:
        [float(x) for x in line.split(",")]
    except ValueError:
        return True
    return False


def _row_points(path, body) -> np.ndarray:
    """The points of `body`, the text of a points file after its header,
    row by row, every field with Python's float: the reference of the C
    reader, and the only source of its error messages.  Raises the
    InputError of the first row that is not numeric or has another width
    than the first."""
    rows = []
    for ln in map(str.strip, body.split("\n")):
        if not ln:
            continue
        try:
            rows.append([float(x) for x in ln.split(",")])
        except ValueError as exc:
            raise InputError(f"non-numeric row in {path}: {ln!r}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"row {ln!r} in {path} has {len(rows[-1])} "
                             f"columns, expected {len(rows[0])}")
    return np.array(rows)


def load_points_csv(path) -> np.ndarray:
    """n x d numeric CSV, optional header row: a first non-blank line
    whose fields are not all numbers.

    The file is read once, by `read_text`, which decides its lines.  With
    the C kernels the body after the header goes, as bytes that end in a
    line feed, to one C pass (`kernels.parse_points`, its output sized
    from the byte length), which reads it when every field fits the
    grammar `[ \\t]*[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?[ \\t]*`, blank lines
    skipped, each number read by strtod.
    A body it declines (underscores, `inf` or `nan`, hex, non-ASCII text,
    a ragged or non-numeric row), or any body without the C kernels, is
    read row by row, each field with Python's float, which also words
    every error.  Both give the same bits, since both round each number
    correctly.
    """
    text = read_text(path)
    if not text.endswith("\n"):
        text += "\n"
    start = 0
    while True:  # to the first non-blank line
        end = text.find("\n", start)
        if end < 0:
            raise InputError(f"empty points file: {path}")
        line = text[start:end].strip()
        if line:
            break
        start = end + 1
    body = text[end + 1:] if _is_header(line) else text[start:]
    points = None
    if kernels.parse_points is not None:
        points = kernels.parse_points(body.encode())
    if points is None:
        points = _row_points(path, body)
    return _check_points(points)


def is_integer_label(value) -> bool:
    """True for an int or float that is integral and fits in int64."""
    # NaN and inf fail the range test before int() could raise on them
    return -2 ** 63 <= value < 2 ** 63 and value == int(value)


def load_labels_csv(path) -> np.ndarray:
    """Single integer column, header tolerated; `1.0` is read as 1."""
    lines = [ln for ln in map(str.strip, read_text(path).split("\n")) if ln]
    if not lines:
        raise InputError(f"empty labels file: {path}")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1
    labels = []
    for ln in lines[start:]:
        if "," in ln:
            raise InputError(f"label row {ln!r} in {path} has "
                             f"{ln.count(',') + 1} columns, expected 1")
        try:
            value = float(ln)
        except ValueError:
            value = np.nan  # not a number: rejected below
        if not is_integer_label(value):
            raise InputError(f"non-integer label row {ln!r} in {path}")
        labels.append(int(value))
    return np.array(labels, dtype=np.int64)
