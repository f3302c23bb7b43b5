"""Spectral clustering driven by the deflation solver.

Pipeline: mutual-r-nearest-neighbor similarity graph with RBF weights,
degree-normalized Laplacian, top-k eigenvector embedding extracted with the
inexact deflation algorithm, k-means on the embedded rows, and a mutual
information score against ground-truth labels.

The sweep deliberately embeds from the *top* end of the Laplacian spectrum
(``spectrum_end="top"``); ``"bottom"`` embeds from the other end for
comparison by deflating 2I - L instead. Laplacians routinely carry
(near-)repeated eigenvalues, and the embedding reads only the output
vectors, so :func:`spectral_embed` runs the deflation loop itself, without
a reference spectrum or an oracle. It keeps the outputs so far, V, and
their Rayleigh quotients rho, not a deflated matrix, and multiplies by
sigma_k x = sigma_1 x - V (rho * V^T x). The matrix to deflate is built
once per sweep, in the one n x n buffer the graph was built in, and kept
in compressed sparse row (CSR) form when few of its entries are nonzero,
as for r much smaller than n; a cell on a sparse graph then allocates no
n x n array: its memory is O(nk + nnz).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IsolatedNodeError
from .linalg import RandomSource, SymMatrix, sample_unit_sphere
from .powerit import power_iterate

__all__ = [
    "ClusteringCell",
    "ClusteringSummary",
    "Dataset",
    "build_rnn_graph",
    "kmeans",
    "mutual_information",
    "normalized_laplacian",
    "run_clustering_experiment",
    "spectral_embed",
    "synthetic_blobs",
]

_EMBED_STREAM = 0
_KMEANS_STREAM = 1
# A CSR product costs a gather, a multiply and a segmented sum per stored
# entry, against one streamed multiply-add per entry for the dense product.
# Measured on blob Laplacians, the two cost the same at about 7% nonzeros
# for n = 500 and 13% for n = 1000 and 2000; the rule sits between.
_CSR_MAX_DENSITY = 1 / 12
# The set-up's temporaries span this many rows of an n x n matrix: 1 MB of
# doubles per block at n = 1000, against 8 MB for the whole matrix.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, p) with integer labels covering a contiguous range."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.array(self.features, dtype=float)
        y = np.array(self.labels, dtype=np.int64)
        if x.ndim != 2 or not x.shape[1] or y.shape != (x.shape[0],):
            raise DimensionMismatchError("features must be (n, p), p >= 1, with one label per row")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        uniq = np.unique(y)
        if not np.array_equal(uniq, np.arange(uniq.min(), uniq.max() + 1)):
            raise ValueError("labels must cover a contiguous integer range")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]


def build_rnn_graph(data: Dataset, r: int) -> np.ndarray:
    """Connect points that appear in each other's r nearest neighbors.

    Returns the read-only (n, n) weight matrix: symmetric, zero on the
    diagonal and zero between points that are not joined. Edge weight is
    exp(-||x_i - x_j||^2 / 2); two coincident points get weight 1. Distance
    ties at the r-th neighbor break toward the lower index, which keeps the
    graph a deterministic function of the data.

    The matrix is built in the one n x n buffer that the Gram matrix
    x x^T is computed into: the distances, their symmetrization and the
    weights overwrite it, and every other temporary spans at most
    ``_BLOCK_ROWS`` rows. The returned array owns that buffer.
    """
    n = data.n
    if not 1 <= r < n:
        raise ValueError(f"r must lie in [1, {n - 1}]")
    x = data.features
    sq = (x * x).sum(axis=1)
    # one product, as blocks of rows would round some entries differently
    d2 = x @ x.T
    # max(sq_i + sq_j - 2 x_i.x_j, 0), then averaged with its transpose;
    # each entry sees the same operations in the same order as it would
    # over whole n x n arrays
    for i0, i1 in _row_blocks(n):
        block = d2[i0:i1]
        block *= 2.0
        np.subtract(np.add(sq[i0:i1, None], sq[None, :]), block, out=block)
        np.maximum(block, 0.0, out=block)
    neighbor = np.empty((n, n), dtype=bool)
    for i0, i1 in _row_blocks(n):
        # rows [i0, i1) hold their final distances once their strip is
        # symmetrized, since the earlier strips wrote their columns
        _symmetrize_strip(d2, i0, i1)
        rows = np.arange(i0, i1)
        d2[rows, rows] = np.inf
        _select_neighbors(d2[i0:i1], r, out=neighbor[i0:i1])
    adjacency = neighbor | neighbor.T
    del neighbor
    # the weights overwrite the distances; exp runs on the joined pairs only,
    # and the diagonal is never joined
    joined = d2[adjacency]
    joined *= -0.5
    weights = d2
    weights.fill(0.0)
    weights[adjacency] = np.exp(joined, out=joined)
    weights.setflags(write=False)
    return weights


def _row_blocks(n: int):
    return ((i0, min(i0 + _BLOCK_ROWS, n)) for i0 in range(0, n, _BLOCK_ROWS))


def _symmetrize_strip(a: np.ndarray, i0: int, i1: int) -> None:
    """Replace a's rows and columns [i0, i1), from the diagonal block on, by
    (a + a^T) / 2; across every block of rows in order this is
    ``(a + a.T) / 2`` with its bits. Entry (i, j) and entry (j, i) are both
    a_ij + a_ji, which IEEE addition makes one value."""
    s = np.add(a[i0:i1, i0:], a[i0:, i0:i1].T)
    s /= 2.0
    a[i0:i1, i0:] = s
    a[i0:, i0:i1] = s.T


def _select_neighbors(d2: np.ndarray, r: int, out: np.ndarray) -> None:
    """Mark in ``out`` the first r columns of a stable argsort of each row
    of ``d2``: every entry below the row's r-th smallest distance, then the
    lowest-index entries equal to it until r are chosen. Only a row with
    more ties than room needs the running count; every other row takes all
    of its ties."""
    kth = np.partition(d2, r - 1, axis=1)[:, [r - 1]]
    np.less(d2, kth, out=out)
    tie = d2 == kth
    room = r - np.count_nonzero(out, axis=1)
    crowded = np.flatnonzero(np.count_nonzero(tie, axis=1) > room)
    if crowded.size:
        ties = tie[crowded]
        ties &= np.cumsum(ties, axis=1, dtype=np.int32) <= room[crowded, None]
        tie[crowded] = ties
    out |= tie


def normalized_laplacian(weights: np.ndarray) -> SymMatrix:
    """Degree-normalized Laplacian I - D^{-1/2} W D^{-1/2}; spectrum in [0, 2].

    ``weights`` is left as it is: the Laplacian is built in one copy of it.
    """
    return SymMatrix._trusted(_laplacian_in_place(np.array(weights, dtype=float)))


def _laplacian_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the weight matrix ``a`` with its normalized Laplacian,
    with the bits of the same operations over whole n x n arrays."""
    degrees = a.sum(axis=1)
    dead = np.flatnonzero(degrees <= 0.0)
    if dead.size:
        raise IsolatedNodeError(int(dead[0]))
    inv_sqrt = 1.0 / np.sqrt(degrees)
    a *= inv_sqrt[:, None]
    a *= inv_sqrt[None, :]
    _identity_minus(1.0, a, out=a)
    for i0, i1 in _row_blocks(a.shape[0]):
        _symmetrize_strip(a, i0, i1)
    # bitwise symmetric, and 0.0 - m gives no -0.0 for the nonnegative m
    return a


def _identity_minus(c: float, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c I - m with the bits of ``c * np.eye(n) - m``, without the identity:
    0.0 - m_ij off the diagonal and (0.0 - m_ii) + c on it."""
    out = np.subtract(0.0, m, out=out)
    out.flat[:: out.shape[0] + 1] += c
    return out


class _CsrMatrix:
    """A symmetric matrix in compressed sparse row form, as an operator with
    ``dim`` and ``matvec(x, out)``.

    Row i stores ``data[starts[i]:starts[i + 1]]`` in the columns ``cols``
    of the same slice. Every diagonal entry is stored, zero or not, so no
    row is empty: ``np.add.reduceat`` gives an empty segment the value at
    its start instead of 0.
    """

    __slots__ = ("dim", "_data", "_cols", "_starts")

    def __init__(self, a: np.ndarray, stored: np.ndarray) -> None:
        rows, self._cols = np.nonzero(stored)
        self._data = a[rows, self._cols]
        self._starts = np.searchsorted(rows, np.arange(a.shape[0]))
        self.dim = a.shape[0]

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self._data * x[self._cols], self._starts, out=out)


class _DeflatedOperator:
    """sigma_k of the embedding's run: the rows of ``_v[:k]`` are the
    outputs deflated so far, ``_rho[:k]`` their Rayleigh quotients, and the
    product is sigma_1 x - V^T (rho * V x). Until the first update it is
    sigma_1's own product, with its bits."""

    __slots__ = ("dim", "_base", "_v", "_rho", "_k")

    def __init__(self, sigma, K: int) -> None:
        self.dim = sigma.dim
        self._base = sigma.matvec
        self._v = np.empty((K, sigma.dim))
        self._rho = np.empty(K)
        self._k = 0

    @property
    def matvec(self):
        return self._deflated_matvec if self._k else self._base

    def _deflated_matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._base(x, out)
        v = self._v[:self._k]
        c = v.dot(x)
        c *= self._rho[:self._k]
        out -= c.dot(v)
        return out

    def deflate(self, v: np.ndarray) -> None:
        """sigma_{k+1} = sigma_k - (v . sigma_k v) v v^T, kept as (v, rho)."""
        rho = float(v @ self.matvec(v, np.empty(self.dim)))
        if not math.isfinite(rho):
            raise ValueError(f"Rayleigh quotient {rho} of the deflation vector is not finite")
        self._v[self._k] = v
        self._rho[self._k] = rho
        self._k += 1


def _laplacian_target(weights: np.ndarray, spectrum_end: str) -> SymMatrix:
    """The matrix whose top eigenvectors are the Laplacian's at
    ``spectrum_end``: L itself, or 2I - L, which reverses the spectrum
    within its [0, 2] range. Both are built in ``weights``'s own buffer,
    which must be the array :func:`build_rnn_graph` returned, with no other
    reference to it."""
    weights.setflags(write=True)
    a = _laplacian_in_place(weights)
    if spectrum_end == "bottom":
        # bitwise symmetric like L, with no -0.0 (0.0 - x is +0.0 for x = 0)
        _identity_minus(2.0, a, out=a)
    return SymMatrix._trusted(a)


def _embedding_operator(target: SymMatrix):
    """``target`` as the sweep's runs multiply by it: in CSR form when at
    most ``_CSR_MAX_DENSITY`` of its entries (its diagonal counted as
    stored) are nonzero, else the dense matrix itself."""
    a = target.array
    stored = a != 0
    np.fill_diagonal(stored, True)
    if np.count_nonzero(stored) > _CSR_MAX_DENSITY * stored.size:
        return target
    return _CsrMatrix(a, stored)


def spectral_embed(target, k: int, t: int, rng: RandomSource) -> np.ndarray:
    """Embed each node as its row in the matrix of k deflation outputs, the
    approximate top eigenvectors of ``target`` (the Laplacian, or 2I - L to
    embed from the Laplacian's bottom end), a :class:`SymMatrix` or any
    symmetric operator with ``dim`` and ``matvec(x, out)``, such as the
    sweep's CSR form. Step j starts from substream j of the embed stream."""
    n = target.dim
    _check_count("k", k, n)
    if t < 1:
        raise ValueError("t must be >= 1")
    stream = rng.substream(_EMBED_STREAM)
    current = _DeflatedOperator(target, k)
    features = np.empty((n, k))
    for j in range(1, k + 1):
        v = power_iterate(current, sample_unit_sphere(n, stream.substream(j)), t)
        features[:, j - 1] = v
        if j < k:
            current.deflate(v)
    return features


def _check_count(name: str, value: int, n: int) -> None:
    if not 1 <= value <= n:
        raise ValueError(f"{name} must lie in [1, {n}]")


def kmeans(points: np.ndarray, k_clusters: int, rng: RandomSource) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding.

    Runs until the assignment reaches a fixpoint or 300 passes. A cluster
    that empties is repaired by re-seeding it at the point of the largest
    cluster farthest from that cluster's center.

    Each pass assigns a point to the center nearest by the squared distance
    ||x||^2 - 2 x.c + ||c||^2, one matrix product per pass, and moves every
    center to the mean of its members, summed in row order. The distances
    differ from sum((x - c)^2) in their last bits; the contract is the
    assignments, which the two forms agree on for the sweep's inputs. The
    seeding and the re-seeding keep sum((x - c)^2), since those distances
    decide the generator's draws and the re-seed order.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatchError("points must be a 2-d array")
    n = x.shape[0]
    _check_count("k_clusters", k_clusters, n)
    gen = rng.generator
    centers = _seed_centers(x, k_clusters, gen)
    sq = (x * x).sum(axis=1)[:, None]
    # each contiguous column is summed per cluster by one bincount
    columns = np.ascontiguousarray(x.T)
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(300):
        # scaling by -2 is exact, so this is -2 (x @ centers.T) bit for bit
        d2 = x @ (-2.0 * centers.T)
        d2 += sq
        d2 += (centers * centers).sum(axis=1)
        new_assign = d2.argmin(axis=1)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        counts = np.bincount(assignments, minlength=k_clusters)
        filled = counts > 0
        sums = np.array([np.bincount(assignments, weights=c, minlength=k_clusters)
                         for c in columns])
        centers[filled] = (sums[:, filled] / counts[filled]).T
        if not filled.all():
            _reseed_empty(x, assignments, centers, np.flatnonzero(~filled))
    return assignments


def _seed_centers(x, k, gen):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(gen.integers(n))]
    if k == 1:
        return centers
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(gen.integers(n))
        else:
            idx = int(gen.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _reseed_empty(x, assignments, centers, empty):
    # split the largest cluster: its farthest members become the new centers,
    # one distinct point per emptied slot
    counts = np.bincount(assignments, minlength=centers.shape[0])
    big = int(counts.argmax())
    members = np.flatnonzero(assignments == big)
    dists = ((x[members] - centers[big]) ** 2).sum(axis=1)
    order = members[np.argsort(-dists, kind="stable")]
    for slot, c in enumerate(empty):
        centers[c] = x[order[min(slot, order.size - 1)]].copy()


def mutual_information(c, c_star) -> float:
    """Mutual information between two partitions (natural log).

    Empty joint cells contribute zero (the 0 log 0 = 0 convention); the score
    is symmetric in its arguments and non-negative.
    """
    a = np.asarray(c, dtype=np.int64)
    b = np.asarray(c_star, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError("assignments must be equal-length 1-d arrays")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    joint = np.bincount(ai * kb + bi, minlength=ka * kb).reshape(ka, kb) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    mi = float((joint[mask] * np.log(joint[mask] / np.outer(pa, pb)[mask])).sum())
    return max(mi, 0.0)


@dataclass(frozen=True)
class ClusteringCell:
    t: int
    seed: int
    mi: float


@dataclass(frozen=True)
class ClusteringSummary:
    t: int
    mean_mi: float
    std_mi: float


def _run_cell(target, labels, k, k_clusters, row_normalize, t, seed) -> ClusteringCell:
    """Embed, cluster and score one (t, seed) cell against ``labels``."""
    root = RandomSource(seed)
    # the top end of the target is the requested end of the Laplacian
    features = spectral_embed(target, k, t, root)
    if row_normalize:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        features = features / np.maximum(norms, 1e-300)
    assignments = kmeans(features, k_clusters, root.substream(_KMEANS_STREAM))
    return ClusteringCell(t=t, seed=seed, mi=mutual_information(assignments, labels))


# the sweep's shared inputs in a worker process, set once by _init_worker
_worker_inputs: tuple = ()


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_cell(ts: tuple[int, int]) -> ClusteringCell:
    return _run_cell(*_worker_inputs, *ts)


def run_clustering_experiment(
    data: Dataset,
    r: int,
    k: int,
    k_clusters: int,
    t_values,
    seeds,
    *,
    spectrum_end: str = "top",
    row_normalize: bool = False,
    jobs: int = 1,
) -> tuple[list[ClusteringCell], list[ClusteringSummary]]:
    """Run the full pipeline over every (t, seed) cell and score each run.

    The graph, the Laplacian and the matrix the embedding deflates (the
    Laplacian itself, or 2I - L for the bottom end) depend only on the data,
    so they are built once, one after another in the same n x n buffer, and
    that matrix, in CSR form when it is sparse, is shared read-only by every
    cell; no dense matrix outlives its CSR form. With ``jobs > 1`` the cells
    run in N = min(jobs, cells) worker processes, which receive the shared
    inputs once when they start (forked where the platform can fork, so the
    inputs are inherited rather than pickled). A cell's argument errors are
    raised here before any work starts. A repeated t value or seed is run
    once. Cells are submitted longest (largest t) first; results come back
    sorted by (t, seed) and are byte-identical for every ``jobs``.
    """
    t_values = list(dict.fromkeys(int(t) for t in t_values))
    seeds = list(dict.fromkeys(int(s) for s in seeds))
    if not t_values:
        raise ValueError("need at least one t value")
    if not seeds:
        raise ValueError("need at least one seed")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if spectrum_end not in ("top", "bottom"):
        raise ValueError("spectrum_end must be 'top' or 'bottom'")
    for seed in seeds:
        RandomSource(seed)  # rejects a seed outside [0, 2**64)
    # k defaults to the cluster count, so the cluster count is checked first
    _check_count("k_clusters", k_clusters, data.n)
    _check_count("k", k, data.n)
    if min(t_values) < 1:
        raise ValueError("t must be >= 1")
    # the cells read only the operator: the dense target, built in the
    # graph's buffer, is freed here unless the operator is that matrix
    target = _embedding_operator(_laplacian_target(build_rnn_graph(data, r), spectrum_end))
    inputs = (target, data.labels, k, k_clusters, row_normalize)

    # a cell's cost grows with t: submitting the longest first keeps the
    # last worker from finishing alone on a long cell
    cells_spec = sorted(((t, s) for t in t_values for s in seeds), key=lambda ts: -ts[0])
    # a fork pool starts every worker up front, so never more than the cells
    workers = min(jobs, len(cells_spec))
    if workers > 1:
        import multiprocessing

        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
            initargs=inputs,
        ) as pool:
            cells = list(pool.map(_worker_cell, cells_spec))
    else:
        cells = [_run_cell(*inputs, t, s) for t, s in cells_spec]
    cells.sort(key=lambda cell: (cell.t, cell.seed))

    summary = []
    for t in sorted(set(t_values)):
        scores = np.array([cell.mi for cell in cells if cell.t == t])
        summary.append(
            ClusteringSummary(
                t=t,
                mean_mi=float(scores.mean()),
                std_mi=float(scores.std(ddof=0)),
            )
        )
    return cells, summary


def synthetic_blobs(n: int = 500, clusters: int = 10, seed: int = 0) -> Dataset:
    """Deterministic Gaussian-blob fixture with contiguous labels in 4
    features.

    Centers are drawn once from a Gaussian scaled by 2.2 and points spread
    around them with standard deviation 0.4, split across clusters as evenly
    as n allows. This geometry keeps within-blob distances O(1), which is
    where the unit-variance RBF weight is informative.
    """
    if clusters < 1 or n < clusters:
        raise ValueError("need at least one point per cluster")
    gen = RandomSource(seed).generator
    centers = gen.standard_normal((clusters, 4)) * 2.2
    counts = np.full(clusters, n // clusters)
    counts[: n % clusters] += 1
    labels = np.repeat(np.arange(clusters), counts)
    points = centers[labels] + gen.standard_normal((n, 4)) * 0.4
    return Dataset(features=points, labels=labels)
