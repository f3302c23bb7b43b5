import concurrent.futures
import hashlib
import math
import multiprocessing
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deflatrix
from deflatrix import clustering
from deflatrix.clustering import (
    Dataset,
    _run_cell,
    build_rnn_graph,
    kmeans,
    mutual_information,
    normalized_laplacian,
    run_clustering_experiment,
    spectral_embed,
    synthetic_blobs,
)
from deflatrix.deflate import deflate_step
from deflatrix.errors import DegenerateIterateError, DimensionMismatchError, IsolatedNodeError
from deflatrix.linalg import (
    PowerLawSpectrum,
    RandomSource,
    SymMatrix,
    build_test_sigma,
    jacobi_eigendecomposition,
    random_orthogonal_basis,
    sample_unit_sphere,
)
from deflatrix.powerit import power_iterate


def two_cluster_points():
    return Dataset(
        features=np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]]
        ),
        labels=np.array([0, 0, 0, 1, 1, 1]),
    )


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.nan]]), labels=np.array([0]))

    def test_rejects_gappy_labels(self):
        with pytest.raises(ValueError, match="contiguous"):
            Dataset(features=np.zeros((3, 1)), labels=np.array([0, 2, 0]))

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(DimensionMismatchError, match="p >= 1"):
            Dataset(features=np.zeros((4, 0)), labels=np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("n, clusters", [(3, 4), (5, 0)])
    def test_blobs_need_a_point_per_cluster(self, n, clusters):
        with pytest.raises(ValueError) as err:
            synthetic_blobs(n=n, clusters=clusters)
        assert err.type is ValueError
        assert str(err.value) == "need at least one point per cluster"

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(features=np.zeros((3, 1)), labels=np.array([0, 1]))


class TestRnnGraph:
    def test_coincident_points_full_weight(self):
        data = Dataset(features=np.zeros((2, 2)), labels=np.array([0, 0]))
        w = build_rnn_graph(data, 1)
        assert w[0, 1] == 1.0

    def test_weight_formula(self):
        data = Dataset(features=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=np.array([0, 0]))
        w = build_rnn_graph(data, 1)
        assert w[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetric_zero_diagonal(self):
        data = synthetic_blobs(n=60, clusters=3, seed=1)
        w = build_rnn_graph(data, 5)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)
        assert not w.flags.writeable

    def test_mutual_or_condition(self):
        data = synthetic_blobs(n=40, clusters=2, seed=2)
        w = build_rnn_graph(data, 3)
        x = data.features
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        order = np.argsort(d2, axis=1, kind="stable")[:, :3]
        nn = np.zeros_like(w, dtype=bool)
        nn[np.repeat(np.arange(40), 3), order.ravel()] = True
        assert np.array_equal(w > 0, nn | nn.T)

    def test_tie_breaks_toward_lower_index(self):
        # three collinear points; 1's two candidates at equal distance
        data = Dataset(
            features=np.array([[0.0], [1.0], [2.0]]), labels=np.array([0, 0, 0])
        )
        w = build_rnn_graph(data, 1)
        assert w[1, 0] > 0
        # 2 is adjacent to 1 only because 1 is 2's nearest neighbor
        assert w[1, 2] > 0

    def test_rejects_bad_r(self):
        data = two_cluster_points()
        with pytest.raises(ValueError):
            build_rnn_graph(data, 0)
        with pytest.raises(ValueError):
            build_rnn_graph(data, 6)


def _reference_rnn_weights(data, r):
    # the graph as first written, selecting neighbors with a full stable
    # argsort of each row; build_rnn_graph must reproduce it bit for bit
    n = data.n
    x = data.features
    sq = (x * x).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :r]
    neighbor = np.zeros((n, n), dtype=bool)
    neighbor[np.repeat(np.arange(n), r), order.ravel()] = True
    adjacency = neighbor | neighbor.T
    weights = np.where(adjacency, np.exp(-0.5 * np.where(adjacency, d2, 0.0)), 0.0)
    np.fill_diagonal(weights, 0.0)
    return weights


def _grid_points():
    g = np.arange(20.0)
    xs, ys = np.meshgrid(g, g)
    return Dataset(features=np.column_stack([xs.ravel(), ys.ravel()]),
                   labels=np.zeros(400, dtype=int))


def _duplicated_points():
    base = synthetic_blobs(n=60, clusters=3, seed=5)
    # every third point appears three times, so many distances are exactly 0
    rows = np.concatenate([np.arange(60), np.arange(0, 60, 3), np.arange(0, 60, 3)])
    return Dataset(features=base.features[rows], labels=base.labels[rows])


class TestRnnGraphMatchesArgsortReference:
    @staticmethod
    def assert_matches_reference(data, r):
        w = build_rnn_graph(data, r)
        assert w.tobytes() == _reference_rnn_weights(data, r).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_blobs(self, seed):
        self.assert_matches_reference(synthetic_blobs(seed=seed), 10)

    @pytest.mark.parametrize("r", [1, 3, 4, 5, 8, 12])
    def test_integer_grid_with_exact_ties(self, r):
        self.assert_matches_reference(_grid_points(), r)

    @pytest.mark.parametrize("r", [1, 2, 3, 7])
    def test_duplicate_points(self, r):
        self.assert_matches_reference(_duplicated_points(), r)


class TestTieMask:
    # the running tie count is built only for the rows with more ties at
    # their r-th distance than free slots
    @staticmethod
    def masked_rows(monkeypatch, data, r):
        rows, cumsum = [], np.cumsum

        def counting(a, *args, **kwargs):
            rows.append(len(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)
        build_rnn_graph(data, r)
        return rows

    def test_blobs_need_no_mask(self, monkeypatch):
        assert self.masked_rows(monkeypatch, synthetic_blobs(seed=0), 10) == []

    def test_grid_masks_its_crowded_rows_only(self, monkeypatch):
        # at r = 4 an interior point takes its four unit neighbors; the 76
        # points on the border have more ties at their 4th distance than
        # room, and each block of rows masks its own
        rows = self.masked_rows(monkeypatch, _grid_points(), 4)
        assert sum(rows) == 76
        assert len(rows) == -(-400 // clustering._BLOCK_ROWS)


class TestNormalizedLaplacian:
    def test_two_node_hand_value(self):
        data = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 0]))
        lap = normalized_laplacian(build_rnn_graph(data, 1))
        np.testing.assert_allclose(lap.array, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_spectrum_in_range(self):
        data = synthetic_blobs(n=50, clusters=5, seed=3)
        lap = normalized_laplacian(build_rnn_graph(data, 4))
        w = jacobi_eigendecomposition(lap).eigenvalues
        assert w.min() >= -1e-9
        assert w.max() <= 2.0 + 1e-10

    def test_complete_graph_kernel(self):
        data = Dataset(features=np.zeros((4, 1)), labels=np.array([0, 0, 0, 0]))
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        spec = jacobi_eigendecomposition(lap)
        assert abs(spec.eigenvalues[-1]) <= 1e-10
        v = spec.eigenvector(3)
        assert np.abs(v - v[0]).max() <= 1e-9  # constant vector (D is uniform)

    def test_isolated_node(self):
        # two far-apart pairs: cross weights underflow to exactly zero, so a
        # singleton's only edge weight vanishes
        data = Dataset(
            features=np.array([[0.0], [1e6], [1e6 + 1.0]]), labels=np.array([0, 0, 0])
        )
        with pytest.raises(IsolatedNodeError) as err:
            normalized_laplacian(build_rnn_graph(data, 1))
        assert err.value.node == 0


def _reference_laplacian(weights):
    # the Laplacian as built over three n x n arrays (the weights, the
    # scaled Laplacian and its symmetrized sum) before it was built in place
    degrees = weights.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = weights * inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    _reference_identity_minus(1.0, lap, out=lap)
    sym = np.add(lap, lap.T)
    sym /= 2.0
    return sym


def _reference_identity_minus(c, m, out=None):
    out = np.subtract(0.0, m, out=out)
    out.flat[:: out.shape[0] + 1] += c
    return out


def _doubled_points(n):
    # every other point appears twice, so many distances are exactly 0
    base = synthetic_blobs(n=n, clusters=min(n, 3), seed=5)
    rows = np.arange(n) * 2 // 3
    return Dataset(features=base.features[rows], labels=base.labels[rows])


_B = clustering._BLOCK_ROWS


class TestInPlaceSetUpMatchesReference:
    # the graph, L and 2I - L are built in one buffer a block of rows at a
    # time; at sizes around the block boundary they keep the bits of the
    # same operations over whole arrays
    @staticmethod
    def assert_matches_reference(data, r):
        weights = build_rnn_graph(data, r)
        assert weights.tobytes() == _reference_rnn_weights(data, r).tobytes()
        lap = _reference_laplacian(weights)
        bottom = _reference_identity_minus(2.0, lap)
        assert normalized_laplacian(weights).array.tobytes() == lap.tobytes()
        for end, want in (("top", lap), ("bottom", bottom)):
            got = clustering._laplacian_target(build_rnn_graph(data, r), end)
            assert got.array.tobytes() == want.tobytes(), end

    @pytest.mark.parametrize("n", [2, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_blobs(self, n):
        self.assert_matches_reference(synthetic_blobs(n=n, clusters=min(n, 10), seed=1),
                                      min(10, n - 1))

    @pytest.mark.parametrize("n", [2, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_duplicated_points(self, n):
        self.assert_matches_reference(_doubled_points(n), min(3, n - 1))

    def test_grid_ties_across_a_block_boundary(self):
        # points 120..139 are one line of the grid; its crowded border
        # points 120 and 139 fall on either side of the first block boundary
        assert 120 < _B < 139
        self.assert_matches_reference(_grid_points(), 4)

    def test_public_laplacian_leaves_its_input(self):
        weights = build_rnn_graph(synthetic_blobs(n=60, clusters=3, seed=2), 5)
        before = weights.tobytes()
        normalized_laplacian(weights)
        assert weights.tobytes() == before and not weights.flags.writeable


class TestSetUpBits:
    # SHA-256 of .tobytes() for the blob fixture's graph at r=10, its
    # Laplacian and the bottom-end target 2I - L, as first computed with
    # np.where, np.eye and np.triu over temporary n x n arrays; the sweep's
    # targets, built in the graph's buffer, keep them
    DIGESTS = {
        "weights": "a6df64e60240443830377f4db632d43f80285e0fbfbca1a8feb4974843446917",
        "laplacian": "3139036a7026c63e7f516f879aec3de1916e3dde5cfee865a706a13018feb96f",
        "bottom": "05bd9234779eb5417c56f67531230d4209676cf9f179bcce7ad8cef4aa25a75d",
    }

    def test_pinned_digests(self):
        data = synthetic_blobs(seed=0)
        weights = build_rnn_graph(data, 10)
        lap = normalized_laplacian(weights)
        top = clustering._laplacian_target(build_rnn_graph(data, 10), "top")
        bottom = clustering._laplacian_target(build_rnn_graph(data, 10), "bottom")
        got = {
            name: hashlib.sha256(a.tobytes()).hexdigest()
            for name, a in (("weights", weights), ("laplacian", lap.array),
                            ("bottom", bottom.array))
        }
        assert got == self.DIGESTS, f"numpy {np.__version__}"
        assert top.array.tobytes() == lap.array.tobytes()

    def test_set_up_peak_memory(self):
        # the caller's weights and the copy the Laplacian is built in, plus
        # one block of rows (2.38 n^2 measured at n = 400, where a block is
        # 0.32 n^2; it was 3.06 n^2 over three whole arrays)
        n = 400
        data = synthetic_blobs(n=n, seed=0)
        tracemalloc.start()
        try:
            normalized_laplacian(build_rnn_graph(data, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8

    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_sweep_set_up_peak_memory(self, monkeypatch, end):
        # the sweep builds the graph, L and its target in one n x n buffer,
        # next to two n x n masks of bools and one block of rows (1.42 n^2
        # measured at n = 500; 3.04 n^2 when each had its own array)
        n = 500
        data = synthetic_blobs(n=n, seed=0)

        class FirstCell(Exception):
            pass

        def first_cell(*args):
            raise FirstCell

        monkeypatch.setattr(clustering, "_run_cell", first_cell)
        tracemalloc.start()
        try:
            with pytest.raises(FirstCell):
                run_clustering_experiment(data, 10, 10, 10, [20], [0], spectrum_end=end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * n * n * 8


@pytest.fixture(scope="module")
def blob_laplacians():
    """The blob fixture's Laplacian at r = 5 and r = 10, as the sweep builds it."""
    data = synthetic_blobs(seed=0)
    return {r: normalized_laplacian(build_rnn_graph(data, r)) for r in (5, 10)}


class TestEmbeddingOperator:
    @pytest.mark.parametrize("end", ["top", "bottom"])
    @pytest.mark.parametrize("r", [5, 10])
    def test_csr_product_matches_the_dense_one(self, r, end):
        target = clustering._laplacian_target(build_rnn_graph(synthetic_blobs(seed=0), r), end)
        op = clustering._embedding_operator(target)
        assert isinstance(op, clustering._CsrMatrix) and op.dim == target.dim
        for seed in range(3):
            x = RandomSource(seed).normal(target.dim)
            got = op.matvec(x, np.empty(target.dim))
            assert np.abs(got - target.array @ x).max() <= 1e-15 * np.linalg.norm(x)

    def test_csr_rows_without_entries(self):
        # rows 0 and 2 hold no nonzero; an empty reduceat segment would
        # read the next row's first product instead of 0
        a = np.zeros((40, 40))
        a[1, 3] = a[3, 1] = 2.0
        a[5, 5] = -1.0
        op = clustering._embedding_operator(SymMatrix(a))
        assert isinstance(op, clustering._CsrMatrix)
        x = RandomSource(4).normal(40)
        assert np.array_equal(op.matvec(x, np.empty(40)), a @ x)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_embedding_matches_the_dense_deflation_chain(self, blob_laplacians, sparse):
        lap = blob_laplacians[10]
        target = clustering._embedding_operator(lap) if sparse else lap
        k, t, rng = 4, 200, RandomSource(3)
        got = spectral_embed(target, k, t, rng)
        # the same start vectors, through deflated matrices
        stream = rng.substream(clustering._EMBED_STREAM)
        current = lap
        for j in range(1, k + 1):
            v = power_iterate(current, sample_unit_sphere(lap.dim, stream.substream(j)), t)
            assert np.abs(got[:, j - 1] - v).max() <= 1e-10
            current = deflate_step(current, v)

    def test_a_cell_allocates_less_than_one_dense_matrix(self, blob_laplacians):
        lap = blob_laplacians[10]
        op = clustering._embedding_operator(lap)
        labels = synthetic_blobs(seed=0).labels
        tracemalloc.start()
        try:
            _run_cell(op, labels, 10, 10, False, 20, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < lap.dim * lap.dim * 8

    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_sweep_holds_no_dense_matrix_when_its_cells_start(self, monkeypatch, end):
        # the cells read only the CSR target, so the dense Laplacian (and
        # 2I - L) is freed before the first cell runs
        n = 500
        data = synthetic_blobs(n=n, seed=0)
        held = []

        class FirstCell(Exception):
            pass

        def first_cell(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            raise FirstCell

        monkeypatch.setattr(clustering, "_run_cell", first_cell)
        tracemalloc.start()
        try:
            with pytest.raises(FirstCell):
                run_clustering_experiment(data, 10, 10, 10, [20], [0], spectrum_end=end)
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] < 0.25 * n * n * 8


def power_law_matrix(d, seed):
    """A d x d matrix with eigenvalues 1, 1/2, ..., 1/d in a random basis."""
    basis = random_orthogonal_basis(d, RandomSource(seed))
    return build_test_sigma(d, PowerLawSpectrum(1.0), basis)[0]


class CountingOperator:
    """A symmetric operator that counts its products."""

    def __init__(self, sigma):
        self.dim = sigma.dim
        self.sigma = sigma
        self.products = 0

    def matvec(self, x, out):
        self.products += 1
        return self.sigma.array.dot(x, out)


class TestImplicitDeflation:
    def test_first_output_keeps_the_dense_bits(self):
        sigma = power_law_matrix(8, 30)
        got = spectral_embed(sigma, 3, 40, RandomSource(2))
        x0 = sample_unit_sphere(8, RandomSource(2).substream(clustering._EMBED_STREAM).substream(1))
        assert np.array_equal(got[:, 0], power_iterate(sigma, x0, 40))

    def test_takes_any_operator_and_no_rayleigh_quotient_after_the_last_step(self):
        sigma = power_law_matrix(8, 31)
        op = CountingOperator(sigma)
        got = spectral_embed(op, 4, 15, RandomSource(3))
        # t products per step, and one per Rayleigh quotient rho_1..rho_3
        assert op.products == 4 * 15 + 3
        assert np.array_equal(got, spectral_embed(sigma, 4, 15, RandomSource(3)))

    def test_vanishing_iterate_raises(self):
        # sigma_2 = diag(1, 0) - e_1 e_1^T is exactly zero
        sigma = SymMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateIterateError, match="vanished"):
            spectral_embed(sigma, 2, 3, RandomSource(0))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_rayleigh_quotient_fails_loudly(self):
        # power iteration overflows on this matrix before any rho would, so
        # the update is checked directly
        big = SymMatrix([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
        with pytest.raises(ValueError, match="finite"):
            clustering._DeflatedOperator(big, 2).deflate(np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_outputs_align_with_the_oracle_of_the_replayed_matrices(self):
        sigma = power_law_matrix(8, 17)
        got = spectral_embed(sigma, 3, 60, RandomSource(4))
        current = sigma
        for k in range(1, 4):
            oracle = jacobi_eigendecomposition(current)
            assert abs(got[:, k - 1] @ oracle.eigenvector(0)) >= 1.0 - 1e-8
            current = deflate_step(current, got[:, k - 1])


class TestSpectralEmbed:
    def test_matches_oracle_top_eigenvector(self):
        data = synthetic_blobs(n=40, clusters=4, seed=4)
        lap = normalized_laplacian(build_rnn_graph(data, 4))
        u = spectral_embed(lap, 1, 6000, RandomSource(5))
        oracle = jacobi_eigendecomposition(lap)
        assert abs(u[:, 0] @ oracle.eigenvector(0)) >= 1.0 - 1e-8

    def test_deterministic(self):
        data = synthetic_blobs(n=30, clusters=3, seed=6)
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        a = spectral_embed(lap, 3, 25, RandomSource(7))
        b = spectral_embed(lap, 3, 25, RandomSource(7))
        assert np.array_equal(a, b)

    def test_accuracy_improves_with_t(self):
        data = synthetic_blobs(n=30, clusters=3, seed=8)
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        oracle = jacobi_eigendecomposition(lap)
        rough = spectral_embed(lap, 1, 1, RandomSource(1))
        fine = spectral_embed(lap, 1, 200, RandomSource(1))
        a_rough = abs(rough[:, 0] @ oracle.eigenvector(0))
        a_fine = abs(fine[:, 0] @ oracle.eigenvector(0))
        assert a_fine > a_rough

    def test_bottom_end(self):
        # a disconnected blob graph has a degenerate null space, so compare
        # against the projection onto the whole bottom eigenspace
        data = synthetic_blobs(n=30, clusters=3, seed=9)
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        bottom = clustering._laplacian_target(build_rnn_graph(data, 3), "bottom")
        u = spectral_embed(bottom, 1, 300, RandomSource(2))
        oracle = jacobi_eigendecomposition(lap)
        kernel = oracle.basis[:, np.abs(oracle.eigenvalues) <= 1e-9]
        assert kernel.shape[1] >= 1
        assert np.linalg.norm(kernel.T @ u[:, 0]) >= 1.0 - 1e-6

    def test_rejects_unknown_end(self, monkeypatch):
        data = synthetic_blobs(n=20, clusters=2, seed=10)

        def no_work(*args, **kwargs):
            raise AssertionError("the graph was built before the end was checked")

        monkeypatch.setattr(clustering, "build_rnn_graph", no_work)
        with pytest.raises(ValueError, match="spectrum_end must be 'top' or 'bottom'"):
            run_clustering_experiment(data, 3, 1, 2, [10], [0], spectrum_end="middle")


class TestKmeans:
    def test_recovers_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        labels = kmeans(points, 2, RandomSource(3))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_rejects_one_dimensional_points(self):
        with pytest.raises(DimensionMismatchError, match="points must be a 2-d array"):
            kmeans(np.arange(6.0), 2, RandomSource(0))

    def test_each_point_own_cluster(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        labels = kmeans(points, 5, RandomSource(4))
        assert len(set(labels.tolist())) == 5

    def test_lloyd_objective_non_increasing(self):
        # kmeans keeps no objective; its reference records one per pass
        points = synthetic_blobs(n=80, clusters=4, seed=11).features
        history = []
        want = direct_distance_kmeans(points, 4, RandomSource(5), history)
        assert len(history) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert np.array_equal(kmeans(points, 4, RandomSource(5)), want)

    def test_deterministic(self):
        points = synthetic_blobs(n=50, clusters=5, seed=12).features
        a = kmeans(points, 5, RandomSource(6))
        b = kmeans(points, 5, RandomSource(6))
        assert np.array_equal(a, b)


def direct_distance_kmeans(points, k_clusters, rng, history=None):
    """Lloyd's algorithm with the distances sum((x - c)^2) of an (n, k, p)
    broadcast and one mean per cluster, as k-means was first written: the
    reference whose assignments the matrix form must reproduce. Each pass
    appends its objective, the summed distance to the nearest center, to
    ``history`` when one is given."""
    x = np.asarray(points, dtype=float)
    n = x.shape[0]
    centers = clustering._seed_centers(x, k_clusters, rng.generator)
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(300):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if history is not None:
            history.append(float(d2.min(axis=1).sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        empty = [c for c in range(k_clusters) if not (assignments == c).any()]
        for c in range(k_clusters):
            members = assignments == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
        if empty:
            clustering._reseed_empty(x, assignments, centers, empty)
    return assignments


class TestKmeansMatchesDirectDistances:
    @pytest.mark.parametrize("row_normalize", [False, True])
    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_blob_sweep_cells(self, monkeypatch, end, row_normalize):
        # every k-means call of the default blob sweep: 3 t values x 5 seeds
        calls = []

        def recording(points, k_clusters, rng):
            source = (rng.seed, rng.path)
            got = kmeans(points, k_clusters, rng)
            calls.append((points, k_clusters, source, got))
            return got

        monkeypatch.setattr(clustering, "kmeans", recording)
        run_clustering_experiment(synthetic_blobs(seed=0), 10, 10, 10, [5, 20, 100], range(5),
                                  spectrum_end=end, row_normalize=row_normalize)
        assert len(calls) == 15
        for points, k_clusters, source, got in calls:
            want = direct_distance_kmeans(points, k_clusters, RandomSource(*source))
            assert np.array_equal(got, want), source

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_feature(self, seed):
        # numpy sums a single column pairwise, while the matrix form sums
        # each cluster's members in row order
        points = synthetic_blobs(n=200, clusters=4, seed=seed).features[:, :1]
        assert np.array_equal(kmeans(points, 4, RandomSource(seed)),
                              direct_distance_kmeans(points, 4, RandomSource(seed)))

    @pytest.mark.parametrize(
        "points, k_clusters, seed",
        [
            # three distinct points, four copies each, five clusters
            (np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 4, axis=0), 5, 7),
            # distinct points whose sixth cluster empties after an update
            (RandomSource(2710).generator.standard_exponential((10, 2)) ** 3, 6, 2710),
        ],
        ids=["duplicates", "emptied"],
    )
    def test_reseeded_clusters(self, monkeypatch, points, k_clusters, seed):
        reseeds = []
        reseed = clustering._reseed_empty

        def counting(x, assignments, centers, empty):
            reseeds.append(list(empty))
            reseed(x, assignments, centers, empty)

        monkeypatch.setattr(clustering, "_reseed_empty", counting)
        got = kmeans(points, k_clusters, RandomSource(seed))
        assert reseeds
        assert np.array_equal(got, direct_distance_kmeans(points, k_clusters, RandomSource(seed)))

    def test_one_cluster(self):
        points = synthetic_blobs(n=40, clusters=2, seed=3).features
        got = kmeans(points, 1, RandomSource(8))
        assert np.array_equal(got, np.zeros(40, dtype=np.int64))
        assert np.array_equal(got, direct_distance_kmeans(points, 1, RandomSource(8)))


class TestMutualInformation:
    def test_perfect_two_way_split(self):
        c = np.array([0] * 5 + [1] * 5)
        assert mutual_information(c, c) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_single_cluster_is_zero(self):
        c_star = np.array([0, 0, 1, 1])
        c = np.zeros(4, dtype=int)
        assert mutual_information(c, c_star) == 0.0

    def test_independent_partitions(self):
        c = np.array([0, 0, 1, 1])
        c_star = np.array([0, 1, 0, 1])
        assert mutual_information(c, c_star) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        gen = RandomSource(13).generator
        a = gen.integers(0, 3, 60)
        b = gen.integers(0, 4, 60)
        assert mutual_information(a, b) == pytest.approx(mutual_information(b, a), rel=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_entropies(self, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        n = int(gen.integers(2, 50))
        a = gen.integers(0, int(gen.integers(1, 6)) + 1, n)
        b = gen.integers(0, int(gen.integers(1, 6)) + 1, n)
        # I(a; a) = H(a), so the score of a partition with itself is its entropy
        h_a = mutual_information(a, a)
        p = np.unique(a, return_counts=True)[1] / n
        assert h_a == pytest.approx(-(p * np.log(p)).sum(), abs=1e-12)
        mi = mutual_information(a, b)
        assert 0.0 <= mi <= min(h_a, mutual_information(b, b)) + 1e-12

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mutual_information(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestExperiment:
    def test_single_cell(self):
        data = synthetic_blobs(n=40, clusters=4, seed=14)
        cells, summary = run_clustering_experiment(data, 4, 4, 4, [10], [0])
        assert len(cells) == 1 and len(summary) == 1
        assert cells[0].t == 10 and cells[0].seed == 0
        assert summary[0].mean_mi == cells[0].mi

    def test_jobs_do_not_change_results(self):
        data = synthetic_blobs(n=40, clusters=4, seed=15)
        serial = run_clustering_experiment(data, 4, 4, 4, [5, 15], [0, 1])
        parallel = run_clustering_experiment(data, 4, 4, 4, [5, 15], [0, 1], jobs=4)
        assert serial == parallel

    def test_shared_bottom_target(self, monkeypatch):
        # every cell reads the one 2I - L target: the serial run evaluates all
        # six cells on it in turn, while each worker process starts from its
        # own copy, so a write into it would make the two runs differ
        data = synthetic_blobs(n=40, clusters=4, seed=17)
        args = (data, 4, 4, 4, [5, 15], [0, 1, 2])
        opts = {"spectrum_end": "bottom", "row_normalize": True}
        init = SymMatrix.__init__
        trusted = SymMatrix._trusted.__func__
        built = []

        def counting_init(self, array):
            built.append(1)
            init(self, array)

        def counting_trusted(cls, array):
            built.append(1)
            return trusted(cls, array)

        # a matrix is built validated or wrapped as trusted; both count
        monkeypatch.setattr(SymMatrix, "__init__", counting_init)
        monkeypatch.setattr(SymMatrix, "_trusted", classmethod(counting_trusted))
        serial = run_clustering_experiment(*args, **opts, jobs=1)
        # the target, built once for all six cells in the Laplacian's buffer
        assert len(built) == 1
        parallel = run_clustering_experiment(*args, **opts, jobs=2)
        assert serial == parallel
        # workers count in their own copies of the list; the parent builds
        # the same matrix again
        assert len(built) == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k": 0}, "k must lie in [1, 20]"),
            ({"k": 21}, "k must lie in [1, 20]"),
            ({"k_clusters": 0}, "k_clusters must lie in [1, 20]"),
            ({"k_clusters": 21}, "k_clusters must lie in [1, 20]"),
            ({"t_values": [5, 0]}, "t must be >= 1"),
            ({"seeds": [0, -1]}, "seed must be a 64-bit unsigned integer"),
            ({"seeds": [0, 2**64]}, "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_cell_argument_errors_raise_before_any_work(self, monkeypatch, change, message):
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        spec = {"k": 2, "k_clusters": 2, "t_values": [5], "seeds": [0], **change}
        # the message is the one the cell itself raises
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        with pytest.raises(ValueError, match=re.escape(message)):
            _run_cell(lap, data.labels, spec["k"], spec["k_clusters"], False,
                      min(spec["t_values"]), spec["seeds"][-1])

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(clustering, "build_rnn_graph", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_clustering_experiment(data, 3, spec["k"], spec["k_clusters"],
                                      spec["t_values"], spec["seeds"], jobs=2)

    def test_pool_size_is_capped_at_the_cell_count(self, monkeypatch):
        # a fork pool starts all its workers at once; the recording stand-in
        # refuses to start any
        class NoPool(Exception):
            pass

        seen = []

        def refuse(max_workers, mp_context, **kwargs):
            seen.append((max_workers, mp_context.get_start_method()))
            raise NoPool

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        for jobs in (3, 10_000):
            with pytest.raises(NoPool):
                run_clustering_experiment(data, 3, 2, 2, [5, 10], [0, 1, 2], jobs=jobs)
        forks = "fork" in multiprocessing.get_all_start_methods()
        method = "fork" if forks else multiprocessing.get_context().get_start_method()
        assert seen == [(3, method), (6, method)]
        # one cell needs no pool at all
        cells, _ = run_clustering_experiment(data, 3, 2, 2, [5], [0], jobs=4)
        assert len(cells) == 1 and len(seen) == 2

    def test_rejects_fewer_than_one_job(self):
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                run_clustering_experiment(data, 3, 2, 2, [5], [0], jobs=jobs)

    def test_rejects_empty_sweeps(self):
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        for t_values, seeds, message in (
            ([], [0], "need at least one t value"),
            ([5], [], "need at least one seed"),
        ):
            with pytest.raises(ValueError) as err:
                run_clustering_experiment(data, 3, 2, 2, t_values, seeds)
            assert err.type is ValueError
            assert str(err.value) == message


def test_cli_import_does_not_load_multiprocessing():
    # the pool's modules cost ~20 ms to import; only a parallel sweep pays it
    src = str(Path(deflatrix.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import deflatrix.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
