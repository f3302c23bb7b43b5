import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatrix.clustering import (
    Dataset,
    _kmeans_with_history,
    build_rnn_graph,
    entropy,
    kmeans,
    mutual_information,
    normalized_laplacian,
    run_clustering_experiment,
    spectral_embed,
    synthetic_blobs,
)
from deflatrix.errors import DimensionMismatchError, IsolatedNodeError
from deflatrix.linalg import RandomSource, SymMatrix, jacobi_eigendecomposition


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

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(features=np.zeros((3, 1)), labels=np.array([0, 1]))


class TestRnnGraph:
    def test_coincident_points_full_weight(self):
        data = Dataset(features=np.zeros((2, 2)), labels=np.array([0, 0]))
        g = build_rnn_graph(data, 1)
        assert g.weights[0, 1] == 1.0

    def test_weight_formula(self):
        data = Dataset(features=np.array([[0.0, 0.0], [1.0, 1.0]]), labels=np.array([0, 0]))
        g = build_rnn_graph(data, 1)
        assert g.weights[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetric_zero_diagonal(self):
        data = synthetic_blobs(n=60, clusters=3, seed=1)
        g = build_rnn_graph(data, 5)
        assert np.array_equal(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0.0)

    def test_mutual_or_condition(self):
        data = synthetic_blobs(n=40, clusters=2, seed=2)
        g = build_rnn_graph(data, 3)
        x = data.features
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        order = np.argsort(d2, axis=1, kind="stable")[:, :3]
        nn = np.zeros_like(g.weights, dtype=bool)
        nn[np.repeat(np.arange(40), 3), order.ravel()] = True
        assert np.array_equal(g.weights > 0, nn | nn.T)

    def test_tie_breaks_toward_lower_index(self):
        # three collinear points; 1's two candidates at equal distance
        data = Dataset(
            features=np.array([[0.0], [1.0], [2.0]]), labels=np.array([0, 0, 0])
        )
        g = build_rnn_graph(data, 1)
        assert g.weights[1, 0] > 0
        # 2 is adjacent to 1 only because 1 is 2's nearest neighbor
        assert g.weights[1, 2] > 0

    def test_rejects_bad_r(self):
        data = two_cluster_points()
        with pytest.raises(ValueError):
            build_rnn_graph(data, 0)
        with pytest.raises(ValueError):
            build_rnn_graph(data, 6)


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
        u = spectral_embed(lap, 1, 300, RandomSource(2), spectrum_end="bottom")
        oracle = jacobi_eigendecomposition(lap)
        kernel = oracle.basis[:, np.abs(oracle.eigenvalues) <= 1e-9]
        assert kernel.shape[1] >= 1
        assert np.linalg.norm(kernel.T @ u[:, 0]) >= 1.0 - 1e-6

    def test_rejects_unknown_end(self):
        data = synthetic_blobs(n=20, clusters=2, seed=10)
        lap = normalized_laplacian(build_rnn_graph(data, 3))
        with pytest.raises(ValueError):
            spectral_embed(lap, 1, 10, RandomSource(0), spectrum_end="middle")


class TestKmeans:
    def test_recovers_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        labels = kmeans(points, 2, RandomSource(3))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_each_point_own_cluster(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        labels = kmeans(points, 5, RandomSource(4))
        assert len(set(labels.tolist())) == 5

    def test_lloyd_objective_non_increasing(self):
        points = synthetic_blobs(n=80, clusters=4, seed=11).features
        _, history = _kmeans_with_history(points, 4, RandomSource(5))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_deterministic(self):
        points = synthetic_blobs(n=50, clusters=5, seed=12).features
        a = kmeans(points, 5, RandomSource(6))
        b = kmeans(points, 5, RandomSource(6))
        assert np.array_equal(a, b)


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
        mi = mutual_information(a, b)
        assert 0.0 <= mi <= min(entropy(a), entropy(b)) + 1e-12

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
        # every cell reads the one 2I - L target; with a short switch interval
        # the threads interleave often, and a write into the shared matrix
        # would make the results depend on the interleaving
        data = synthetic_blobs(n=40, clusters=4, seed=17)
        args = (data, 4, 4, 4, [5, 15], [0, 1, 2])
        opts = {"spectrum_end": "bottom", "row_normalize": True}
        serial = run_clustering_experiment(*args, **opts, jobs=1)
        init = SymMatrix.__init__
        built = []

        def counting_init(self, array):
            built.append(1)
            init(self, array)

        monkeypatch.setattr(SymMatrix, "__init__", counting_init)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            parallel = run_clustering_experiment(*args, **opts, jobs=2)
        finally:
            sys.setswitchinterval(interval)
        assert serial == parallel
        # the Laplacian and the target, built once for all six cells
        assert len(built) == 2

    def test_rejects_fewer_than_one_job(self):
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                run_clustering_experiment(data, 3, 2, 2, [5], [0], jobs=jobs)

    def test_rejects_empty_sweeps(self):
        data = synthetic_blobs(n=20, clusters=2, seed=16)
        with pytest.raises(ValueError):
            run_clustering_experiment(data, 3, 2, 2, [], [0])
