import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from saddlemap import benchmarks, dimred
from saddlemap.dimred import (
    PointCloud,
    bandwidth_median_rule,
    conjugate_operator,
    diffusion_maps,
    median_bandwidth,
    select_chart_components,
)
from saddlemap.driver import N_DMAP_COMPONENTS
from saddlemap.errors import DegenerateChartError
from saddlemap.kernels import gaussian_kernel, squared_distances
from saddlemap.regression import fit
from saddlemap.sampling import SamplerConfig, sample_cloud


def dense_conjugate(kernel):
    """The symmetric conjugate of the alpha=1 Markov operator as a dense
    matrix, symmetrized, and d^-1/2: the reference for conjugate_operator."""
    q = kernel.sum(axis=1)
    k_alpha = kernel / np.outer(q, q)
    d_isqrt = 1.0 / np.sqrt(k_alpha.sum(axis=1))
    sym = k_alpha * np.outer(d_isqrt, d_isqrt)
    return 0.5 * (sym + sym.T), d_isqrt


class CountingRows(np.ndarray):
    """A matrix view that counts the passes median_bandwidth makes over it:
    each pass reads the row blocks from row 0 on."""

    passes = 0

    def __getitem__(self, key):
        if isinstance(key, slice) and key.start == 0:
            type(self).passes += 1
        return super().__getitem__(key)


def median_and_passes(sq):
    """median_bandwidth(sq) and the number of passes it made over sq."""
    CountingRows.passes = 0
    eps = median_bandwidth(sq.view(CountingRows))
    return eps, CountingRows.passes


def circle_points(n, radius=1.0):
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]), theta


class TestBandwidthMedianRule:
    def test_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        assert bandwidth_median_rule(pts) == pytest.approx(4.0)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert bandwidth_median_rule(pts) == pytest.approx(25.0)

    def test_brute_force_oracle(self, rng):
        pts, _ = circle_points(100)
        pts += 0.01 * rng.standard_normal(pts.shape)
        # oracle: explicit O(N^2) enumeration
        dists = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dists.append(np.linalg.norm(pts[i] - pts[j]))
        expected = float(np.median(dists)) ** 2
        assert bandwidth_median_rule(pts) == pytest.approx(expected, rel=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_median_rule(np.zeros((1, 2)))

    def test_collapsed_points_rejected(self):
        pts = np.array([[0.3, -0.2], [0.3, -0.2]])
        with pytest.raises(DegenerateChartError, match="collapsed point set"):
            median_bandwidth(squared_distances(pts, pts))


class TestSharedDistances:
    # 15 and 1225 pairs (odd count), 10 and 820 pairs (even count); at 700
    # points the strided sample misses a middle rank, and the bracket is
    # widened and the matrix passed over again
    @pytest.mark.parametrize("n", [6, 50, 5, 41, 700])
    def test_median_equals_pdist_median_bitwise(self, rng, n):
        pts = rng.standard_normal((n, 3))
        expected = float(np.median(pdist(pts)) ** 2)
        eps, passes = median_and_passes(squared_distances(pts, pts))
        assert eps == expected
        assert (passes > 1) == (n == 700)
        assert bandwidth_median_rule(pts) == expected

    def test_median_when_every_sampled_entry_is_an_outlier(self, rng):
        # a symmetric, zero-diagonal matrix whose strided-sample entries and
        # their mirrors are 100: every bracket the sample gives lies above
        # the middle ranks until it has been widened
        n = 600
        upper = np.triu(rng.uniform(size=(n, n)), 1)
        sq = upper + upper.T
        i, j = np.unravel_index(np.arange(0, sq.size, sq.size // dimred._MEDIAN_SAMPLE), sq.shape)
        off = i != j
        sq[i[off], j[off]] = sq[j[off], i[off]] = 100.0
        # 179700 pairs, an even count: the middle pair of the strict upper
        # triangle, its square roots averaged and squared
        pairs = np.sort(sq[np.triu_indices(n, 1)])
        middle = pairs[[pairs.size // 2 - 1, pairs.size // 2]]
        eps, passes = median_and_passes(sq)
        assert passes > 1
        assert eps == float(np.mean(np.sqrt(middle)) ** 2)

    def test_kernel_overwrites_distances_bitwise(self, rng):
        pts = rng.standard_normal((30, 2))
        eps = bandwidth_median_rule(pts)
        sq = squared_distances(pts, pts)
        expected = np.exp(-sq / (2.0 * eps))
        kernel = gaussian_kernel(pts, pts, eps, sq=sq)
        assert kernel is sq
        assert np.array_equal(kernel, expected)
        with pytest.raises(ValueError):
            gaussian_kernel(pts, pts[:5], eps, sq=squared_distances(pts, pts))

    def test_diffusion_maps_with_precomputed_distances(self, rng):
        pts = rng.standard_normal((60, 3))
        eps = bandwidth_median_rule(pts)
        plain = diffusion_maps(pts, eps, 4)
        sq = squared_distances(pts, pts)
        shared = diffusion_maps(pts, eps, 4, sq=sq)
        assert shared.kernel is sq
        for name in ("eigenvalues", "eigenvectors", "coordinates", "kernel"):
            assert np.array_equal(getattr(shared, name), getattr(plain, name))

    def test_conjugate_equals_symmetrized_dense_formula(self, rng):
        # the operator's columns are the dense conjugate's to rounding, and
        # the kernel it reads is left as it was
        pts = rng.standard_normal((700, 3))
        kernel = gaussian_kernel(pts, pts, bandwidth_median_rule(pts))
        read = kernel.copy()
        sym, d_isqrt = dense_conjugate(kernel)
        op, q, got_d_isqrt = conjugate_operator(read)
        assert np.array_equal(q, kernel.sum(axis=1))
        assert np.max(np.abs(got_d_isqrt - d_isqrt) / d_isqrt) <= 1e-14
        assert np.max(np.abs(op.matmat(np.eye(700)) - sym)) <= 1e-14 * np.max(sym)
        assert np.array_equal(read, kernel)


# clouds of 2-60 points in 1-4 dimensions, and positive bandwidths
clouds = st.tuples(st.integers(2, 60), st.integers(1, 4)).flatmap(
    lambda shape: arrays(
        np.float64, shape, elements=st.floats(-10.0, 10.0, allow_nan=False, width=64)
    )
)
bandwidths = st.floats(1e-3, 1e3)


class TestKernelSymmetryProperties:
    @settings(max_examples=200, deadline=None)
    @given(clouds, bandwidths)
    def test_self_kernel_exactly_symmetric(self, pts, eps):
        kernel = gaussian_kernel(pts, pts, eps)
        assert np.array_equal(kernel, kernel.T)

    @settings(max_examples=200, deadline=None)
    @given(clouds)
    def test_squared_distances_exactly_symmetric(self, pts):
        sq = squared_distances(pts, pts)
        assert np.array_equal(sq, sq.T)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 80), st.integers(1, 4))
    def test_diffusion_map_kernel_and_slices_exactly_symmetric(self, seed, n, p):
        # regression.kernel_factorization factors kernel.T in place of the
        # kernel: this is the invariant it rests on
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, p))
        sq = squared_distances(pts, pts)
        kernel = diffusion_maps(pts, median_bandwidth(sq), 1, sq=sq).kernel
        idx = np.sort(rng.choice(n, size=n // 2, replace=False))
        block = kernel[np.ix_(idx, idx)]
        assert np.array_equal(kernel, kernel.T)
        assert np.array_equal(block, block.T)

    @settings(max_examples=200, deadline=None)
    @given(clouds, bandwidths, st.integers(0, 2**32 - 1))
    def test_conjugate_operator_symmetric_to_rounding(self, pts, eps, seed):
        # the conjugate is symmetric and |S| = S has norm 1, so <Sx, y> and
        # <x, Sy> differ only by the rounding of a symmetric product and a
        # dot product, each of N terms: at most (2N + 3) 2^-53 |x||y| apiece
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, len(pts)))
        op = conjugate_operator(gaussian_kernel(pts, pts, eps))[0]
        gap = abs(np.dot(op.matvec(x), y) - np.dot(x, op.matvec(y)))
        assert gap <= 4 * len(pts) * 2.0**-52 * np.linalg.norm(x) * np.linalg.norm(y)


def two_buffer_pipeline(pts, eps, n_components):
    """The diffusion map with a second N x N buffer for the dense conjugate,
    solved by a dense eigh and normalized and signed as diffusion_maps does.
    Returns the kernel, the conjugate, d^-1/2, the n_components + 2 leading
    eigenvalues (one more than the map keeps) and the scaled eigenvectors."""
    kernel = gaussian_kernel(pts, pts, eps)
    sym, d_isqrt = dense_conjugate(kernel)
    k = n_components + 1
    n = len(pts)
    w, phi = scipy.linalg.eigh(sym, subset_by_index=[max(n - k - 1, 0), n - 1])
    w, phi = w[::-1], phi[:, ::-1][:, :k]
    psi = phi * d_isqrt[:, None]
    psi = psi * (np.sqrt(n) / np.linalg.norm(psi, axis=0))
    psi = psi * np.sign(psi[np.argmax(np.abs(psi), axis=0), np.arange(k)])
    return kernel, sym, d_isqrt, w, psi


# clouds drawn from a small grid: duplicate points, zero off-diagonal
# distances and ties at the median
grid_clouds = st.tuples(st.integers(2, 70), st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
)


class TestOneBufferProperties:
    """The invariants that let a chart build keep one N x N buffer."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(1, 4), bandwidths)
    def test_kernel_blocks_equal_slices(self, seed, n, p, eps):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, p))
        kernel = gaussian_kernel(pts, pts, eps)
        rows = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        cols = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        start, stop = sorted(rng.integers(0, n + 1, 2))
        assert np.array_equal(gaussian_kernel(pts[rows], pts[cols], eps), kernel[np.ix_(rows, cols)])
        assert np.array_equal(gaussian_kernel(pts[start:stop], pts, eps), kernel[start:stop])

    @staticmethod
    def check_median_equals_pdist_median(pts):
        # a zero median has no bandwidth to give, and is refused
        expected = float(np.median(pdist(pts)) ** 2)
        sq = squared_distances(pts, pts)
        if expected > 0.0:
            assert median_bandwidth(sq) == expected
        else:
            with pytest.raises(DegenerateChartError, match="collapsed point set"):
                median_bandwidth(sq)

    @settings(max_examples=200, deadline=None)
    @given(clouds)
    def test_median_equals_pdist_median(self, pts):
        self.check_median_equals_pdist_median(pts)

    @settings(max_examples=200, deadline=None)
    @given(grid_clouds)
    def test_median_with_duplicate_points(self, pts):
        self.check_median_equals_pdist_median(pts)

    @pytest.mark.parametrize("n", [400, 401])
    def test_median_bracket_widens_when_the_sample_misses(self, rng, monkeypatch, n):
        # a stride of N + 1 samples the zero diagonal alone, so the first
        # brackets hold no pair; even and odd pair counts
        monkeypatch.setattr(dimred, "_MEDIAN_SAMPLE", n * n // (n + 1))
        pts = rng.standard_normal((n, 2))
        expected = float(np.median(pdist(pts)) ** 2)
        assert median_bandwidth(squared_distances(pts, pts)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 1100), st.integers(1, 4))
    def test_diffusion_maps_equals_two_buffer_pipeline(self, seed, n, p):
        # the Lanczos solve on the kernel's operator gives the dense
        # conjugate's eigenpairs within 1e-12, and the kernel as assembled.
        # An eigenvector is only determined to ~2^-52 / gap (6.6e-13 apart
        # at a gap of 3.2e-4 in 400 draws), so one with another eigenvalue
        # within 1e-2 is held to its residual in the conjugate instead
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, p))
        eps = bandwidth_median_rule(pts)
        n_components = min(3, n - 2)
        kernel, sym, d_isqrt, w, psi = two_buffer_pipeline(pts, eps, n_components)
        dmap = diffusion_maps(pts, eps, n_components)
        k = n_components + 1
        assert np.array_equal(dmap.kernel, kernel)
        assert np.array_equal(dmap.row_sums, kernel.sum(axis=1))
        assert np.max(np.abs(dmap.eigenvalues - w[:k])) <= 1e-12
        gaps = np.minimum(np.abs(np.diff(w, prepend=np.inf))[:k], np.abs(np.diff(w, append=-np.inf))[:k])
        isolated = gaps >= 1e-2
        assert np.max(np.abs(dmap.eigenvectors - psi)[:, isolated], initial=0.0) <= 1e-12
        phi = dmap.eigenvectors / d_isqrt[:, None]
        phi /= np.linalg.norm(phi, axis=0)
        assert np.max(np.abs(sym @ phi - phi * dmap.eigenvalues)) <= 1e-12
        assert np.array_equal(dmap.coordinates, dmap.eigenvectors[:, 1:] * dmap.eigenvalues[1:])

    def test_diffusion_maps_allocates_no_second_buffer(self):
        # beside the squared distances it is handed, the diffusion map
        # allocates 0.02 N x N arrays at N = 3000; forming the conjugate in
        # row blocks of outer products takes 0.17, and a copy of kernel.T
        # per matrix-vector product would take a whole one
        n = 3000
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 3))
        sq = squared_distances(pts, pts)
        eps = median_bandwidth(sq)
        tracemalloc.start()
        try:
            diffusion_maps(pts, eps, N_DMAP_COMPONENTS, sq=sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 8 * n * n


def procrustes_correlations(coords, reference):
    """Per-component correlation after the best orthogonal alignment."""
    a = coords - coords.mean(axis=0)
    b = reference - reference.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    aligned = a @ (u @ vt)
    return [
        abs(np.corrcoef(aligned[:, k], b[:, k])[0, 1]) for k in range(b.shape[1])
    ]


class TestDiffusionMaps:
    def test_circle_recovers_angles(self):
        pts, theta = circle_points(200)
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, n_components=2)
        reference = np.column_stack([np.cos(theta), np.sin(theta)])
        corr = procrustes_correlations(dmap.coordinates, reference)
        assert min(corr) > 0.99

    def test_trivial_leading_eigenpair(self):
        pts, _ = circle_points(60)
        dmap = diffusion_maps(pts, bandwidth_median_rule(pts), 3)
        assert dmap.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        first = dmap.eigenvectors[:, 0]
        assert np.max(np.abs(first - first[0])) < 1e-8
        assert np.all(dmap.eigenvalues <= 1.0 + 1e-10)
        assert np.all(np.diff(dmap.eigenvalues) <= 1e-12)

    def test_kernel_is_reusable_bitwise(self, rng):
        pts = rng.standard_normal((40, 3))
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 2)
        direct = gaussian_kernel(pts, pts, eps)
        assert np.array_equal(dmap.kernel, direct)
        assert np.array_equal(dmap.kernel, dmap.kernel.T)
        assert np.all(dmap.kernel > 0.0) and np.all(dmap.kernel <= 1.0)
        # and the regression layer accepts it verbatim
        model = fit(pts, pts[:, :1], eps, nugget=1e-6, reuse_kernel=dmap.kernel)
        model_direct = fit(pts, pts[:, :1], eps, nugget=1e-6)
        assert np.array_equal(model.weights, model_direct.weights)

    def test_permutation_equivariance(self, rng):
        pts = rng.standard_normal((50, 3))
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 2)
        perm = rng.permutation(50)
        dmap_p = diffusion_maps(pts[perm], eps, 2)
        assert np.max(np.abs(dmap_p.coordinates - dmap.coordinates[perm])) < 1e-10

    def test_rigid_motion_invariance(self, rng):
        pts = rng.standard_normal((50, 3))
        eps = bandwidth_median_rule(pts)
        w = diffusion_maps(pts, eps, 3).eigenvalues
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = pts @ q.T + np.array([5.0, -2.0, 0.5])
        w_moved = diffusion_maps(moved, eps, 3).eigenvalues
        assert np.max(np.abs(w - w_moved)) < 1e-8

    def test_invalid_arguments(self, rng):
        pts = rng.standard_normal((10, 2))
        with pytest.raises(ValueError):
            diffusion_maps(pts, -1.0, 2)
        # ARPACK's Lanczos solve needs n_components + 1 < N
        for n_components in (9, 10):
            with pytest.raises(ValueError):
                diffusion_maps(pts, 1.0, n_components)

    def test_lanczos_matches_dense_reference(self):
        # a sphere_learned-sized cloud: the Lanczos pairs against a dense
        # eigh of the same conjugate, normalized and signed the same way
        cfg = SamplerConfig(n_samples=1000, perturbation_scale=0.15)
        pts = sample_cloud(benchmarks.sphere_problem(), benchmarks.sphere_search_start(), cfg, 0).points
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, N_DMAP_COMPONENTS)

        _, _, _, w, psi = two_buffer_pipeline(pts, eps, N_DMAP_COMPONENTS)
        w = w[:-1]
        assert np.max(np.abs(dmap.eigenvalues - w)) < 1e-12
        assert np.max(np.abs(dmap.coordinates - psi[:, 1:] * w[1:])) < 1e-12


def fitted_jacobians(points, dmap, n_eval=25, nugget=1e-6):
    model = fit(points, dmap.coordinates, dmap.bandwidth_eps, nugget, reuse_kernel=dmap.kernel)
    idx = np.unique(np.linspace(0, len(points) - 1, n_eval).astype(int))
    return [model.predict_with_derivatives(points[i], order=1)[1] for i in idx]


class TestSelectChartComponents:
    def test_sphere_patch_dimension(self, rng):
        # oracle: the cloud lives on a 2-sphere patch, ground-truth dimension 2
        base = np.array([0.0, 0.0, -1.0])
        raw = base + 0.25 * rng.standard_normal((400, 3))
        pts = raw / np.linalg.norm(raw, axis=1)[:, None]
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 6)
        comps = select_chart_components(fitted_jacobians(pts, dmap))
        assert len(comps) == 2

    def test_line_dimension_one(self, rng):
        t = np.linspace(0.0, 1.0, 120)
        pts = np.column_stack([t, 2.0 * t, -t]) + 1e-4 * rng.standard_normal((120, 3))
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 5)
        comps = select_chart_components(fitted_jacobians(pts, dmap))
        assert len(comps) == 1

    def test_harmonic_component_skipped(self, rng):
        # cloud on an open arc: the second embedding component is a harmonic
        # of the first and must not be selected for a 2-component chart
        theta = np.linspace(-0.9, 0.9, 150)
        pts = np.column_stack([np.cos(theta), np.sin(theta), 0.0 * theta])
        pts += 1e-4 * rng.standard_normal(pts.shape)
        eps = bandwidth_median_rule(pts)
        dmap = diffusion_maps(pts, eps, 5)
        jacs = fitted_jacobians(pts, dmap)
        comps = select_chart_components(jacs)
        assert comps == [0]

    def test_no_subset_raises(self):
        jacs = [np.zeros((3, 2))]
        with pytest.raises(DegenerateChartError):
            select_chart_components(jacs)


class TestPointCloud:
    def test_row_alignment_enforced(self, rng):
        pts = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            PointCloud(points=pts, forces=rng.standard_normal((4, 3)), base_point=pts[0])

    def test_minimum_size(self, rng):
        with pytest.raises(ValueError):
            PointCloud(
                points=rng.standard_normal((1, 3)),
                forces=rng.standard_normal((1, 3)),
                base_point=np.zeros(3),
            )
