import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec import (
    DegenerateAspect,
    LagCorrMatrix,
    NotNormalized,
    eigendecompose,
    equal_time_corr,
    ipr,
    lag_corr,
    rmt_bounds,
    segment,
)

from lagspec.eigensys import _column_iprs

from conftest import iid_returns


def symmetric_matrix(n: int, seed: int, lag: int = 1) -> LagCorrMatrix:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    sym = (a + a.T) / 2.0
    values = np.triu(sym) + np.triu(sym, 1).T
    return LagCorrMatrix(lag=lag, values=values)


class TestEigendecompose:
    def test_identity_matrix(self):
        d = LagCorrMatrix(lag=0, values=np.eye(5))
        es = eigendecompose(d)
        assert np.allclose(es.eigenvalues, 1.0, atol=1e-14)
        assert np.allclose(es.eigenvectors.T @ es.eigenvectors, np.eye(5), atol=1e-10)

    def test_two_by_two_closed_form(self):
        rho = 0.6
        d = LagCorrMatrix(
            lag=0, values=np.array([[1.0, rho], [rho, 1.0]]),
        )
        es = eigendecompose(d)
        assert es.eigenvalues == pytest.approx([0.4, 1.6], abs=1e-12)
        assert np.abs(es.eigenvectors[:, 0]) == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-12
        )
        assert np.abs(es.eigenvectors[:, 1]) == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-12
        )
        # antisymmetric vector pairs with the smaller eigenvalue
        assert es.eigenvectors[0, 0] * es.eigenvectors[1, 0] < 0
        assert es.eigenvectors[0, 1] * es.eigenvectors[1, 1] > 0

    def test_eigenvalue_sum_equals_trace(self):
        d = symmetric_matrix(4, seed=5)
        es = eigendecompose(d)
        assert float(es.eigenvalues.sum()) == pytest.approx(d.trace, abs=1e-10)

    def test_residual_small(self, gaussian_returns_64):
        d = equal_time_corr(gaussian_returns_64)
        es = eigendecompose(d)
        resid = d.values @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        worst = np.max(np.linalg.norm(resid, axis=0))
        assert worst <= 1e-10 * np.linalg.norm(d.values)

    def test_reconstruction(self):
        d = symmetric_matrix(8, seed=9)
        es = eigendecompose(d)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.T
        assert np.linalg.norm(rebuilt - d.values) <= 1e-8

    def test_sign_convention(self, gaussian_returns_64):
        es = eigendecompose(lag_corr(gaussian_returns_64, 2))
        lead = np.argmax(np.abs(es.eigenvectors), axis=0)
        assert np.all(es.eigenvectors[lead, np.arange(64)] > 0)

    def test_sorted_ascending(self, gaussian_returns_64):
        es = eigendecompose(equal_time_corr(gaussian_returns_64))
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_iprs_match_direct_formula(self):
        d = symmetric_matrix(6, seed=2)
        es = eigendecompose(d)
        for k in range(6):
            assert es.iprs[k] == pytest.approx(ipr(es.eigenvectors[:, k]), abs=1e-14)


def planted_cluster(n: int, m: int, lo: int, seed: int, rotation=None) -> tuple:
    """A lag-1 matrix Q diag(vals) Q^T whose positions lo..lo+m-1 share one
    eigenvalue, and the cluster columns of Q.  ``rotation`` (m x m,
    orthogonal) turns those columns first: the matrix is the same but for
    rounding, which then picks another eigenbasis of the cluster."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(-0.4, 0.4, n - m + 1)
    vals = np.concatenate([vals[:lo], np.full(m, vals[lo]), vals[lo + 1:]])
    if rotation is not None:
        q[:, lo:lo + m] = q[:, lo:lo + m] @ rotation
    sym = (q * vals) @ q.T
    values = np.triu(sym) + np.triu(sym, 1).T
    return LagCorrMatrix(lag=1, values=values), q[:, lo:lo + m]


def span_ipr(basis: np.ndarray) -> float:
    """Expected IPR of a uniformly random unit vector in the span of the
    orthonormal columns of ``basis``."""
    m = basis.shape[1]
    p = (basis**2).sum(axis=1)
    return 3.0 * float(p @ p) / (m * (m + 2))


class TestDegenerateClusters:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 16),
        m=st.integers(2, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cluster_ipr_ignores_the_basis(self, n, m, data, seed):
        m = min(m, n)
        lo = data.draw(st.integers(0, n - m))
        rng = np.random.default_rng(seed)
        rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
        d, basis = planted_cluster(n, m, lo, seed)
        d_rot, _ = planted_cluster(n, m, lo, seed, rotation)
        es, es_rot = eigendecompose(d), eigendecompose(d_rot)
        cluster = slice(lo, lo + m)
        expected = span_ipr(basis)
        assert np.all(np.abs(es.iprs[cluster] - expected) <= 1e-12)
        assert np.all(np.abs(es_rot.iprs[cluster] - expected) <= 1e-12)
        # singletons keep the IPR of their own vector, to the bit
        for es_ in (es, es_rot):
            own = _column_iprs(es_.eigenvectors)
            singletons = [*range(lo), *range(lo + m, n)]
            assert np.array_equal(es_.iprs[singletons], own[singletons])

    def test_close_but_distinct_eigenvalues_stay_singletons(self):
        # a gap of 1e-6 * ||D||_F, which the solve resolves: no cluster
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 8)))
        vals = np.linspace(-0.4, 0.4, 8)
        vals[4] = vals[3] + 1e-6 * np.linalg.norm(vals)
        sym = (q * vals) @ q.T
        es = eigendecompose(LagCorrMatrix(lag=1, values=np.triu(sym) + np.triu(sym, 1).T))
        assert np.array_equal(es.iprs, _column_iprs(es.eigenvectors))

    def test_identity_is_one_cluster(self):
        es = eigendecompose(LagCorrMatrix(lag=0, values=np.eye(5)))
        assert np.allclose(es.iprs, 3.0 / 7.0, rtol=0, atol=1e-15)


class TestIpr:
    def test_uniform_vector_is_fully_delocalized(self):
        v = np.full(100, 1.0 / math.sqrt(100))
        assert ipr(v) == pytest.approx(0.01, abs=1e-12)

    def test_basis_vector_is_fully_localized(self):
        v = np.zeros(100)
        v[3] = 1.0
        assert ipr(v) == 1.0

    def test_four_equal_components(self):
        v = np.zeros(100)
        v[[2, 17, 40, 77]] = 0.5
        assert ipr(v) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            ipr(np.array([1.0, 1.0]))

    @given(seed=st.integers(0, 2**31), flips=st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_invariant_under_sign_flips_and_permutation(self, seed, flips):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        base = ipr(v)
        signs = np.where(np.random.default_rng(flips).random(32) < 0.5, -1.0, 1.0)
        perm = np.random.default_rng(flips + 1).permutation(32)
        assert ipr((v * signs)[perm]) == pytest.approx(base, abs=1e-12)

    def test_range_bounds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(64)
            v /= np.linalg.norm(v)
            assert 1.0 / 64 <= ipr(v) <= 1.0


class TestRmtBounds:
    def test_narrow_band_limit(self):
        b = rmt_bounds(1, 10000)
        assert b.lambda_minus == pytest.approx(0.9801, abs=1e-12)
        assert b.lambda_plus == pytest.approx(1.0201, abs=1e-12)

    def test_wide_aspect_ratio(self):
        # frozen from independent evaluation of (1 +- 1/sqrt(q))^2
        b = rmt_bounds(497, 2015)
        assert b.q == pytest.approx(2015 / 497, rel=1e-15)
        assert b.lambda_minus == pytest.approx(0.25337247090400294, abs=1e-12)
        assert b.lambda_plus == pytest.approx(2.239927777234955, abs=1e-12)

    def test_desk_scale_aspect(self):
        b = rmt_bounds(64, 2048)
        assert b.q == 32.0
        assert b.lambda_minus == pytest.approx(0.6776966094067263, abs=1e-12)
        assert b.lambda_plus == pytest.approx(1.384803390593274, abs=1e-12)

    def test_degenerate_aspect(self):
        with pytest.raises(DegenerateAspect):
            rmt_bounds(64, 64)
        with pytest.raises(DegenerateAspect):
            rmt_bounds(64, 32)


class TestSegment:
    def _bounds(self):
        return rmt_bounds(497, 2015)  # approximately (0.2534, 2.2399)

    def test_all_random_when_inside(self):
        parts = segment([1.0, 1.0, 1.0], self._bounds())
        assert parts.left == () and parts.right == ()
        assert parts.random == (0, 1, 2)

    def test_three_way_split(self):
        parts = segment([0.1, 1.0, 3.0], self._bounds())
        assert parts.left == (0,)
        assert parts.random == (1,)
        assert parts.right == (2,)

    def test_boundary_values_count_as_random(self):
        b = self._bounds()
        parts = segment([b.lambda_minus, b.lambda_plus], b)
        assert parts.random == (0, 1)

    def test_partition_property(self, gaussian_returns_64):
        es = eigendecompose(equal_time_corr(gaussian_returns_64))
        parts = segment(es.eigenvalues, rmt_bounds(64, 2048))
        merged = sorted(parts.left + parts.random + parts.right)
        assert merged == list(range(64))

    def test_iid_mostly_random(self):
        bounds = rmt_bounds(64, 2048)
        for seed in range(5):
            g = iid_returns(64, 2048, seed=seed)
            es = eigendecompose(equal_time_corr(g))
            parts = segment(es.eigenvalues, bounds)
            assert len(parts.random) >= 0.9 * 64

    def test_iid_median_ipr_delocalized(self):
        for seed in range(5):
            g = iid_returns(64, 2048, seed=seed)
            es = eigendecompose(equal_time_corr(g))
            assert 1.0 / 64 <= np.median(es.iprs) <= 3.0 / 64
