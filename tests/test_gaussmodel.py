"""Covariance model construction, factorization, and generators."""

import numpy as np
import pytest

from gcilab.errors import (
    GciLabError,
    InvalidBounds,
    InvalidDimension,
    MalformedInput,
    NotFinite,
    NotPSD,
    NotSymmetric,
)
from gcilab.gaussmodel import (
    CorrelationModel,
    ThresholdVector,
    equicorrelated,
    from_covariance,
    load_covariance_csv,
    load_vector_csv,
    product_model,
    random_correlation,
)


class TestFromCovariance:
    def test_identity_factors(self):
        m = from_covariance(np.eye(2))
        assert m.dim == 2
        np.testing.assert_allclose(sorted(map(tuple, m.factor_rows)), [(0, 1), (1, 0)])

    def test_rank_one_collapse(self):
        m = from_covariance([[1, 1], [1, 1]])
        assert m.dim == 1
        np.testing.assert_allclose(m.factor_rows, [[1.0], [1.0]])

    def test_gram_reproduction(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = from_covariance(sigma)
        np.testing.assert_allclose(m.factor_rows @ m.factor_rows.T, sigma, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            from_covariance([[1, 0.2], [0.3, 1]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            from_covariance([[1, 2], [2, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_entries(self, bad):
        # NaN compares false against every tolerance, so it would pass the
        # symmetry and Gram checks without an explicit finiteness test.
        with pytest.raises(NotFinite):
            from_covariance([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NotFinite):
            from_covariance([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(NotFinite):
            CorrelationModel(sigma=[[1.0, bad], [bad, 1.0]], factor_rows=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotFinite):
            CorrelationModel(sigma=np.eye(2), factor_rows=[[1.0, 0.0], [bad, 1.0]])

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6, 1e8])
    def test_rank_does_not_depend_on_units(self, scale):
        sigma = random_correlation(6, 3, 11).sigma
        m = from_covariance(sigma * scale)
        assert m.dim == 3
        np.testing.assert_allclose(m.factor_rows @ m.factor_rows.T, sigma * scale,
                                   rtol=0, atol=1e-9 * scale)
        # Each coordinate in its own units: rank is decided on the correlation scale.
        d = scale * 10.0 ** np.random.default_rng(11).uniform(-8.0, 8.0, 6)
        each = from_covariance(d[:, None] * sigma * d[None, :])
        assert each.dim == 3
        np.testing.assert_allclose(each.factor_rows / np.sqrt(each.variances)[:, None],
                                   from_covariance(sigma).factor_rows, rtol=0, atol=1e-12)

    def test_rejects_correlation_beyond_one_in_small_units(self):
        # rho = 10: not PSD, however small the second variance.
        with pytest.raises(NotPSD):
            from_covariance([[1.0, 1e-9], [1e-9, 1e-20]])

    def test_zero_variance_rows_are_exactly_zero(self):
        sigma = np.zeros((4, 4))
        sigma[np.ix_([0, 2, 3], [0, 2, 3])] = random_correlation(3, 3, 5).sigma * 1e-6
        m = from_covariance(sigma)
        assert m.dim == 3 and not np.any(m.factor_rows[1])
        with pytest.raises(NotPSD):
            from_covariance([[1.0, 1e-6], [1e-6, 0.0]])
        with pytest.raises(NotPSD):
            from_covariance([[1.0, 0.0], [0.0, -1e-6]])

    def test_gram_check_is_relative_to_each_variance(self):
        # Dropping the small coordinate's row is off by its whole variance.
        with pytest.raises(GciLabError):
            CorrelationModel(sigma=np.diag([1.0, 1e-12]), factor_rows=[[1.0], [0.0]])
        CorrelationModel(sigma=np.diag([1.0, 1e-12]), factor_rows=[[1.0, 0.0], [0.0, 1e-6]])

    def test_zero_covariance_is_rank_zero(self):
        m = from_covariance(np.zeros((3, 3)))
        np.testing.assert_array_equal(m.factor_rows, np.zeros((3, 1)))

    def test_idempotent_through_gram_map(self):
        for seed in range(10):
            m = random_correlation(5, 3, seed)
            again = from_covariance(m.factor_rows @ m.factor_rows.T)
            np.testing.assert_allclose(
                again.factor_rows @ again.factor_rows.T, m.sigma, atol=2e-10)

    def test_row_negation_flips_one_row_and_column(self):
        m = random_correlation(4, 3, 2)
        rows = m.factor_rows.copy()
        rows[1] = -rows[1]
        flipped = rows @ rows.T
        np.testing.assert_allclose(np.diag(flipped), np.diag(m.sigma), atol=1e-12)
        expect = m.sigma.copy()
        expect[1, :] *= -1
        expect[:, 1] *= -1
        np.testing.assert_allclose(flipped, expect, atol=1e-12)


class TestRandomCorrelation:
    def test_single_variable(self):
        m = random_correlation(1, 1, 7)
        np.testing.assert_allclose(m.sigma, [[1.0]])

    def test_unit_diagonal_and_bounded_offdiagonal(self):
        m = random_correlation(3, 2, 1)
        np.testing.assert_allclose(np.diag(m.sigma), 1.0, atol=1e-12)
        off = m.sigma[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) <= 1.0 + 1e-12)

    def test_deterministic(self):
        a = random_correlation(4, 2, 123)
        b = random_correlation(4, 2, 123)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.factor_rows, b.factor_rows)

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimension):
            random_correlation(2, 3, 0)
        with pytest.raises(InvalidDimension):
            random_correlation(2, 0, 0)

    def test_gram_invariant_across_seeds(self):
        for seed in range(20):
            m = random_correlation(6, 4, seed)
            np.testing.assert_allclose(
                m.factor_rows @ m.factor_rows.T, m.sigma, atol=1e-10)


class TestModelHelpers:
    def test_submodel_matches_block(self):
        m = random_correlation(5, 3, 4)
        sub = m.submodel([1, 3])
        np.testing.assert_allclose(sub.sigma, m.sigma[np.ix_([1, 3], [1, 3])], atol=1e-12)

    def test_product_model_block_structure(self):
        m = random_correlation(2, 2, 9)
        big = product_model(m, 3)
        assert big.size == 6
        np.testing.assert_allclose(big.sigma[:2, :2], m.sigma, atol=1e-12)
        np.testing.assert_allclose(big.sigma[:2, 2:], 0.0, atol=1e-12)

    def test_equicorrelated(self):
        m = equicorrelated(4, 0.5)
        assert m.is_standardized()
        np.testing.assert_allclose(m.sigma[0, 1], 0.5)

    def test_standardized(self):
        sigma = np.array([[4.0, 1.0], [1.0, 1.0]])
        m = from_covariance(sigma).standardized()
        np.testing.assert_allclose(np.diag(m.sigma), 1.0, atol=1e-12)
        np.testing.assert_allclose(m.sigma[0, 1], 0.5, atol=1e-12)

    def test_factor_dim_cannot_exceed_size(self):
        with pytest.raises(InvalidDimension):
            CorrelationModel(np.eye(2), np.zeros((2, 3)))


class TestThresholdVector:
    def test_positive_required(self):
        with pytest.raises(InvalidBounds):
            ThresholdVector([1.0, 0.0])
        with pytest.raises(InvalidBounds):
            ThresholdVector([-1.0])

    def test_infinite_entries_allowed(self):
        c = ThresholdVector([1.0, np.inf])
        assert np.isinf(c[1])

    def test_extended_arithmetic(self):
        s = ThresholdVector([1.0, np.inf])
        t = ThresholdVector([np.inf, 2.0])
        np.testing.assert_array_equal(s.minimum(t).as_array, [1.0, 2.0])
        np.testing.assert_array_equal(s.plus(t).as_array, [np.inf, np.inf])

    def test_widened(self):
        c = ThresholdVector([1.0, 1.0])
        np.testing.assert_array_equal(c.widened(0.5, 1).as_array, [1.0, 1.5])
        np.testing.assert_array_equal(c.widened(0.5).as_array, [1.5, 1.5])


class TestCsv:
    def test_covariance_roundtrip(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("# covariance\n1,0.25\n0.25,1\n")
        np.testing.assert_allclose(load_covariance_csv(path), [[1, 0.25], [0.25, 1]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n0\n")
        with pytest.raises(MalformedInput):
            load_covariance_csv(path)

    def test_vector_row_and_infinity(self, tmp_path):
        path = tmp_path / "vec.csv"
        path.write_text("1.5,inf,2\n")
        v = load_vector_csv(path)
        assert np.isinf(v[1]) and v[0] == 1.5

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,two\n")
        with pytest.raises(MalformedInput):
            load_vector_csv(path)
