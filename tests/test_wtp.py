"""Unit tests for :mod:`repro.core.wtp`."""

import numpy as np
import pytest

from repro.core.bundle import Bundle
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError


class TestConstruction:
    def test_shape_properties(self, handmade_wtp):
        assert handmade_wtp.n_users == 4
        assert handmade_wtp.n_items == 3

    def test_values_are_read_only(self, handmade_wtp):
        with pytest.raises(ValueError):
            handmade_wtp.values[0, 0] = 99.0

    def test_input_is_copied(self):
        source = np.ones((2, 2))
        wtp = WTPMatrix(source)
        source[0, 0] = 5.0
        assert wtp.values[0, 0] == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            WTPMatrix([[1.0, -0.1]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            WTPMatrix([[np.nan, 1.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="2-D"):
            WTPMatrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            WTPMatrix(np.empty((0, 3)))

    def test_label_validation(self):
        with pytest.raises(ValidationError, match="labels"):
            WTPMatrix([[1.0, 2.0]], item_labels=("only-one",))

    def test_label_lookup(self, handmade_wtp):
        assert handmade_wtp.label_of(1) == "b"
        assert WTPMatrix([[1.0]]).label_of(0) == "item 0"


class TestAggregates:
    def test_total(self, handmade_wtp):
        assert handmade_wtp.total == pytest.approx(66.0)

    def test_column_view(self, handmade_wtp):
        np.testing.assert_array_equal(handmade_wtp.column(0), [10.0, 8.0, 0.0, 7.0])

    def test_support(self, handmade_wtp):
        np.testing.assert_array_equal(
            handmade_wtp.support(Bundle.of(1)), [False, True, True, True]
        )
        np.testing.assert_array_equal(
            handmade_wtp.support(Bundle.of(0, 1)), [True, True, True, True]
        )


class TestBundleWTP:
    def test_singleton_has_no_theta_factor(self, handmade_wtp):
        # "theta only applies to bundling": a singleton's WTP is the item's.
        np.testing.assert_allclose(
            handmade_wtp.bundle_wtp(Bundle.of(0), theta=0.5), handmade_wtp.column(0)
        )

    def test_pair_applies_theta(self, handmade_wtp):
        expected = (handmade_wtp.column(0) + handmade_wtp.column(2)) * 0.9
        np.testing.assert_allclose(
            handmade_wtp.bundle_wtp(Bundle.of(0, 2), theta=-0.1), expected
        )

    def test_theta_zero_is_plain_sum(self, handmade_wtp):
        expected = handmade_wtp.values.sum(axis=1)
        np.testing.assert_allclose(handmade_wtp.bundle_wtp(Bundle.of(0, 1, 2)), expected)


class TestDerivations:
    def test_subset_items_reindexes(self, handmade_wtp):
        sub = handmade_wtp.subset_items([2, 0])
        assert sub.n_items == 2
        np.testing.assert_array_equal(sub.column(0), handmade_wtp.column(2))
        assert sub.item_labels == ("c", "a")

    def test_subset_items_empty_rejected(self, handmade_wtp):
        with pytest.raises(ValidationError):
            handmade_wtp.subset_items([])

    def test_subset_users(self, handmade_wtp):
        sub = handmade_wtp.subset_users([3, 0])
        assert sub.n_users == 2
        np.testing.assert_array_equal(sub.values[0], handmade_wtp.values[3])

    def test_clone_users(self, handmade_wtp):
        cloned = handmade_wtp.clone_users(3)
        assert cloned.n_users == 12
        assert cloned.total == pytest.approx(3 * handmade_wtp.total)
        np.testing.assert_array_equal(cloned.values[4:8], handmade_wtp.values)

    def test_clone_users_invalid_factor(self, handmade_wtp):
        with pytest.raises(ValidationError):
            handmade_wtp.clone_users(0)

    def test_scaled(self, handmade_wtp):
        assert handmade_wtp.scaled(2.0).total == pytest.approx(2 * handmade_wtp.total)
        with pytest.raises(ValidationError):
            handmade_wtp.scaled(0.0)

    def test_repr(self, handmade_wtp):
        assert "n_users=4" in repr(handmade_wtp)


class TestStorageBackends:
    """The dense-float32 and sparse-CSC storage backends."""

    BACKENDS = (
        {"dtype": "float32"},
        {"storage": "sparse"},
        {"storage": "sparse", "dtype": "float32"},
    )

    def test_default_backend_is_dense_float64(self, handmade_wtp):
        assert handmade_wtp.storage == "dense"
        assert handmade_wtp.dtype == np.dtype(np.float64)

    def test_raw_sum_is_float64_everywhere(self, handmade_wtp):
        reference = np.asarray(handmade_wtp.values)[:, [0, 2]].sum(axis=1)
        for kwargs in self.BACKENDS:
            wtp = handmade_wtp.with_backend(**kwargs)
            raw = wtp.raw_sum([0, 2])
            assert raw.dtype == np.float64
            np.testing.assert_allclose(raw, reference, rtol=1e-6)

    def test_dense_float64_raw_sum_is_exact(self, handmade_wtp):
        reference = np.asarray(handmade_wtp.values)[:, [0, 1, 2]].sum(axis=1)
        np.testing.assert_array_equal(handmade_wtp.raw_sum([0, 1, 2]), reference)

    def test_support_mask_matches_dense(self, handmade_wtp):
        reference = (np.asarray(handmade_wtp.values)[:, [1, 2]] > 0).any(axis=1)
        for kwargs in self.BACKENDS:
            wtp = handmade_wtp.with_backend(**kwargs)
            np.testing.assert_array_equal(wtp.support_mask([1, 2]), reference)

    def test_derivations_preserve_backend(self, handmade_wtp):
        sparse = handmade_wtp.with_backend(storage="sparse", dtype="float32")
        for derived in (
            sparse.subset_items([0, 2]),
            sparse.subset_users([1, 3]),
            sparse.clone_users(2),
            sparse.scaled(3.0),
        ):
            assert derived.storage == "sparse"
            assert derived.dtype == np.dtype(np.float32)

    def test_with_backend_identity_returns_self(self, handmade_wtp):
        assert handmade_wtp.with_backend(storage="dense", dtype="float64") is handmade_wtp

    def test_roundtrip_conversion(self, handmade_wtp):
        back = handmade_wtp.with_backend(storage="sparse").with_backend(storage="dense")
        np.testing.assert_array_equal(back.values, handmade_wtp.values)
        assert back.item_labels == handmade_wtp.item_labels

    def test_sparse_values_materializes_dense(self, handmade_wtp):
        sparse = handmade_wtp.with_backend(storage="sparse")
        np.testing.assert_array_equal(sparse.values, handmade_wtp.values)
        with pytest.raises(ValueError):
            sparse.values[0, 0] = 1.0

    def test_nnz_and_density(self, handmade_wtp):
        for kwargs in ({}, *self.BACKENDS):
            wtp = handmade_wtp.with_backend(**kwargs) if kwargs else handmade_wtp
            assert wtp.nnz == 9
            assert wtp.density == pytest.approx(9 / 12)

    def test_sparse_validation(self):
        sp = pytest.importorskip("scipy.sparse")
        with pytest.raises(ValidationError, match="negative"):
            WTPMatrix(sp.csr_matrix(np.array([[1.0, -2.0]])))
        with pytest.raises(ValidationError, match="non-finite"):
            WTPMatrix(sp.csr_matrix(np.array([[np.inf, 1.0]])))
        with pytest.raises(ValidationError, match="non-empty"):
            WTPMatrix(sp.csr_matrix(np.empty((0, 3))))

    def test_explicit_zeros_are_not_support(self):
        sp = pytest.importorskip("scipy.sparse")
        matrix = sp.csr_matrix(  # explicit stored zero at (0, 1)
            (np.array([1.0, 0.0, 2.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
            shape=(2, 2),
        )
        wtp = WTPMatrix(matrix)
        np.testing.assert_array_equal(wtp.support_mask([1]), [False, True])

    def test_invalid_dtype_and_storage(self, handmade_wtp):
        with pytest.raises(ValidationError):
            WTPMatrix([[1.0]], dtype="int32")
        with pytest.raises(ValidationError):
            WTPMatrix([[1.0]], storage="columnar")

    def test_bundle_wtp_across_backends(self, handmade_wtp):
        reference = handmade_wtp.bundle_wtp(Bundle.of(0, 2), theta=0.25)
        for kwargs in self.BACKENDS:
            wtp = handmade_wtp.with_backend(**kwargs)
            got = wtp.bundle_wtp(Bundle.of(0, 2), theta=0.25)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, reference, rtol=1e-6)

    @pytest.mark.parametrize(
        "kwargs", ({}, *BACKENDS), ids=("float64", "float32", "sparse", "sparse32")
    )
    def test_raw_sums_equal_raw_sum_per_bundle(self, kwargs):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 9.0, size=(7, 30)) * (rng.random((7, 30)) < 0.6)
        wtp = WTPMatrix(values, **kwargs)
        for k in (1, 2, 9, 20):
            index = np.stack([rng.choice(30, size=k, replace=False) for _ in range(4)])
            sums = wtp.raw_sums(index)
            assert sums.shape == (7, 4) and sums.dtype == np.float64
            for column, items in enumerate(index):
                assert sums[:, column].tobytes() == wtp.raw_sum(items).tobytes()

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_raw_sum_of_a_user_ignores_the_other_rows(self, dtype):
        # A single-row block would otherwise be summed pairwise by numpy
        # and a multi-row one left to right; bundles of >= 8 items differ.
        rng = np.random.default_rng(6)
        values = rng.uniform(0.0, 9.0, size=(5, 40))
        wtp = WTPMatrix(values, dtype=dtype)
        items = rng.choice(40, size=25, replace=False)
        whole = wtp.raw_sum(items)
        expected = values[:, items].astype(dtype).sum(axis=1).astype(np.float64)
        assert whole.tobytes() == expected.tobytes()
        for user in range(5):
            alone = WTPMatrix(values[user : user + 1], dtype=dtype).raw_sum(items)
            assert alone.tobytes() == whole[user : user + 1].tobytes()
