import numpy as np

from repro.autoencoder.init import init_codes_pca


class TestPCAInit:
    def test_shapes_and_binary(self, small_cloud):
        Z, h = init_codes_pca(small_cloud, 5, rng=0)
        assert Z.shape == (len(small_cloud), 5)
        assert set(np.unique(Z)) <= {0, 1}

    def test_subset_fit(self, small_cloud):
        Z, h = init_codes_pca(small_cloud, 4, subset=50, rng=0)
        assert Z.shape == (len(small_cloud), 4)

    def test_returned_hash_consistent(self, small_cloud):
        Z, h = init_codes_pca(small_cloud, 4, rng=0)
        assert np.array_equal(h.encode(small_cloud), Z)

    def test_codes_informative(self, small_cloud):
        # PCA bits should not be constant on clustered data.
        Z, _ = init_codes_pca(small_cloud, 3, rng=0)
        assert (Z.mean(axis=0) > 0.02).all() and (Z.mean(axis=0) < 0.98).all()
