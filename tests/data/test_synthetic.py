import numpy as np
import pytest

from repro.data.synthetic import make_clustered, make_gist_like, make_sift_like


class TestMakeClustered:
    def test_shape(self):
        assert make_clustered(100, 8, rng=0).shape == (100, 8)

    def test_reproducible(self):
        assert np.array_equal(make_clustered(50, 4, rng=1), make_clustered(50, 4, rng=1))

    def test_cluster_structure_present(self):
        # Within-cluster distances must be far smaller than between-cluster.
        X = make_clustered(200, 10, n_clusters=2, spread=0.1, cluster_scale=50.0, rng=0)
        from scipy.cluster.vq import kmeans2

        _, labels = kmeans2(X, 2, seed=1, minit="++")
        d_within = np.mean(
            [np.linalg.norm(X[labels == c] - X[labels == c].mean(0), axis=1).mean()
             for c in (0, 1)]
        )
        d_between = np.linalg.norm(X[labels == 0].mean(0) - X[labels == 1].mean(0))
        assert d_between > 5 * d_within

    def test_spectral_decay(self):
        # decay < 1 gives an anisotropic, fast-decaying spectrum per cluster.
        X = make_clustered(500, 20, n_clusters=1, cluster_scale=0.0, decay=0.7, rng=0)
        s = np.linalg.svd(X - X.mean(0), compute_uv=False)
        assert s[0] > 5 * s[10]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_clustered(0, 4)
        with pytest.raises(ValueError):
            make_clustered(10, 0)


class TestSiftLike:
    def test_nonnegative_and_bounded(self):
        X = make_sift_like(200, 16, rng=0)
        assert (X >= 0).all() and (X <= 255).all()

    def test_uint8_mode(self):
        X = make_sift_like(50, 16, rng=0, as_uint8=True)
        assert X.dtype == np.uint8

    def test_gist_like_is_centred_ish(self):
        X = make_gist_like(500, 32, rng=0)
        assert abs(X.mean()) < 3.0
