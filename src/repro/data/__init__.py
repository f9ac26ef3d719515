"""Synthetic dataset substrate.

The paper evaluates on CIFAR (GIST-320 features), SIFT-10K, SIFT-1M and
SIFT-1B. Those corpora are not redistributable here, so this package
provides generators producing feature clouds with the statistical structure
the algorithms actually exploit — cluster structure (so nearest-neighbour
retrieval is meaningful) and redundancy (so few SGD epochs suffice, paper
section 8.2).
"""

from repro.data.synthetic import make_clustered, make_gist_like, make_sift_like

__all__ = [
    "make_clustered",
    "make_gist_like",
    "make_sift_like",
]
