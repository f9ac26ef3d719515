"""Binary-hashing retrieval substrate.

Implements the evaluation pipeline of paper section 8.1: pack L-bit codes
into machine words, search by Hamming distance with popcounts, and score
against brute-force Euclidean ground truth with precision@k (CIFAR/SIFT-10K/
SIFT-1M) and recall@R with tie-as-top-rank (SIFT-1B). Also provides the
truncated-PCA initialisation / baseline and ITQ (Gong et al., 2013), the
established method the BA is compared against.
"""

from repro.retrieval.hamming import hamming_cdist, hamming_knn, pack_bits, popcount
from repro.retrieval.groundtruth import euclidean_cdist, euclidean_knn
from repro.retrieval.metrics import precision_at_k, recall_at_R, recall_curve
from repro.retrieval.baselines import ITQHash, TruncatedPCAHash

__all__ = [
    "pack_bits",
    "popcount",
    "hamming_cdist",
    "hamming_knn",
    "euclidean_cdist",
    "euclidean_knn",
    "precision_at_k",
    "recall_at_R",
    "recall_curve",
    "TruncatedPCAHash",
    "ITQHash",
]
