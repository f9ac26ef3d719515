import numpy as np

from pbench import oracles
from repro.serve import hamming_topk


def _setup(n=600, n_q=7, k=5):
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    q = rng.integers(0, 2**63, size=(n_q, 1), dtype=np.uint64)
    ids, dists = hamming_topk(q, codes, k)
    return codes, q, ids, dists, k


def test_cheap_check_accepts_exact_results_and_catches_each_defect():
    codes, q, ids, dists, k = _setup()
    assert oracles.cheap_check(ids, dists, q, codes, k).all()
    swapped = ids.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]          # order broken (and distances)
    far = ids.copy()
    far[1, 0] = len(codes) + 3                        # id out of range
    off = dists.copy()
    off[2, 3] += 1                                    # a distance that is not the popcount
    assert not oracles.cheap_check(swapped, dists, q, codes, k)[0]
    assert not oracles.cheap_check(far, dists, q, codes, k)[1]
    bad = oracles.cheap_check(ids, off, q, codes, k)
    assert not bad[2] and bad[[0, 1, 3]].all()
    assert not oracles.cheap_check(ids[:, :-1], dists[:, :-1], q, codes, k).any()


def test_prefix_oracles_equal_a_flat_scan_at_every_boundary():
    codes, q, _, _, k = _setup()
    base, blocks = codes[:300], [codes[300:450], codes[450:]]
    got = oracles.prefix_oracles(q, base, blocks, k)
    for j, end in enumerate((300, 450, 600)):
        want_ids, want_d = hamming_topk(q, codes[:end], k)
        assert np.array_equal(got[j][0], want_ids) and np.array_equal(got[j][1], want_d)
    ids, d = got[1]
    assert oracles.matches_some_prefix(ids[3], d[3], 3, got)
    assert not oracles.matches_some_prefix(ids[3][::-1], d[3], 3, got)


def test_e_q_match_needs_same_length_and_tolerance():
    assert oracles.e_q_matches([1.0, 2.0], [1.0, 2.0 + 1e-12], 1e-9)
    assert not oracles.e_q_matches([1.0, 2.0], [1.0, 2.1], 1e-9)
    assert not oracles.e_q_matches([1.0], [1.0, 2.0], 1e-9)
    assert not oracles.e_q_matches([1.0, float("nan")], [1.0, 2.0], 1.0)
