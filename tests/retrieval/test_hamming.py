from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.retrieval.hamming import (
    HAS_BITWISE_COUNT,
    _popcount_lut16,
    hamming_cdist,
    hamming_knn,
    pack_bits,
    popcount,
)
from tests.utils.test_validation import check_binary_codes_unique, code_candidates, refusal


def unpack_bits(packed, n_bits):
    """Inverse of ``pack_bits``: the (n, n_bits) uint8 codes."""
    b = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8)
    return np.unpackbits(b, axis=1, count=n_bits, bitorder="little")


code_matrices = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 130)),
    elements=st.integers(0, 1),
)


class TestPacking:
    @given(code_matrices)
    @settings(max_examples=40)
    def test_roundtrip(self, Z):
        packed = pack_bits(Z)
        assert np.array_equal(unpack_bits(packed, Z.shape[1]), Z)

    def test_word_count(self):
        assert pack_bits(np.zeros((2, 64), dtype=np.uint8)).shape == (2, 1)
        assert pack_bits(np.zeros((2, 65), dtype=np.uint8)).shape == (2, 2)

    def test_bit_layout(self):
        Z = np.zeros((1, 8), dtype=np.uint8)
        Z[0, 3] = 1
        assert pack_bits(Z)[0, 0] == 8  # bit 3 -> value 2^3

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            pack_bits(np.full((2, 3), 2))

    @pytest.mark.parametrize("L", [1, 7, 63, 64, 65, 100, 128, 130])
    def test_byte_parity_with_shift_loop(self, L):
        # The vectorised packbits path must be byte-identical to the
        # definitional per-bit shift loop, including ragged last words.
        rng = np.random.default_rng(L)
        Z = rng.integers(0, 2, size=(9, L), dtype=np.uint8)
        ref = np.zeros((9, (L + 63) // 64), dtype=np.uint64)
        for l in range(L):
            ref[:, l // 64] |= Z[:, l].astype(np.uint64) << np.uint64(l % 64)
        assert np.array_equal(pack_bits(Z), ref)

    @given(code_candidates(max_bits=130))
    def test_bytes_equal_under_sorting_check(self, Z):
        # The one-pass code check changes no refusal and no packed byte:
        # pack with the sorting oracle in its place, then with the check.
        with mock.patch("repro.retrieval.hamming.check_binary_codes",
                        check_binary_codes_unique):
            want = refusal(pack_bits, Z)
            ref = None if want else pack_bits(Z)
        assert (refusal(pack_bits, Z) is None) == (want is None)
        if ref is not None:
            got = pack_bits(Z)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestPopcount:
    def test_lut_matches_definition(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2**64, size=257, dtype=np.uint64)
        ref = np.array([bin(int(v)).count("1") for v in a], dtype=np.uint8)
        assert np.array_equal(_popcount_lut16(a), ref)
        assert np.array_equal(popcount(a), ref)

    @pytest.mark.skipif(not HAS_BITWISE_COUNT, reason="NumPy < 2.0")
    def test_lut_matches_native(self):
        # The setup.py floor is set by the fallback; on NumPy >= 2.0 both
        # paths exist and must agree everywhere we can afford to check.
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2**64, size=(13, 101), dtype=np.uint64)
        edge = np.array([0, 1, 2**63, 2**64 - 1, 0x5555555555555555], dtype=np.uint64)
        for arr in (a, edge):
            assert np.array_equal(
                _popcount_lut16(arr), np.bitwise_count(arr).astype(np.uint8)
            )


class TestHammingCdist:
    @given(code_matrices)
    @settings(max_examples=30)
    def test_matches_direct_bit_count(self, Z):
        packed = pack_bits(Z)
        D = hamming_cdist(packed, packed)
        direct = (Z[:, None, :] != Z[None, :, :]).sum(axis=2)
        assert np.array_equal(D, direct)

    def test_diagonal_zero(self):
        Z = np.random.default_rng(0).integers(0, 2, size=(10, 33), dtype=np.uint8)
        D = hamming_cdist(pack_bits(Z), pack_bits(Z))
        assert (np.diag(D) == 0).all()

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A = pack_bits(rng.integers(0, 2, size=(6, 20), dtype=np.uint8))
        B = pack_bits(rng.integers(0, 2, size=(9, 20), dtype=np.uint8))
        assert np.array_equal(hamming_cdist(A, B), hamming_cdist(B, A).T)

    def test_triangle_inequality(self):
        Z = np.random.default_rng(1).integers(0, 2, size=(8, 16), dtype=np.uint8)
        D = hamming_cdist(pack_bits(Z), pack_bits(Z)).astype(int)
        for i in range(8):
            for j in range(8):
                assert (D[i] + D[j] >= D[i, j]).all()

    def test_chunking_equivalence(self):
        rng = np.random.default_rng(2)
        A = pack_bits(rng.integers(0, 2, size=(30, 40), dtype=np.uint8))
        B = pack_bits(rng.integers(0, 2, size=(11, 40), dtype=np.uint8))
        assert np.array_equal(hamming_cdist(A, B, chunk=7), hamming_cdist(A, B, chunk=1024))

    def test_rejects_word_mismatch(self):
        with pytest.raises(ValueError):
            hamming_cdist(np.zeros((2, 1), np.uint64), np.zeros((2, 2), np.uint64))


class TestHammingKnn:
    def test_exact_neighbours(self):
        rng = np.random.default_rng(3)
        Z = rng.integers(0, 2, size=(40, 24), dtype=np.uint8)
        Q = rng.integers(0, 2, size=(5, 24), dtype=np.uint8)
        pq, pb = pack_bits(Q), pack_bits(Z)
        nn = hamming_knn(pq, pb, 7)
        D = hamming_cdist(pq, pb)
        for i in range(5):
            retrieved = sorted(D[i, nn[i]].tolist())
            best = sorted(D[i].tolist())[:7]
            assert retrieved == best

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(4)
        Z = rng.integers(0, 2, size=(30, 16), dtype=np.uint8)
        pq, pb = pack_bits(Z[:3]), pack_bits(Z)
        nn = hamming_knn(pq, pb, 10)
        D = hamming_cdist(pq, pb)
        for i in range(3):
            ds = D[i, nn[i]]
            assert (np.diff(ds.astype(int)) >= 0).all()

    def test_self_is_first(self):
        Z = np.random.default_rng(5).integers(0, 2, size=(20, 32), dtype=np.uint8)
        packed = pack_bits(Z)
        nn = hamming_knn(packed[:4], packed, 1)
        # Query codes are in the base; distance-0 match must rank first
        # (possibly another identical code — check distance, not index).
        D = hamming_cdist(packed[:4], packed)
        assert (D[np.arange(4), nn[:, 0]] == 0).all()

    def test_ties_break_by_ascending_index(self):
        # Duplicate every code so each distance value ties across copies:
        # the result must be the (distance, index) lexicographic head.
        rng = np.random.default_rng(8)
        Z = np.repeat(rng.integers(0, 2, size=(20, 16), dtype=np.uint8), 5, axis=0)
        Q = rng.integers(0, 2, size=(6, 16), dtype=np.uint8)
        pq, pb = pack_bits(Q), pack_bits(Z)
        nn = hamming_knn(pq, pb, 30)
        D = hamming_cdist(pq, pb)
        key = D.astype(np.int64) * len(Z) + np.arange(len(Z))
        ref = np.argsort(key, axis=1)[:, :30]
        assert np.array_equal(nn, ref)

    def test_tie_order_is_chunk_invariant(self):
        rng = np.random.default_rng(9)
        Z = np.repeat(rng.integers(0, 2, size=(10, 8), dtype=np.uint8), 8, axis=0)
        pq, pb = pack_bits(Z[:7]), pack_bits(Z)
        for chunk in (1, 3, 1024):
            assert np.array_equal(
                hamming_knn(pq, pb, 20, chunk=chunk), hamming_knn(pq, pb, 20)
            )

    def test_rejects_bad_k(self):
        packed = pack_bits(np.zeros((5, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            hamming_knn(packed, packed, 0)
        with pytest.raises(ValueError):
            hamming_knn(packed, packed, 6)
