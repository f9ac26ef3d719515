"""Shared-memory shipping: a descriptor rebuilds exactly the arrays that
were packed, as views over the one segment, and the owner's unlink is
the only clean-up needed."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.distributed.partition import Shard, TimingShard
from repro.distributed.shm import (
    attach_array_block,
    attach_shard,
    pack_array_block,
    pack_shards,
    unlink_segments,
)


@dataclass
class ListShard:
    """A shard whose layers travel as a list of arrays."""

    layers: list
    name: str


def test_array_block_round_trip_keeps_dtype_shape_and_bytes():
    arrays = [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.array([True, False, True]),
        np.arange(5, dtype=np.int64),
        np.zeros((0, 7)),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    ]
    seg, desc = pack_array_block(arrays)
    try:
        peer, back = attach_array_block(desc)
        try:
            for a, b in zip(arrays, back):
                assert b.dtype == a.dtype and b.shape == a.shape
                assert np.array_equal(a, b)
                assert b.base is not None  # a view over the segment
            del a, b, back
        finally:
            peer.close()
    finally:
        unlink_segments([seg])


def test_an_empty_block_still_makes_a_segment():
    seg, desc = pack_array_block([])
    try:
        assert desc["fields"] == []
        assert seg.size >= 1
    finally:
        unlink_segments([seg])


def test_attached_views_share_the_segment():
    seg, desc = pack_array_block([np.zeros(4)])
    try:
        peer, (view,) = attach_array_block(desc)
        try:
            view[2] = 5.0
            owner = np.ndarray((4,), dtype=np.float64, buffer=seg.buf)
            assert owner.tolist() == [0.0, 0.0, 5.0, 0.0]
            del view, owner
        finally:
            peer.close()
    finally:
        unlink_segments([seg])


def _check_rebuilt(shards, rebuilt):
    s0, s1, s2, s3 = rebuilt
    assert isinstance(s0, Shard)
    for field in ("X", "F", "Z", "indices"):
        assert np.array_equal(getattr(s0, field), getattr(shards[0], field))
    assert s1.name == "net" and len(s1.layers) == 2
    assert s1.layers[1].dtype == np.int32
    assert np.array_equal(s1.layers[1], np.arange(4))
    assert s2 == TimingShard(9)
    assert s3 == {"rows": 9}


def test_pack_shards_rebuilds_each_shard_type():
    X = np.arange(12.0).reshape(4, 3)
    shards = [
        Shard(X=X, F=X * 2, Z=X[:, :2] > 4, indices=np.arange(4)),
        ListShard(layers=[np.ones(3), np.arange(4, dtype=np.int32)], name="net"),
        TimingShard(9),
        {"rows": 9},
    ]
    segments, descs = pack_shards(shards)
    peers = []
    try:
        assert descs[2]["fields"] == [] and descs[2]["values"] == {"n_points": 9}
        assert segments[3] is None and descs[3] == {"pickle": shards[3]}
        rebuilt = []
        for desc in descs:
            peer, shard = attach_shard(desc)
            peers.append(peer)
            rebuilt.append(shard)
        _check_rebuilt(shards, rebuilt)
        del rebuilt, shard
    finally:
        for peer in peers:
            if peer is not None:
                peer.close()
        unlink_segments(segments)


def test_unlink_tolerates_missing_and_absent_segments():
    seg, _ = pack_array_block([np.ones(2)])
    unlink_segments([seg])
    unlink_segments([seg, None])
    with pytest.raises(FileNotFoundError):
        attach_array_block({"name": seg.name, "fields": []})
