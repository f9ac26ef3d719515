"""Shared-memory shipping of ndarray blocks between processes.

One idiom, used by the wall-clock training engines (shards, streamed
ingest batches) and by the serving tier's process shards (packed code
slices): the owner copies arrays into one
``multiprocessing.shared_memory`` segment and hands the receiving
process a small picklable *descriptor*; the receiver maps the segment
and rebuilds the arrays as zero-copy views. The owner unlinks the
segment; receivers only ever close their mapping.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "pack_array_block",
    "attach_array_block",
    "pack_shards",
    "attach_shard",
    "unlink_segments",
]


def unlink_segments(segments) -> None:
    """Close and unlink shared-memory segments, tolerating absent ones."""
    for seg in segments:
        if seg is None:
            continue
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass


def pack_array_block(arrays) -> tuple:
    """Pack a flat list of arrays into one shared-memory segment.

    Returns ``(segment, descriptor)`` where the descriptor rebuilds the
    arrays as zero-copy views in the receiving process
    (:func:`attach_array_block`).
    """
    arrays = [np.ascontiguousarray(a) for a in arrays]
    total = sum(a.nbytes for a in arrays)
    seg = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        fields = []
        offset = 0
        for a in arrays:
            view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf, offset=offset)
            view[...] = a
            fields.append((a.dtype.str, a.shape, offset))
            offset += a.nbytes
    except Exception:
        # The segment exists in /dev/shm the moment create=True returns;
        # a failed copy-in must unlink it or it outlives the process.
        seg.close()
        seg.unlink()
        raise
    return seg, {"name": seg.name, "fields": fields}


def attach_array_block(desc):
    """Rebuild the arrays of one :func:`pack_array_block` descriptor."""
    seg = shared_memory.SharedMemory(name=desc["name"])
    arrays = [
        np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=offset)
        for dtype, shape, offset in desc["fields"]
    ]
    return seg, arrays


def pack_shards(shards) -> tuple[list, list]:
    """Copy each shard's arrays into one shared-memory segment.

    Returns ``(segments, descriptors)``; descriptor i tells worker i how
    to rebuild its shard as zero-copy views over the segment. Non-array
    dataclass fields travel by value; non-dataclass shards fall back to
    pickling whole. If packing fails partway, every segment already
    created is unlinked before the error propagates — a half-packed fit
    must not leave residue in /dev/shm.
    """
    segments, descs = [], []
    try:
        for shard in shards:
            if not dataclasses.is_dataclass(shard):
                segments.append(None)
                descs.append({"pickle": shard})
                continue
            slots: list[tuple[str, int | None]] = []
            arrays: list[np.ndarray] = []
            values: dict = {}
            for f in dataclasses.fields(shard):
                v = getattr(shard, f.name)
                if isinstance(v, np.ndarray):
                    slots.append((f.name, None))
                    arrays.append(v)
                elif (
                    isinstance(v, (list, tuple))
                    and len(v)
                    and all(isinstance(a, np.ndarray) for a in v)
                ):
                    slots.extend((f.name, i) for i in range(len(v)))
                    arrays.extend(v)
                else:
                    values[f.name] = v
            seg, desc = pack_array_block(arrays)
            segments.append(seg)
            descs.append({**desc, "cls": type(shard), "slots": slots, "values": values})
    except Exception:
        unlink_segments(segments)
        raise
    return segments, descs


def attach_shard(desc):
    """Rebuild a shard in a worker from its :func:`pack_shards` descriptor."""
    if "pickle" in desc:
        return None, desc["pickle"]
    seg, arrays = attach_array_block(desc)
    kwargs = dict(desc["values"])
    for (name, idx), arr in zip(desc["slots"], arrays):
        if idx is None:
            kwargs[name] = arr
        else:
            # Slots were emitted in list order, so appending rebuilds it.
            kwargs.setdefault(name, []).append(arr)
    return seg, desc["cls"](**kwargs)
