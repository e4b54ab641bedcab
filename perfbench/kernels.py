"""Kernel and memory rooflines, timed on one block of a workload's input.

Each kernel is timed as the median of ``REPEATS`` calls.  ``np.sort`` of the
block is the roofline for step 1 (local sort); the packed and stable-argsort
paths are the two ways step 1 can run; the flat k-way merge is step 6.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.balanced_merge import flat_kway_merge
from repro.core.packsort import packed_stable_sort

REPEATS = 5
#: The memcpy array is at least this many times the last-level cache.
LLC_MULTIPLE = 4


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_seconds(fn) -> float:
    return statistics.median(_seconds(fn) for _ in range(REPEATS))


def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache sysfs reports for cpu0 (0 if unknown)."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes, default=0)


def memcpy_gbps(nbytes: int) -> float:
    """Copy bandwidth of one ``nbytes`` array into another, GB/s of copied data.

    Best of three, so that first-touch page faults on the destination do not
    count.
    """
    src = np.ones(nbytes // 8, dtype=np.int64)
    dst = np.empty_like(src)
    best = min(_seconds(lambda: np.copyto(dst, src)) for _ in range(3))
    return src.nbytes / best / 1e9


def block_kernels(block: np.ndarray, p: int) -> dict[str, float]:
    """Milliseconds of each step kernel on ``block``.

    The merge input is ``block`` cut into ``p`` runs that are each sorted,
    with an origin-index and an origin-rank column riding along, which is
    the region shape step 6 merges.
    """
    def argsort_path():
        order = block.argsort(kind="stable")
        return block[order], order

    lengths = [len(block) * (r + 1) // p - len(block) * r // p for r in range(p)]
    bounds = np.cumsum([0, *lengths])
    runs = np.concatenate(
        [np.sort(block[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    )
    index = np.arange(len(block), dtype=np.int32)
    procs = np.repeat(np.arange(p, dtype=np.int16), lengths)
    return {
        "npsort": 1e3 * _median_seconds(lambda: np.sort(block)),
        "packsort": 1e3 * _median_seconds(lambda: packed_stable_sort(block)),
        "packsort_eligible": float(packed_stable_sort(block) is not None),
        "argsort": 1e3 * _median_seconds(argsort_path),
        "merge": 1e3
        * _median_seconds(lambda: flat_kway_merge(runs, lengths, [index, procs])),
    }
