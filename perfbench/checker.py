"""Output checker for one distributed sort, independent of the program.

It reads only numpy arrays: the driver-side input, where each rank's input
block starts in it, and what the sort returned (each rank's keys and the
``(origin_proc, origin_index)`` of every key, plus the counts matrix).  It
imports nothing from ``repro``, so a fault in the program cannot also hide
in the check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_sort(
    data: np.ndarray,
    input_offsets: Sequence[int],
    partitions: Sequence[np.ndarray],
    origin_proc: Sequence[np.ndarray],
    origin_index: Sequence[np.ndarray],
    counts_matrix: np.ndarray,
    *,
    tie_shares: bool = False,
) -> list[str]:
    """Return every violated property of one sort's output (empty = correct).

    Checks that the concatenated partitions equal ``np.sort(data)``; that
    the origins map back to equal input keys and cover every input position
    exactly once; that equal keys on one rank keep increasing input
    positions (stability); that each rank's last key is at most the next non-empty
    rank's first; and that the counts matrix's row sums are the input block
    sizes and its column sums the partition sizes.  With ``tie_shares``,
    ranks that hold only one value shared with another such rank must hold
    equal shares to within one key per source rank (the paper's Figure 3c).
    """
    errors: list[str] = []
    n = len(data)
    p = len(partitions)
    offsets = np.asarray(input_offsets, dtype=np.int64)
    if len(offsets) != p:
        return [f"{len(offsets)} input offsets for {p} partitions"]
    keys = np.concatenate(partitions) if p else data[:0]
    if len(keys) != n:
        return [f"{len(keys)} keys returned for {n} input keys"]
    if not np.array_equal(keys, np.sort(data)):
        errors.append("concatenated partitions differ from np.sort(input)")

    procs = np.concatenate(origin_proc).astype(np.int64)
    index = np.concatenate(origin_index).astype(np.int64)
    if len(procs) != n or len(index) != n:
        return errors + ["provenance length differs from the key count"]
    if n and (procs.min() < 0 or procs.max() >= p):
        return errors + ["origin_proc outside [0, p)"]
    block_sizes = np.diff(np.append(offsets, n))
    if n and (index.min() < 0 or np.any(index >= block_sizes[procs])):
        return errors + ["origin_index outside its origin block"]
    position = offsets[procs] + index
    if not np.array_equal(data[position], keys):
        errors.append("an origin maps to an input key of another value")
    seen = np.zeros(n, dtype=bool)
    seen[position] = True
    if not seen.all():
        errors.append("origins do not cover every input position exactly once")
    # Stability holds within a rank.  Across ranks it does not: the
    # investigator deals each source's run of a tied value out over several
    # ranks in equal pieces (Figure 3c), so rank k holds every source's k-th
    # piece and the global order of ties is by rank, then by source.
    ties = keys[1:] == keys[:-1]
    starts = np.cumsum([len(part) for part in partitions])[:-1]
    ties[starts[(starts > 0) & (starts < n)] - 1] = False
    if np.any(ties & (position[1:] <= position[:-1])):
        errors.append("equal keys out of input order within a rank (unstable)")

    firsts = [part[0] for part in partitions if len(part)]
    lasts = [part[-1] for part in partitions if len(part)]
    if any(last > first for last, first in zip(lasts, firsts[1:])):
        errors.append("a rank's last key exceeds the next rank's first")

    counts = np.asarray(counts_matrix, dtype=np.int64)
    sizes = np.array([len(part) for part in partitions], dtype=np.int64)
    if counts.shape != (p, p):
        errors.append(f"counts matrix shape {counts.shape} is not ({p}, {p})")
    else:
        if not np.array_equal(counts.sum(axis=1), block_sizes):
            errors.append("counts matrix row sums differ from block sizes")
        if not np.array_equal(counts.sum(axis=0), sizes):
            errors.append("counts matrix column sums differ from partition sizes")

    if tie_shares:
        errors.extend(_check_tie_shares(partitions))
    return errors


def _check_tie_shares(partitions: Sequence[np.ndarray]) -> list[str]:
    p = len(partitions)
    by_value: dict = {}
    for part in partitions:
        if len(part) and part[0] == part[-1]:
            by_value.setdefault(part[0].item(), []).append(len(part))
    errors = []
    for value, sizes in sorted(by_value.items()):
        if len(sizes) > 1 and max(sizes) - min(sizes) > p:
            errors.append(
                f"ranks holding only {value!r} differ by "
                f"{max(sizes) - min(sizes)} keys (> {p} source ranks)"
            )
    return errors
