"""The output checker catches each kind of corrupted sort result.

Run with ``python3 -m pytest perfbench/test_checker.py`` from the repository
root.  A correct result is built here by hand (a stable sort cut into equal
rank shares), then corrupted one way per test.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import check_sort  # noqa: E402

P = 4


def reference(data: np.ndarray, p: int = P, cuts=None) -> dict:
    """A correct sort output of ``data`` over ``p`` ranks.

    Rank ``r`` receives sorted positions ``cuts[r]:cuts[r + 1]``; equal
    shares by default.
    """
    n = len(data)
    offsets = np.array([n * r // p for r in range(p)], dtype=np.int64)
    order = np.argsort(data, kind="stable")
    if cuts is None:
        cuts = [n * r // p for r in range(p + 1)]
    procs = np.searchsorted(offsets, order, side="right") - 1
    parts, oproc, oindex = [], [], []
    counts = np.zeros((p, p), dtype=np.int64)
    for dst in range(p):
        sel = order[cuts[dst] : cuts[dst + 1]]
        src = procs[cuts[dst] : cuts[dst + 1]]
        parts.append(data[sel].copy())
        oproc.append(src.astype(np.int16))
        oindex.append((sel - offsets[src]).astype(np.int32))
        counts[:, dst] = np.bincount(src, minlength=p)
    return dict(
        data=data,
        input_offsets=offsets,
        partitions=parts,
        origin_proc=oproc,
        origin_index=oindex,
        counts_matrix=counts,
    )


def run(result: dict, **kwargs) -> list[str]:
    return check_sort(**result, **kwargs)


@pytest.fixture
def result() -> dict:
    rng = np.random.default_rng(7)
    return reference(rng.integers(0, 50, 4000, dtype=np.int64))


def test_correct_result_passes(result):
    assert run(result) == []


def test_empty_input_passes():
    assert run(reference(np.empty(0, dtype=np.int64))) == []


def test_lost_key_is_caught(result):
    result["partitions"][1] = result["partitions"][1][:-1]
    result["origin_proc"][1] = result["origin_proc"][1][:-1]
    result["origin_index"][1] = result["origin_index"][1][:-1]
    assert run(result)


def test_duplicated_key_in_place_of_another_is_caught(result):
    part = result["partitions"][2]
    part[-1] = part[0]
    assert any("np.sort" in e for e in run(result))


def test_swapped_keys_within_a_rank_are_caught(result):
    part = result["partitions"][0]
    part[0], part[-1] = part[-1], part[0]
    errors = run(result)
    assert any("np.sort" in e for e in errors)


def test_keys_swapped_across_ranks_are_caught(result):
    a, b = result["partitions"][0], result["partitions"][3]
    a[-1], b[0] = b[0], a[-1]
    errors = run(result)
    assert any("next rank" in e for e in errors)


def test_wrong_origin_is_caught(result):
    result["origin_index"][1][5] = (result["origin_index"][1][5] + 1) % 100
    errors = run(result)
    assert any("origin" in e for e in errors)


def test_origin_out_of_range_is_caught(result):
    result["origin_proc"][0][0] = P
    assert any("origin_proc" in e for e in run(result))


def test_unstable_tie_order_is_caught(result):
    part = result["partitions"][1]
    i = int(np.flatnonzero(part[1:] == part[:-1])[0])
    for col in ("origin_proc", "origin_index"):
        arr = result[col][1]
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    errors = run(result)
    assert errors == ["equal keys out of input order within a rank (unstable)"]


def test_ties_dealt_out_by_source_across_ranks_pass():
    # Two sources of one tied value, each split in halves over two ranks:
    # rank 0 holds the first half of each source, rank 1 the second.
    data = np.zeros(8, dtype=np.int64)
    result = dict(
        data=data,
        input_offsets=np.array([0, 4]),
        partitions=[data[:4].copy(), data[4:].copy()],
        origin_proc=[np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])],
        origin_index=[np.array([0, 1, 0, 1]), np.array([2, 3, 2, 3])],
        counts_matrix=np.array([[2, 2], [2, 2]]),
    )
    assert run(result, tie_shares=True) == []


def test_bad_counts_matrix_is_caught(result):
    result["counts_matrix"][0, 1] += 1
    result["counts_matrix"][0, 2] -= 1
    assert any("column sums" in e for e in run(result))
    result["counts_matrix"][0, 2] += 1
    assert any("row sums" in e for e in run(result))


def test_unequal_tie_shares_are_caught():
    data = np.repeat(np.array([0, 5, 9], dtype=np.int64), [10, 40, 10])
    assert run(reference(data, cuts=[0, 10, 30, 50, 60]), tie_shares=True) == []
    # Ranks 1 and 2 hold only the value 5, with 26 and 14 keys.
    errors = run(reference(data, cuts=[0, 10, 36, 50, 60]), tie_shares=True)
    assert errors == ["ranks holding only 5 differ by 12 keys (> 4 source ranks)"]
