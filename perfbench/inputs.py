"""Seeded input generators for the benchmark.

Every input the benchmark sorts is made here from a ``numpy.random.Generator``
seeded by the command's ``--seed``, so a change to the program under test
cannot change what it is asked to sort.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import numpy as np

#: Uniform keys are drawn from [0, 2**UNIFORM_BITS).
UNIFORM_BITS = 40
#: Zipf exponent of the heavy-duplicate bulk keys.
ZIPF_EXPONENT = 1.3
#: Value range of the paper's Figure 4 shapes.
FIG4_RANGE = 100
#: Mass of the single tied value in the skewed Figure 4 shapes.
FIG4_PEAK_MASS = {"right-skewed": 0.795, "exponential": 0.895}


def rng_for(seed: int, job: int) -> np.random.Generator:
    """An independent generator for input ``job`` of the run seeded ``seed``."""
    return np.random.default_rng([seed, job])


def uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << UNIFORM_BITS, n, dtype=np.int64)


def zipf(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf-tailed int64 keys spread over the positive int64 range.

    ``floor(U ** (-1 / (s - 1)))`` with ``s = ZIPF_EXPONENT`` has
    ``P(K >= k) = k ** -(s - 1)``, the discrete Pareto form of Zipf's law,
    and costs two vectorized passes where ``Generator.zipf`` rejects in a
    loop (0.8 s for 4M keys).  ``U`` is drawn above the value that would
    overflow, which truncates the tail below ``2**62``.
    """
    tail = 1.0 / (ZIPF_EXPONENT - 1.0)
    u_min = 2.0 ** (-62.0 / tail)
    u = rng.uniform(u_min, 1.0, n)
    return np.floor(u ** -tail).astype(np.int64)


def fig4(rng: np.random.Generator, shape: str, n: int) -> np.ndarray:
    """The paper's Figure 4 shapes over ``FIG4_RANGE`` integer values.

    ``uniform`` and ``normal`` (mean mid-range, sd range/8) are plain; the
    skewed pair puts ``FIG4_PEAK_MASS`` of all keys on one value (the top
    value for ``right-skewed``, zero for ``exponential``) with an
    exponential tail of scale range/8 away from it.
    """
    top = FIG4_RANGE - 1
    if shape == "uniform":
        return rng.integers(0, FIG4_RANGE, n, dtype=np.int64)
    if shape == "normal":
        raw = rng.normal(FIG4_RANGE / 2.0, FIG4_RANGE / 8.0, n)
        return np.clip(np.rint(raw), 0, top).astype(np.int64)
    peak = FIG4_PEAK_MASS[shape]
    tail = rng.random(n) >= peak
    dist = 1 + np.floor(
        rng.exponential(FIG4_RANGE / 8.0, int(tail.sum()))
    ).astype(np.int64)
    if shape == "right-skewed":
        keys = np.full(n, top, dtype=np.int64)
        keys[tail] = np.clip(top - dist, 0, top)
    else:
        keys = np.zeros(n, dtype=np.int64)
        keys[tail] = np.clip(dist, 0, top)
    return keys


FIG4_SHAPES = ("uniform", "normal", "right-skewed", "exponential")

