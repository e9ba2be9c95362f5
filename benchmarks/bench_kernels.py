"""Timing helpers for the numpy permutation kernel.

``bench_primitives`` times compose and inverse on random tree permutations;
``perfbench/worker.py`` reports its figures as the ``kernel.compose_us`` and
``kernel.inverse_us`` metrics.  End-to-end timings (quotient builds, the
rank-gradient table) are measured by ``perfbench/run.py``.
"""

import timeit

import numpy as np


def random_tree_perm(level, rng):
    """Random automorphism of the depth-``level`` tree as a leaf array."""
    out = np.arange(1 << level, dtype=np.int32)
    for l in range(level):
        block = 1 << (level - l - 1)
        starts = np.arange(0, 1 << level, 2 * block)
        swap = rng.random(len(starts)) < 0.5
        for s in starts[swap]:
            seg = out[s:s + 2 * block].copy()
            out[s:s + block], out[s + block:s + 2 * block] = \
                seg[block:], seg[:block]
    return out


def bench_primitives(module, degree, repeats=2000):
    rng = np.random.default_rng(7)
    level = degree.bit_length() - 1
    a = random_tree_perm(level, rng)
    b = random_tree_perm(level, rng)
    out = np.empty_like(a)
    t_compose = timeit.timeit(lambda: module.compose(a, b, out),
                              number=repeats) / repeats
    t_inverse = timeit.timeit(lambda: module.inverse(a, out),
                              number=repeats) / repeats
    return t_compose, t_inverse
