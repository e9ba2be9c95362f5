"""Benchmark the numpy permutation kernel.

Times the primitive operations (compose, inverse, chain sifting) and two
end-to-end workloads (building the level-8 quotient chain; certifying the
rank of the P_5 catalog subgroup).  The end-to-end runs import grig in a
subprocess so all module caches are fresh.

Usage: python benchmarks/bench_kernels.py
"""

import subprocess
import sys
import time
import timeit

import numpy as np

from grig import _kernel

END_TO_END = r"""
import time
import grig
from grig import permgroup, rigidity
t0 = time.time()
permgroup.level_quotient(8).order
t1 = time.time()
rigidity.rank_witness("P", 5)
t2 = time.time()
print(f"{grig.KERNEL_BACKEND} {t1 - t0:.4f} {t2 - t1:.4f}")
"""


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


def bench_strip(level=8, inserts=200):
    from grig.permgroup import PivotChain, level_quotient
    rng = np.random.default_rng(11)
    gens = [g.images for g in level_quotient(level).generators]
    chain = PivotChain(level)
    words = []
    for _ in range(inserts):
        w = np.arange(1 << level, dtype=np.int32)
        for _ in range(12):
            w = _kernel.compose(w, gens[rng.integers(len(gens))])
        words.append(w)
    t0 = time.time()
    for w in words:
        chain.insert(w)
    build = time.time() - t0
    t_member = timeit.timeit(
        lambda: chain.contains(words[50]), number=200) / 200
    return build, t_member


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.2f} us"
    return f"{seconds * 1e3:8.2f} ms"


def main():
    print(f"kernel backend: {_kernel.BACKEND}")
    for degree in (256, 2048):
        tc, ti = bench_primitives(_kernel, degree)
        print(f"  degree {degree:4d}  compose {fmt(tc)}   inverse {fmt(ti)}")

    print("chain insert + membership (level 8, 200 random elements):")
    build, member = bench_strip()
    print(f"  build {fmt(build)}   sift {fmt(member)}")

    print("end to end (fresh interpreter): level-8 quotient order, "
          "then rank witness for P5")
    out = subprocess.run([sys.executable, "-c", END_TO_END],
                         capture_output=True, text=True)
    if out.returncode:
        print(out.stderr, file=sys.stderr)
        return 1
    backend, t_orders, t_rank = out.stdout.split()
    print(f"  {backend:7s} quotient {float(t_orders):7.3f} s   "
          f"rank {float(t_rank):7.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
