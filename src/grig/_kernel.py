"""Permutation kernel: the numpy primitives behind every stabilizer chain.

Permutations are int32 arrays mapping leaf index -> leaf index,
compose(a, b)[x] = a[b[x]] (b acts first), and strip() sifts a permutation
through a sibling-pair stabilizer chain (see grig.permgroup for the chain
layout).
"""

import numpy as np

BACKEND = "python"

__all__ = ["BACKEND", "compose", "inverse", "strip"]


def compose(a, b, out=None):
    if out is None:
        return a[b]
    np.take(a, b, out=out)
    return out


def inverse(a, out=None):
    if out is None:
        out = np.empty_like(a)
    out[a] = np.arange(len(a), dtype=a.dtype)
    return out


def strip(g, slot_leaf, slot_shift, slot_value, pivot_row, pinv, start):
    """Sift ``g`` (modified in place) through the chain from slot ``start``.

    Returns the first slot >= start at which ``g`` moves the slot vertex and
    no pivot is available, or len(slot_leaf) if ``g`` stripped through every
    slot (in which case g is the identity: fixing every left sibling fixes
    the whole tree).  Callers must pass tree automorphisms: the only block
    check is on the first leaf of each moved slot vertex, which raises
    ValueError if that leaf lands outside the sibling vertex, so other
    permutations that break the block structure can sift without raising.
    """
    nslots = len(slot_leaf)
    s = start
    while s < nslots:
        imgs = g[slot_leaf[s:]] >> slot_shift[s:]
        moved = np.nonzero(imgs != slot_value[s:])[0]
        if len(moved) == 0:
            return nslots
        s += int(moved[0])
        if g[slot_leaf[s]] >> slot_shift[s] != slot_value[s] + 1:
            raise ValueError("permutation is not block-structured")
        row = pivot_row[s]
        if row < 0:
            return s
        g[:] = pinv[row][g]
        s += 1
    return nslots
