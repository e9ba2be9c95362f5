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


def strip(g, slot_leaf, slot_shift, slot_value, pivot_row, pinv, start,
          applied, masks):
    """Sift ``g`` (modified in place) through the chain from slot ``start``.

    Returns the first slot >= start at which ``g`` moves the slot vertex and
    no pivot is available, or len(slot_leaf) if ``g`` stripped through every
    slot (in which case g is the identity: fixing every left sibling fixes
    the whole tree, and ``g`` is overwritten with it).

    The sift runs one tree level at a time.  A scan from the current slot
    finds the first moved slot; call its level l.  Everything above it is
    fixed, so on level l both ``g`` and every level-l pivot are products of
    commuting sibling swaps, and dividing a pivot out XORs its level-l
    bitmask, ``masks[row]`` (bit i for the i-th slot of the level), into
    the moved bits of ``g``.  The moved bits of the level are packed into
    one int and reduced by lowest set bit: each set bit is either divided
    out by the pivot in its slot or is the slot where the sift drops.  This
    picks the same rows, in the same slot order, as dividing out one slot
    at a time.  Above the bottom level the chosen rows' inverses are then
    applied to ``g`` in that order, since deeper levels need the residue.
    On the bottom level nothing is applied unless the sift drops there.

    Callers must pass tree automorphisms that fix every slot vertex before
    ``start`` (as a Schreier candidate sifted from the slot after its first
    pivot does).  The only block check is on the first leaf of the first
    moved slot vertex of each level, which raises ValueError if that leaf
    lands outside the sibling vertex, so other permutations that break the
    block structure can sift without raising.  ValueError is also raised
    for a pivot whose mask has a bit before its own slot: the pivots must
    be the chain's, each fixing every slot before its own.

    If ``applied`` is a list, the pivot row of every pivot divided out is
    appended to it, in slot order: when ``g`` strips through, the original
    ``g`` is the product of those pivots, and otherwise it is their product
    times the residue left in ``g``.
    """
    nslots = len(slot_leaf)
    s = start
    while s < nslots:
        moved = g[slot_leaf[s:]] >> slot_shift[s:] != slot_value[s:]
        first = int(moved.argmax())
        if not moved[first]:
            return nslots
        t = s + first
        if g[slot_leaf[t]] >> slot_shift[t] != slot_value[t] + 1:
            raise ValueError("permutation is not block-structured")
        # slots are level-major: level l holds slots 2^(l-1) - 1 .. 2^l - 2
        lo = (1 << ((t + 1).bit_length() - 1)) - 1
        hi = 2 * lo + 1
        bits = int.from_bytes(
            np.packbits(moved[first:hi - s], bitorder="little").tobytes(),
            "little") << (t - lo)
        rows = []
        drop = None
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            row = int(pivot_row[lo + i])
            if row < 0:
                drop = lo + i
                break
            bits ^= masks[row]
            if bits & (2 * low - 1):  # the reduction would not end
                raise ValueError(f"pivot row {row} does not fix the slots "
                                 f"before slot {lo + i}")
            rows.append(row)
        if applied is not None:
            applied.extend(rows)
        if drop is None and hi == nslots:
            g[:] = np.arange(len(g), dtype=g.dtype)
            return nslots
        for row in rows:
            g[:] = pinv[row][g]
        if drop is not None:
            return drop
        s = hi
    return nslots
