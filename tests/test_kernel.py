"""The permutation kernel's contract: compose and inverse on seeded random
tree permutations, and strip on a real level-5 stabilizer chain."""

import numpy as np
import pytest

from grig import catalog, permgroup
from grig._kernel import BACKEND, compose, inverse, strip
from grig.pgroup import Lcg

from conftest import random_word

LEVELS = range(1, 11)


def random_tree_perm(level, rng, start=0):
    """Random automorphism of the depth-``level`` tree as a leaf array: bit
    i of the image is bit i of the leaf, flipped by a coin attached to the
    vertex that the leaf's first i bits name.  The coin of the vertex whose
    children form slot s is zero for s < ``start``, so the permutation fixes
    every slot vertex before ``start``."""
    leaves = np.arange(1 << level)
    out = np.zeros_like(leaves)
    for l in range(level):
        shift = level - l - 1
        flips = rng.integers(0, 2, size=1 << l)
        flips[:max(0, start - (1 << l) + 1)] = 0
        bit = ((leaves >> shift) & 1) ^ flips[leaves >> (shift + 1)]
        out |= bit << shift
    return out.astype(np.int32)


def chain_args(chain, pivot_row=None):
    """strip()'s chain arguments, with an optional replacement pivot table."""
    rows = chain.pivot_row if pivot_row is None else pivot_row
    return (chain.slot_leaf, chain.slot_shift, chain.slot_value, rows,
            chain._pinvs)


@pytest.fixture(scope="module")
def chain5():
    return permgroup.level_quotient(5).chain


def test_backend_name():
    assert BACKEND == "python"


@pytest.mark.parametrize("level", LEVELS)
def test_compose_acts_right_to_left(level):
    rng = np.random.default_rng(level)
    a = random_tree_perm(level, rng)
    b = random_tree_perm(level, rng)
    expected = [a[b[x]] for x in range(1 << level)]
    assert compose(a, b).tolist() == expected
    out = np.empty_like(a)
    assert compose(a, b, out) is out
    assert out.tolist() == expected


@pytest.mark.parametrize("level", LEVELS)
def test_inverse_composes_to_identity(level):
    rng = np.random.default_rng(100 + level)
    a = random_tree_perm(level, rng)
    ident = np.arange(1 << level, dtype=np.int32)
    ai = inverse(a)
    assert np.array_equal(compose(a, ai), ident)
    assert np.array_equal(compose(ai, a), ident)
    out = np.empty_like(a)
    assert inverse(a, out) is out
    assert np.array_equal(out, ai)


def test_strip_sifts_every_element_image(chain5):
    masks = chain5._masks
    rng = Lcg(5)
    images = [g.images for g in permgroup.level_quotient(5).generators]
    images += [permgroup.image_at_level(random_word(rng, 40), 5).images
               for _ in range(50)]
    ident = np.arange(32, dtype=np.int32)
    for images_of_g in images:
        g = images_of_g.copy()
        assert strip(g, *chain_args(chain5), 0, None, masks) == chain5.nslots
        assert np.array_equal(g, ident)


def test_strip_stops_at_the_first_empty_slot(chain5):
    masks = chain5._masks
    for s in chain5.pivot_slots():
        rows = chain5.pivot_row.copy()
        rows[s] = -1
        # the pivot at s fixes every earlier slot vertex and moves slot s
        g = chain5.pivot_perm(s).copy()
        assert strip(g, *chain_args(chain5, rows), 0, None, masks) == s


def test_strip_reports_an_empty_slot_outside_the_group(chain5):
    masks = chain5._masks
    rng = np.random.default_rng(55)
    outside = 0
    for _ in range(20):
        g = random_tree_perm(5, rng)
        s = strip(g, *chain_args(chain5), 0, None, masks)
        if s == chain5.nslots:
            continue
        outside += 1
        assert chain5.pivot_row[s] < 0
        # the residue fixes every slot vertex before s and moves slot s
        imgs = g[chain5.slot_leaf] >> chain5.slot_shift
        assert np.array_equal(imgs[:s], chain5.slot_value[:s])
        assert imgs[s] == chain5.slot_value[s] + 1
    assert outside > 0  # the level-5 quotient has index 2^9 in Aut


def test_strip_honours_start(chain5):
    masks = chain5._masks
    ident = np.arange(32, dtype=np.int32)
    for s in chain5.pivot_slots():
        # the pivot at s fixes the slot vertices before s, so it sifts from s
        # even with every earlier pivot removed
        rows = chain5.pivot_row.copy()
        rows[:s] = -1
        g = chain5.pivot_perm(s).copy()
        assert strip(g, *chain_args(chain5, rows), s, None, masks) == \
            chain5.nslots
        assert np.array_equal(g, ident)
    # swapping leaves 0 and 1 moves only the level-5 slot of vertex 00000
    t = permgroup.slot_index(5, 0)
    rows = chain5.pivot_row.copy()
    rows[t] = -1
    swap = ident.copy()
    swap[[0, 1]] = swap[[1, 0]]
    for start in (0, t):
        assert strip(swap.copy(), *chain_args(chain5, rows), start, None,
                     masks) == t
    g = swap.copy()
    assert strip(g, *chain_args(chain5, rows), t + 1, None, masks) == \
        chain5.nslots
    assert np.array_equal(g, swap)


def test_strip_rejects_non_block_structured(chain5):
    masks = chain5._masks
    # swap leaf 16 (first leaf of vertex 10) with leaf 1 (inside vertex 00):
    # the slots for vertices 0 and 00 stay fixed, and the slot for vertex 10
    # is sent to 00, which is not its sibling 11
    g = np.arange(32, dtype=np.int32)
    g[[1, 16]] = g[[16, 1]]
    with pytest.raises(ValueError, match="block-structured"):
        strip(g, *chain_args(chain5), 0, None, masks)


def test_strip_rejects_a_pivot_table_that_does_not_match(chain5):
    # slot t given the row of a later pivot u on the same level: that
    # pivot's mask leaves bit t set, which would stall the reduction
    masks = chain5._masks
    t, u = next((t, u) for t in chain5.pivot_slots()
                for u in chain5.pivot_slots()
                if t < u and chain5.slot_level[t] == chain5.slot_level[u])
    rows = chain5.pivot_row.copy()
    rows[t] = rows[u]
    g = chain5.pivot_perm(t).copy()
    with pytest.raises(ValueError, match="does not fix the slots"):
        strip(g, *chain_args(chain5, rows), 0, None, masks)


def test_strip_reports_the_rows_it_applied(chain5):
    masks = chain5._masks
    # a product of pivots in slot order sifts by exactly those pivots; with
    # a slot emptied, the sift stops there having applied the earlier ones
    rng = Lcg(17)
    slots = chain5.pivot_slots()
    for _ in range(30):
        picked = [s for s in slots if rng.next_below(2)]
        g = np.arange(32, dtype=np.int32)
        for s in reversed(picked):
            g = compose(chain5.pivot_perm(s), g)
        rows = [int(chain5.pivot_row[s]) for s in picked]
        applied = []
        assert strip(g.copy(), *chain_args(chain5), 0, applied, masks) == \
            strip(g.copy(), *chain_args(chain5), 0, None, masks) == \
            chain5.nslots
        assert applied == rows
        if picked:
            t = picked[rng.next_below(len(picked))]
            emptied = chain5.pivot_row.copy()
            emptied[t] = -1
            applied = []
            args = chain_args(chain5, emptied)
            drop = strip(g.copy(), *args, 0, applied, masks)
            assert drop == strip(g.copy(), *args, 0, None, masks)
            assert drop == t
            assert applied == [r for s, r in zip(picked, rows) if s < t]


def strip_by_slot(g, slot_leaf, slot_shift, slot_value, pivot_row, pinv,
                  start, applied):
    """Reference sift: divide out one pivot at a time, rescanning every
    remaining slot after each (the loop ``strip`` replaces)."""
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
        row = int(pivot_row[s])
        if row < 0:
            return s
        g[:] = pinv[row][g]
        applied.append(row)
        s += 1
    return nslots


def product_of_pivots(chain, slots, rng, count):
    """Product of ``count`` pivots drawn at random from ``slots``, in random
    order: an element of the group that fixes every slot before them."""
    g = np.arange(chain.degree, dtype=np.int32)
    for _ in range(count if slots else 0):
        g = compose(chain.pivot_perm(slots[rng.integers(len(slots))]), g)
    return g


def assert_sifts_match(chain, g, pivot_row, start):
    args = (chain.slot_leaf, chain.slot_shift, chain.slot_value, pivot_row,
            chain._pinvs, start)
    ref, ref_applied = g.copy(), []
    new, new_applied = g.copy(), []
    drop = strip_by_slot(ref, *args, ref_applied)
    assert strip(new, *args, new_applied, chain._masks) == drop
    assert new_applied == ref_applied
    assert np.array_equal(new, ref)
    return drop


@pytest.mark.parametrize("level", LEVELS)
def test_strip_matches_the_per_slot_sift(level):
    # random tree permutations (mostly outside the group) and products of
    # pivots (inside it), on the level quotient's chain with random slots
    # emptied, sifted from a random start that the input fixes everything
    # before
    chain = permgroup.level_quotient(level).chain
    slots = chain.pivot_slots()
    rng = np.random.default_rng(2000 + level)
    drops = through = 0
    for trial in range(60):
        rows = chain.pivot_row.copy()
        rows[rng.choice(slots, size=int(rng.integers(3)))] = -1
        start = int(rng.integers(chain.nslots + 1)) if trial % 2 else 0
        if trial % 3:
            g = random_tree_perm(level, rng, start)
        else:
            later = [s for s in slots if s >= start]
            g = product_of_pivots(chain, later, rng, 2 * level)
        if assert_sifts_match(chain, g, rows, start) < chain.nslots:
            drops += 1
        else:
            through += 1
    assert drops and through


@pytest.mark.parametrize("make", [
    lambda: permgroup.level_stabilizer_image(permgroup.level_quotient(8), 3),
    lambda: permgroup.nested_copies_group(catalog.k_image(4), 2, 6),
], ids=["level-stabilizer", "nested-copies"])
def test_adopted_chains_sift_their_pivots(make):
    # adopt installs pivots without closure; their level masks must still
    # let each pivot divide itself out
    chain = make().chain
    ident = np.arange(chain.degree, dtype=np.int32)
    slots = chain.pivot_slots()
    for s in slots:
        g = chain.pivot_perm(s).copy()
        applied = []
        assert strip(g, *chain_args(chain), 0, applied, chain._masks) == \
            chain.nslots
        assert applied == [int(chain.pivot_row[s])]
        assert np.array_equal(g, ident)
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = product_of_pivots(chain, slots, rng, 8)
        assert assert_sifts_match(chain, g, chain.pivot_row, 0) == \
            chain.nslots
