"""The permutation kernel's contract: compose and inverse on seeded random
tree permutations, and strip on a real level-5 stabilizer chain."""

import numpy as np
import pytest

from grig import permgroup
from grig._kernel import BACKEND, compose, inverse, strip
from grig.pgroup import Lcg

from conftest import random_word

LEVELS = range(1, 11)


def random_tree_perm(level, rng):
    """Random automorphism of the depth-``level`` tree as a leaf array: bit
    i of the image is bit i of the leaf, flipped by a coin attached to the
    vertex that the leaf's first i bits name."""
    leaves = np.arange(1 << level)
    out = np.zeros_like(leaves)
    for l in range(level):
        shift = level - l - 1
        flips = rng.integers(0, 2, size=1 << l)
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
    rng = Lcg(5)
    images = [g.images for g in permgroup.level_quotient(5).generators]
    images += [permgroup.image_at_level(random_word(rng, 40), 5).images
               for _ in range(50)]
    ident = np.arange(32, dtype=np.int32)
    for images_of_g in images:
        g = images_of_g.copy()
        assert strip(g, *chain_args(chain5), 0) == chain5.nslots
        assert np.array_equal(g, ident)


def test_strip_stops_at_the_first_empty_slot(chain5):
    for s in chain5.pivot_slots():
        rows = chain5.pivot_row.copy()
        rows[s] = -1
        # the pivot at s fixes every earlier slot vertex and moves slot s
        g = chain5.pivot_perm(s).copy()
        assert strip(g, *chain_args(chain5, rows), 0) == s


def test_strip_reports_an_empty_slot_outside_the_group(chain5):
    rng = np.random.default_rng(55)
    outside = 0
    for _ in range(20):
        g = random_tree_perm(5, rng)
        s = strip(g, *chain_args(chain5), 0)
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
    ident = np.arange(32, dtype=np.int32)
    for s in chain5.pivot_slots():
        # the pivot at s fixes the slot vertices before s, so it sifts from s
        # even with every earlier pivot removed
        rows = chain5.pivot_row.copy()
        rows[:s] = -1
        g = chain5.pivot_perm(s).copy()
        assert strip(g, *chain_args(chain5, rows), s) == chain5.nslots
        assert np.array_equal(g, ident)
    # swapping leaves 0 and 1 moves only the level-5 slot of vertex 00000
    t = permgroup.slot_index(5, 0)
    rows = chain5.pivot_row.copy()
    rows[t] = -1
    swap = ident.copy()
    swap[[0, 1]] = swap[[1, 0]]
    for start in (0, t):
        assert strip(swap.copy(), *chain_args(chain5, rows), start) == t
    g = swap.copy()
    assert strip(g, *chain_args(chain5, rows), t + 1) == chain5.nslots
    assert np.array_equal(g, swap)


def test_strip_rejects_non_block_structured(chain5):
    # swap leaf 16 (first leaf of vertex 10) with leaf 1 (inside vertex 00):
    # the slots for vertices 0 and 00 stay fixed, and the slot for vertex 10
    # is sent to 00, which is not its sibling 11
    g = np.arange(32, dtype=np.int32)
    g[[1, 16]] = g[[16, 1]]
    with pytest.raises(ValueError, match="block-structured"):
        strip(g, *chain_args(chain5), 0)


def test_strip_reports_the_rows_it_applied(chain5):
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
        assert strip(g.copy(), *chain_args(chain5), 0, applied) == \
            strip(g.copy(), *chain_args(chain5), 0) == chain5.nslots
        assert applied == rows
        if picked:
            t = picked[rng.next_below(len(picked))]
            emptied = chain5.pivot_row.copy()
            emptied[t] = -1
            applied = []
            drop = strip(g.copy(), *chain_args(chain5, emptied), 0, applied)
            assert drop == strip(g.copy(), *chain_args(chain5, emptied), 0)
            assert drop == t
            assert applied == [r for s, r in zip(picked, rows) if s < t]
