"""Level quotients, stabilizer chains, orders, membership, closures."""

import itertools

import numpy as np

import pytest

from grig import catalog as C
from grig import elements as E
from grig import permgroup as P
from grig import pgroup as G
from grig.config import LevelLimitError, raised_level
from grig.permgroup import (DegreeMismatch, Permutation, PermGroup,
                            collapse_to_level, enumerate_elements,
                            image_at_level, level_quotient,
                            level_stabilizer_image, nest_at_vertex,
                            normal_closure, subgroup)

from conftest import assert_matches_schreier_build, bfs_elements, random_word


def test_letter_images_level1():
    a = image_at_level(E.Word("a"), 1)
    assert list(a.images) == [1, 0]
    for ch in "bcd":
        assert image_at_level(E.Word(ch), 1).is_identity()


def test_image_examples():
    assert image_at_level(E.IDENTITY, 5).is_identity()
    t8 = image_at_level(E.Word("abab"), 8)
    assert not t8.is_identity()


def test_level_guard():
    with pytest.raises(LevelLimitError):
        image_at_level(E.Word("a"), 99)
    with pytest.raises(LevelLimitError):
        level_quotient(0)


def test_functoriality(rng):
    for n in (2, 4, 6):
        for _ in range(34):
            g, h = random_word(rng, 18), random_word(rng, 18)
            lhs = image_at_level(E.mul(g, h), n)
            rhs = image_at_level(g, n) * image_at_level(h, n)
            assert lhs == rhs


def test_inverse_images(rng):
    for _ in range(50):
        g = random_word(rng, 18)
        assert image_at_level(E.invert(g), 5) == image_at_level(g, 5).inverse()


def test_small_orders_against_bfs():
    expected = {1: 2, 2: 8, 3: 128, 4: 4096}
    for n, order in expected.items():
        q = level_quotient(n)
        assert q.order == order
        assert len(enumerate_elements(q)) == order


def test_order_formula_middle_levels():
    for n in range(3, 7):
        assert level_quotient(n).order == 1 << (5 * (1 << (n - 3)) + 2)


def test_order_formula_level_11():
    with raised_level(11):
        assert level_quotient(11).order == 1 << (5 * (1 << 8) + 2)


def test_projection_consistency(rng):
    for n in (1, 3, 5):
        for _ in range(25):
            g = random_word(rng, 15)
            deep = image_at_level(g, n + 1)
            assert collapse_to_level(deep, n) == image_at_level(g, n)
        assert level_quotient(n + 1).order % level_quotient(n).order == 0


def test_membership_and_containment():
    q3 = level_quotient(3)
    assert q3.contains(image_at_level(E.Word("abab"), 3))
    assert q3.contains(Permutation.identity(8))
    k3 = normal_closure(q3, [image_at_level(E.Word("abab"), 3)])
    assert P.membership_and_containment(q3, k3)
    assert not P.membership_and_containment(k3, q3)


def test_normal_closure_examples():
    q3 = level_quotient(3)
    assert normal_closure(q3, [Permutation.identity(8)]).order == 1
    k3 = normal_closure(q3, [image_at_level(E.Word("abab"), 3)])
    assert k3.order == 8
    assert q3.order // k3.order == 16
    q1 = level_quotient(1)
    assert normal_closure(q1, [image_at_level(E.Word("b"), 1)]).order == 1
    # a bijection that is not a tree automorphism is rejected, not sifted
    with pytest.raises(ValueError):
        normal_closure(q3, [Permutation([0, 7, 2, 5, 4, 3, 6, 1])])


def test_normal_closure_is_normal(rng):
    q4 = level_quotient(4)
    k4 = normal_closure(q4, [image_at_level(E.Word("abab"), 4)])
    for g in q4.generators:
        gi = g.inverse()
        for s in k4.generators:
            assert k4.contains(gi * s * g)


def test_level_stabilizer_image():
    q4 = level_quotient(4)
    assert level_stabilizer_image(q4, 4).order == 1
    assert level_stabilizer_image(q4, 0) is q4
    st3 = level_stabilizer_image(q4, 3)
    assert q4.order // st3.order == level_quotient(3).order
    # each element really fixes every level-3 vertex
    for g in st3.generators:
        assert collapse_to_level(g, 3).is_identity()
    with pytest.raises(ValueError):
        level_stabilizer_image(q4, 5)


def test_stabilizer_orders_consistent_deeper():
    q6 = level_quotient(6)
    for k in range(1, 6):
        stk = level_stabilizer_image(q6, k)
        assert q6.order == stk.order * level_quotient(k).order


def test_orbit_transitivity():
    for n in range(1, 9):
        q = level_quotient(n)
        assert len(q.orbit(0)) == 1 << n
    assert subgroup(3, []).orbit(5) == {5}


def test_transversal_and_vertex_stabilizer():
    q = level_quotient(5)
    for k, vertex in [(5, 0), (3, 7), (0, 0)]:
        t = q.transversal(k, vertex)
        shift = 5 - k
        for x, tx in t.items():
            assert tx.apply(vertex << shift) >> shift == x
        stab = P.vertex_stabilizer(q, k, vertex)
        for g in stab.generators:
            assert g.apply(vertex << shift) >> shift == vertex
        assert q.order == stab.order * len(t)
    assert q.orbit(0) == set(q.transversal(5, 0))
    with pytest.raises(ValueError):
        q.orbit(32)
    with pytest.raises(ValueError):
        q.transversal(6, 0)


def test_contains_rejects_non_tree_permutation():
    # swapping leaves 0 and 3 breaks the sibling pairs {0, 1} and {2, 3};
    # sifting checks only the first leaf of each slot vertex and misses it
    images = list(range(32))
    images[0], images[3] = 3, 0
    with pytest.raises(ValueError):
        level_quotient(5).contains(Permutation(images))


def test_chain_pivots_have_2_power_order():
    q5 = level_quotient(5)
    for g in q5.strong_generators():
        k, p = 0, g
        while not p.is_identity():
            p = p * p
            k += 1
            assert k <= 22
    q5.chain.verify()


def test_chain_order_equals_bfs_for_subgroups(rng):
    q4 = level_quotient(4)
    for _ in range(10):
        picks = [image_at_level(random_word(rng, 12), 4) for _ in range(2)]
        h = subgroup(4, picks)
        assert h.order == len(bfs_elements([p.images for p in picks], 16))


def test_tree_structure_validation():
    with pytest.raises(ValueError):
        PermGroup(2, [Permutation([1, 2, 3, 0])])  # not block-structured
    with pytest.raises(ValueError):
        Permutation([0, 0, 1, 2])  # not a bijection
    with pytest.raises(DegreeMismatch):
        Permutation.identity(4) * Permutation.identity(8)
    # of all (2^n)! leaf permutations, exactly |Aut(T_n)| = 2^(2^n - 1)
    # pass as tree automorphisms
    for n in (1, 2, 3):
        accepted = 0
        for images in itertools.permutations(range(1 << n)):
            try:
                P.validate_tree_perm(np.array(images, dtype=np.int32), n)
                accepted += 1
            except ValueError:
                pass
        assert accepted == 1 << ((1 << n) - 1)


def test_nest_and_block_helpers():
    t2 = image_at_level(E.Word("abab"), 2)
    nested = nest_at_vertex(t2, "10", 4)
    direct = image_at_level(
        E.Pair(E.IDENTITY, E.Pair(E.Word("abab"), E.IDENTITY,
                                  _trusted=True), _trusted=True), 4)
    assert nested == direct
    a1 = image_at_level(E.Word("a"), 1)
    pair = P.block_pair(a1, Permutation.identity(2))
    assert list(pair.images) == [1, 0, 2, 3]


def test_nested_copies_group_matches_generated():
    base = subgroup(2, [image_at_level(E.Word(ch), 2) for ch in "ab"])
    prod = P.nested_copies_group(base, 1, 3)
    gens = [nest_at_vertex(g, v, 3)
            for v in ("0", "1") for g in base.generators]
    gen_group = subgroup(3, gens)
    assert prod.order == gen_group.order == base.order ** 2
    assert prod.contains_group(gen_group)
    prod.chain.verify()


def test_permutation_serialization():
    p = image_at_level(E.Word("ab"), 3)
    assert Permutation.from_line(p.to_line()) == p


def test_group_serialization_roundtrip():
    q3 = level_quotient(3)
    text = P.group_to_text(q3, include_chain=True)
    back = P.group_from_text(text)
    assert back.order == q3.order
    assert back.contains_group(q3) and q3.contains_group(back)
    assert P.group_to_text(q3, include_chain=True) == text


def test_enumeration_guard():
    with pytest.raises(RuntimeError):
        enumerate_elements(level_quotient(5), guard=1000)


def test_build_chain_and_order_alias():
    assert P.build_chain_and_order(level_quotient(2)) == 8


def test_containment_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        level_quotient(2).contains(Permutation.identity(8))
    with pytest.raises(DegreeMismatch):
        level_quotient(2).contains_group(level_quotient(3))


def test_chain_stress_against_bfs(rng):
    # random subgroups of middle quotients: chain order equals brute
    # enumeration, membership agrees on members and non-members
    from grig._kernel import compose
    for level in (5, 6):
        gens4 = [g.images for g in level_quotient(level).generators]
        for _ in range(6):
            picks = []
            for _ in range(2):
                w = np.arange(1 << level, dtype=np.int32)
                for _ in range(1 + rng.next_below(10)):
                    w = compose(w, gens4[rng.next_below(4)])
                picks.append(Permutation(w))
            h = subgroup(level, picks)
            try:
                elems = bfs_elements([p.images for p in picks],
                                     1 << level, guard=1 << 14)
            except AssertionError:
                continue
            assert h.order == len(elems)
            h.chain.verify()
            # every enumerated element sifts; a coset off-element does not
            for e in elems[:: max(1, len(elems) // 16)]:
                assert h.contains(Permutation(e))
            outside = Permutation(compose(elems[0], gens4[0]))
            assert h.contains(outside) == any(
                np.array_equal(outside.images, e) for e in elems)


class UnprunedChain(P.PivotChain):
    """Reference closure: queues the Schreier pair of every two pivots,
    including those with disjoint supports."""

    def _add_pivot(self, slot, perm):
        others = self.pivot_slots()
        self._install(slot, perm)
        self._queue.append((slot, slot))
        for r in others:
            self._queue.append((min(slot, r), max(slot, r)))


def _pruning_cases():
    """Fresh groups (no cached chain) whose chains the two closures build."""
    cases = [PermGroup(n, level_quotient(n).generators) for n in range(1, 10)]
    cases += [G.frattini_subgroup(C.subgroup_image("P", n, n + 3))
              for n in range(1, 5)]
    q4 = level_quotient(4)
    cases.append(normal_closure(PermGroup(4, q4.generators),
                                [image_at_level(E.Word("abab"), 4)]))
    return cases


def test_pruned_closure_matches_unpruned(monkeypatch):
    pruned = _pruning_cases()
    texts = [P.group_to_text(g, include_chain=True) for g in pruned]
    monkeypatch.setattr(P, "PivotChain", UnprunedChain)
    unpruned = _pruning_cases()
    assert all(type(g.chain) is UnprunedChain for g in unpruned)
    assert [P.group_to_text(g, include_chain=True)
            for g in unpruned] == texts
    for g in pruned + unpruned:
        g.chain.verify()


def test_insert_after_adopt():
    # a does not normalize st_1 of P_2, so inserting a must sift the
    # conjugates of the adopted pivots: a chain that lost their supports
    # would skip those pairs and stop at twice the order
    level = 6
    a = image_at_level(E.Word("a"), level)
    st1 = level_stabilizer_image(C.subgroup_image("P", 2, level), 1)
    fresh = PermGroup(level, st1.generators + [a])
    assert fresh.order > 2 * st1.order
    assert st1.chain.insert(a.images)
    assert st1.order == fresh.order
    st1.chain.verify()


def test_branch_built_quotients_match_schreier_built():
    for n in range(1, 10):
        q = level_quotient(n)
        # the adopted K_{n-1} x K_{n-1}, trivial below level 3
        assert bool(q.chain._normal) == (n >= 3)
        assert_matches_schreier_build(q)


def _canonical_cases():
    q6 = level_quotient(6)
    return [q6, C.k_image(6), level_stabilizer_image(q6, 2),
            C.subgroup_image("P", 3, 6), G.random_subgroup(q6, 2, 77)]


def test_canonical_pivots_are_the_reduced_coset_elements():
    # c_s lies in p_s U_{s+1} and maps every later pivot-slot vertex to a
    # left child
    from grig._kernel import compose
    for h in _canonical_cases():
        chain = h.chain
        slots = chain.pivot_slots()
        canon = chain.canonical_pivots()
        assert len(canon) == len(slots)
        for i, (s, c) in enumerate(zip(slots, canon)):
            rest = compose(chain._pinvs[chain.pivot_row[s]], c)
            assert chain.residue(rest, start=s + 1)[0] == chain.nslots
            later = np.array(slots[i + 1:], dtype=np.int64)
            images = c[chain.slot_leaf[later]] >> chain.slot_shift[later]
            assert not (images & 1).any()
        assert [g.images.tolist() for g in h.strong_generators()] == \
            [c.tolist() for c in canon]


def test_canonical_text_ignores_the_generating_set():
    # permuted or redundant generators give another chain but the same
    # base and canonical strong generators
    def chain_text(group):
        text = P.group_to_text(group, include_chain=True)
        return text[text.index("base "):]

    for h in _canonical_cases():
        gens = h.generators
        extra = gens[0] * gens[-1]
        variants = [gens[::-1], gens + [extra, gens[0]],
                    [extra] + gens[1:] + gens[:1]]
        texts = {chain_text(PermGroup(h.level, v)) for v in variants}
        assert texts == {chain_text(h)}


def test_non_normal_seed_raises_when_the_owed_pairs_are_sifted():
    # <b> is not normal in the level-2 quotient: adopted as normal, its
    # pairs with a are skipped, the chain stops at order 4 instead of 8,
    # and sifting the owed pair (a, b) drops a pivot
    a, b = (image_at_level(E.Word(ch), 2) for ch in "ab")
    h = subgroup(2, [b])
    seed = [(s, h.chain.pivot_perm(s)) for s in h.chain.pivot_slots()]
    chain = P.PivotChain(2)
    chain.adopt(seed, normal=True)
    chain.insert(a.images)
    assert chain.order == 4 < level_quotient(2).order
    for _ in range(2):  # no partial basis is returned on a second ask
        with pytest.raises(AssertionError, match="not normal"):
            chain.relations()
    # adopted without the marker, the pair is closed at once
    plain = P.PivotChain(2)
    plain.adopt(seed)
    plain.insert(a.images)
    assert plain.order == 8
    plain.relations()
    plain.verify()
