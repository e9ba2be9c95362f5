"""Frattini ranks, lower central series, the nilpotent rank bound, and the
semidirect rank identity, each checked against brute-force oracles."""

import pytest

from grig import catalog as C
from grig import elements as E
from grig import pgroup as G
from grig.permgroup import (Permutation, image_at_level, level_quotient,
                            subgroup)

from conftest import bfs_elements, brute_frattini_rank, random_word


def swap_leaves(i, j, degree):
    images = list(range(degree))
    images[i], images[j] = j, i
    return Permutation(images)


def test_frattini_rank_klein_four():
    h = subgroup(2, [swap_leaves(0, 1, 4), swap_leaves(2, 3, 4)])
    assert h.order == 4
    assert G.frattini_rank(h) == 2


def test_frattini_rank_elementary_abelian_8():
    gens = [swap_leaves(0, 1, 8), swap_leaves(2, 3, 8), swap_leaves(4, 5, 8)]
    h = subgroup(3, gens)
    assert h.order == 8
    assert G.frattini_rank(h) == 3
    assert G.frattini_rank(subgroup(3, [])) == 0


def test_frattini_rank_K_image():
    assert G.frattini_rank(C.k_image(6)) == 3


def test_frattini_against_brute_oracle(rng):
    groups = [level_quotient(2), level_quotient(3),
              C.subgroup_image("R", 2, 4), C.subgroup_image("Q", 2, 4),
              C.k_image(4)]
    for _ in range(6):
        picks = [image_at_level(random_word(rng, 10), 4) for _ in range(3)]
        groups.append(subgroup(4, picks))
    for h in groups:
        if 1 < h.order <= 256:
            assert G.frattini_rank(h) == brute_frattini_rank(h)


def test_frattini_subgroup_is_normal():
    h = level_quotient(3)
    phi = G.frattini_subgroup(h)
    for g in h.generators:
        gi = g.inverse()
        for s in phi.generators:
            assert phi.contains(gi * s * g)


def test_burnside_pruning(rng):
    """Greedy removal from any generating set of the level-3 quotient stops
    at exactly its Frattini rank (Burnside basis theorem)."""
    q3 = level_quotient(3)
    target = q3.order
    d = G.frattini_rank(q3)
    done = 0
    while done < 50:
        k = 3 + rng.next_below(4)
        picks = [image_at_level(random_word(rng, 14), 3) for _ in range(k)]
        if subgroup(3, picks).order != target:
            continue
        done += 1
        gens = list(picks)
        i = 0
        while i < len(gens):
            rest = gens[:i] + gens[i + 1:]
            if rest and subgroup(3, rest).order == target:
                gens = rest
            else:
                i += 1
        assert len(gens) == d


def test_lower_central_series_examples():
    c2 = subgroup(1, [Permutation([1, 0])])
    assert G.lower_central_series(c2).nilpotency_class == 1
    assert G.lower_central_series(subgroup(2, [])).nilpotency_class == 0
    # the level-2 quotient has order 8 and acts as the dihedral group
    q2 = level_quotient(2)
    assert G.lower_central_series(q2).nilpotency_class == 2


def test_lower_central_series_against_brute():
    # gamma_2 by enumerating ALL commutators of the order-128 quotient
    q3 = level_quotient(3)
    series = G.lower_central_series(q3)
    elems = bfs_elements([g.images for g in q3.generators], 8)
    from grig._kernel import compose, inverse
    comms = {}
    for a in elems:
        ai = inverse(a)
        for b in elems:
            c = compose(ai, compose(inverse(b), compose(a, b)))
            comms[c.tobytes()] = c
    gamma2_order = len(bfs_elements(list(comms.values()), 8))
    assert series.terms[1].order == gamma2_order


def test_series_terms_normal_and_descending():
    q3 = level_quotient(3)
    series = G.lower_central_series(q3)
    assert series.terms[-1].order == 1
    for prev, cur in zip(series.terms, series.terms[1:]):
        assert prev.contains_group(cur)
        assert prev.order > cur.order or cur.order == 1
    for term in series.terms[1:]:
        for g in q3.generators:
            gi = g.inverse()
            for s in term.generators:
                assert term.contains(gi * s * g)


def test_check_rank_bound_cases(rng):
    q4 = level_quotient(4)
    trivial = subgroup(4, [])
    rep = G.check_rank_bound(q4, trivial)
    assert rep.holds and rep.d_subgroup == 0
    klein = subgroup(2, [swap_leaves(0, 1, 4), swap_leaves(2, 3, 4)])
    sub = subgroup(2, [swap_leaves(0, 1, 4)])
    rep = G.check_rank_bound(klein, sub)
    assert rep.nilpotency_class == 1 and rep.holds
    for _ in range(10):
        h = G.random_subgroup(q4, 3, rng.next_below(1 << 32))
        rep = G.check_rank_bound(q4, h)
        assert rep.holds
        assert rep.d_subgroup <= 3 or h.order == 1
    with pytest.raises(G.ContainmentError):
        G.check_rank_bound(klein, level_quotient(2))


def test_check_rank_bound_json_shape():
    q2 = level_quotient(2)
    payload = G.check_rank_bound(q2, subgroup(2, [])).to_json()
    assert set(payload) == {"check", "inputs", "lhs", "rhs", "holds",
                            "holds_strict"}


def test_random_subgroup_deterministic():
    q4 = level_quotient(4)
    h1 = G.random_subgroup(q4, 3, 42)
    h2 = G.random_subgroup(q4, 3, 42)
    assert h1.order == h2.order
    assert h1.contains_group(h2) and h2.contains_group(h1)
    assert G.frattini_rank(h1) <= 3
    h3 = G.random_subgroup(q4, 3, 43)
    assert [p.to_line() for p in h1.generators] == \
        [p.to_line() for p in h2.generators]
    assert h3.order != h1.order or \
        [p.to_line() for p in h3.generators] != \
        [p.to_line() for p in h1.generators]


def test_random_subgroup_order_two_element():
    q1 = level_quotient(1)
    h = G.random_subgroup(q1, 1, 7)
    assert h.order in (1, 2)


def test_gf2_rank():
    assert G.gf2_rank([]) == 0
    assert G.gf2_rank([0b101, 0b011, 0b110]) == 2
    assert G.gf2_rank([0b1, 0b10, 0b100]) == 3


def test_semidirect_dihedral_toy():
    # tree-compatible 4-cycle on 4 leaves plus a reflection: dihedral of
    # order 8, both sides 2
    r = Permutation([2, 3, 1, 0])
    x = Permutation([1, 0, 2, 3])
    h = subgroup(2, [r])
    assert h.order == 4
    rep = G.semidirect_rank_identity(h, x)
    assert rep.lhs == rep.rhs == 2 and rep.holds


def test_semidirect_centralizing_extension():
    # H elementary abelian, x commuting with H: alpha = identity, so
    # (1 + alpha) = 0 and the rank grows by one
    h = subgroup(3, [swap_leaves(0, 1, 8), swap_leaves(2, 3, 8)])
    x = swap_leaves(4, 5, 8)
    rep = G.semidirect_rank_identity(h, x)
    assert rep.rank_one_plus_alpha == 0
    assert rep.lhs == rep.rhs == 3


def test_semidirect_preconditions():
    h = subgroup(2, [swap_leaves(0, 1, 4)])
    with pytest.raises(ValueError):
        G.semidirect_rank_identity(h, swap_leaves(0, 1, 4))  # x in H
    with pytest.raises(ValueError):
        G.semidirect_rank_identity(h, Permutation([2, 3, 1, 0]))  # order 4
    # x = (01)(23)-swapper normalizes; the level-1 swap a does not... it does
    # here, so build a non-normalizing case on level 2: H = <(01)>, x = top
    q2 = level_quotient(2)
    a2 = image_at_level(E.Word("a"), 2)
    with pytest.raises(ValueError):
        G.semidirect_rank_identity(h, a2)  # a conjugates (01) to (23)


def test_semidirect_on_catalog_case():
    level = 6
    r2 = C.subgroup_image("R", 2, level)
    b = image_at_level(E.Word("b"), level)
    rep = G.semidirect_rank_identity(r2, b)
    assert rep.lhs == rep.rhs == 5
