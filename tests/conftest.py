"""Shared test helpers: deterministic random words and brute-force oracles.

Oracles here are deliberately independent of the library's computation
paths: the vertex action is re-derived from the per-letter recursion rules,
orders come from breadth-first enumeration, and Frattini subgroups are
rebuilt from ALL squares and commutators of an enumerated group.
"""

import numpy as np
import pytest

from grig._kernel import compose, inverse
from grig.elements import Word
from grig.permgroup import PermGroup, group_to_text
from grig.pgroup import Lcg, frattini_rank
from grig.rigidity import rank_gradient_table

# one recursion rule per letter: letter applied to first bit gives the image
# bit and the letter that continues on the rest (None = stop)
ACTION_RULES = {
    ("a", "0"): ("1", None), ("a", "1"): ("0", None),
    ("b", "0"): ("0", "a"), ("b", "1"): ("1", "c"),
    ("c", "0"): ("0", "a"), ("c", "1"): ("1", "d"),
    ("d", "0"): ("0", None), ("d", "1"): ("1", "b"),
}


def oracle_act_letter(ch, v):
    if not v:
        return v
    head, nxt = ACTION_RULES[(ch, v[0])]
    rest = v[1:]
    return head + (oracle_act_letter(nxt, rest) if nxt else rest)


def oracle_act_word(letters, v):
    """Rightmost letter first, iterating the recursion rules."""
    for ch in reversed(letters):
        v = oracle_act_letter(ch, v)
    return v


def random_letters(rng, max_len, min_len=1):
    length = min_len + rng.next_below(max_len - min_len + 1)
    return "".join("abcd"[rng.next_below(4)] for _ in range(length))


def random_word(rng, max_len, min_len=1):
    return Word(random_letters(rng, max_len, min_len))


def bfs_elements(gen_arrays, degree, guard=1 << 16):
    """All elements of the group generated by the arrays, by BFS."""
    ident = np.arange(degree, dtype=np.int32)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for a in gen_arrays:
                q = compose(p, a)
                key = q.tobytes()
                if key not in seen:
                    assert len(seen) < guard, "oracle enumeration too large"
                    seen[key] = q
                    nxt.append(q)
        frontier = nxt
    return list(seen.values())


def brute_frattini_rank(group):
    """log2 of the index of the subgroup generated by ALL squares and ALL
    commutators, computed by plain enumeration (Burnside basis oracle)."""
    elems = bfs_elements([g.images for g in group.generators], group.degree)
    seeds = {}
    for a in elems:
        s = compose(a, a)
        seeds[s.tobytes()] = s
    for i, a in enumerate(elems):
        ai = inverse(a)
        for b in elems[i + 1:]:
            s = compose(ai, compose(inverse(b), compose(a, b)))
            seeds[s.tobytes()] = s
    phi = bfs_elements(list(seeds.values()), group.degree)
    quotient = len(elems) // len(phi)
    return quotient.bit_length() - 1


def assert_matches_schreier_build(group):
    """A branch-built group against a fresh Schreier-built group from the
    same generators: the same pivot slots, canonical chain text and
    Frattini rank, and the branch-built chain passes ``verify``."""
    fresh = PermGroup(group.level, group.generators)
    assert group.chain.pivot_slots() == fresh.chain.pivot_slots()
    assert group_to_text(group, include_chain=True) == \
        group_to_text(fresh, include_chain=True)
    assert frattini_rank(group) == frattini_rank(fresh)
    group.chain.verify()


@pytest.fixture
def rng():
    return Lcg(20240817)


@pytest.fixture(scope="session")
def p_rows_8():
    """rank_gradient_table("P", 8), the slowest table the suite reads; built
    once per session and shared read-only."""
    return tuple(rank_gradient_table("P", 8))
