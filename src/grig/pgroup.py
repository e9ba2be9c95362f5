"""Structure of the finite 2-groups arising as quotient images: Frattini
ranks, lower central series, the nilpotent rank bound, and the semidirect
rank identity.

Every group here is a PermGroup inside some tree-automorphism 2-group, so
orders are powers of two by construction and the Burnside basis theorem
applies: the minimal number of generators equals the F2-dimension of the
quotient by the Frattini subgroup.

That dimension is read off the group's own stabilizer chain.  A complete
chain is a polycyclic presentation: its pivots in slot order are a
polycyclic sequence with factors of order 2, and closure sifts every
power relation p_s^2 and conjugate relation p_s^-1 p_r p_s into a product
of later pivots.  The presented group has order at most 2^npivots = |H|,
so it is H, and abelianised mod 2 it presents H / Phi(H).  Closure records
each relation as a bitmask over the pivots, so d(H) = npivots - rank_F2
of those bitmasks, with no second chain.  The Frattini subgroup itself,
the normal closure of the squares and commutators of any generating set,
is still built where the subgroup is needed (the semidirect rank identity)
and serves the tests as an independent check of the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from grig._kernel import compose, inverse
from grig.permgroup import Permutation, normal_closure, subgroup


class NotA2Group(ValueError):
    pass


class ContainmentError(ValueError):
    pass


class NilpotencyCapError(RuntimeError):
    pass


LOWER_CENTRAL_CAP = 64


def _log2_exact(n):
    if n <= 0 or n & (n - 1):
        raise NotA2Group(f"order {n} is not a power of two")
    return n.bit_length() - 1


def frattini_subgroup(h):
    """Normal closure in h of the squares and pairwise commutators of its
    generators; for a finite 2-group this is the Frattini subgroup."""
    gens = [g.images for g in h.generators]
    seeds = []
    for a in gens:
        seeds.append(Permutation._wrap(compose(a, a)))
    invs = [inverse(a) for a in gens]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i < j:
                seeds.append(Permutation._wrap(
                    compose(invs[i], compose(invs[j], compose(a, b)))))
    return normal_closure(h, seeds)


def frattini_rank(h):
    """Minimal number of generators of a finite 2-group, as
    log2 [H : Phi(H)] (Burnside basis theorem), read off the pc relations
    the chain recorded while it closed: H / Phi(H) is F2^npivots modulo
    their span, so d(H) = npivots - rank_F2(relations)."""
    chain = h.chain
    relations = chain.relations()
    return chain.npivots - gf2_rank(relations)


@dataclass
class SeriesResult:
    terms: list
    nilpotency_class: int


def lower_central_series(h):
    """gamma_1 = H, gamma_{i+1} = normal closure in H of the commutators of
    H-generators with gamma_i-generators; stops at the trivial group."""
    terms = [h]
    current = h
    while not current.is_trivial():
        if len(terms) > LOWER_CENTRAL_CAP:
            raise NilpotencyCapError(
                f"lower central series did not terminate within "
                f"{LOWER_CENTRAL_CAP} terms")
        seeds = []
        for g in h.generators:
            gi = g.inverse()
            for s in current.generators:
                seeds.append(gi * s.inverse() * g * s)
        current = normal_closure(h, seeds)
        terms.append(current)
    return SeriesResult(terms, len(terms) - 1)


@dataclass
class RankBoundReport:
    d_ambient: int
    d_subgroup: int
    nilpotency_class: int
    bound: int
    holds: bool
    holds_strict: bool

    def to_json(self):
        return {
            "check": "nilpotent-rank-bound",
            "inputs": {"d_G": self.d_ambient, "class": self.nilpotency_class},
            "lhs": self.d_subgroup,
            "rhs": self.bound,
            "holds": self.holds,
            "holds_strict": self.holds_strict,
        }


def check_rank_bound(g, h):
    """Evaluate d(H) <= d(G)^c for H <= G nilpotent of class c.

    The bound is tested non-strictly: the strict form fails already for
    G = H cyclic (d = 1, c = 1), while the non-strict form is what the
    inductive d(G) + d(G)^2 + ... estimate actually gives.  Both verdicts
    are reported.
    """
    if not g.contains_group(h):
        raise ContainmentError("H is not contained in G")
    d_g = frattini_rank(g)
    d_h = frattini_rank(h)
    c = lower_central_series(g).nilpotency_class
    bound = d_g ** c
    return RankBoundReport(d_g, d_h, c, bound,
                           holds=d_h <= bound, holds_strict=d_h < bound)


class Lcg:
    """Fixed 64-bit linear congruential generator (constants from Knuth's
    MMIX) so that seeded transcripts are identical across platforms."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_below(self, n):
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return (self.state >> 33) % n


def random_subgroup(g, k, seed):
    """Subgroup generated by k pseudo-random words in g's generators;
    deterministic for a given seed."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = Lcg(seed)
    gens = [p.images for p in g.generators]
    if not gens:
        return subgroup(g.level, [])
    picks = []
    for _ in range(k):
        length = 1 + rng.next_below(16)
        word = np.arange(g.degree, dtype=np.int32)
        for _ in range(length):
            word = compose(word, gens[rng.next_below(len(gens))])
        picks.append(Permutation._wrap(word))
    return subgroup(g.level, picks)


def gf2_rank(vectors):
    """Rank over F2 of a list of bitmask-encoded vectors, by elimination on
    a basis keyed by leading bit."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return len(basis)


@dataclass
class SemidirectReport:
    dim_h: int
    rank_one_plus_alpha: int
    lhs: int
    rhs: int
    holds: bool

    def to_json(self):
        return {
            "check": "semidirect-rank-identity",
            "inputs": {"dim_H2": self.dim_h,
                       "rank_1_plus_alpha": self.rank_one_plus_alpha},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def semidirect_rank_identity(h, x):
    """Cross-check of the rank of H extended by an involution x against
    dim(H^(2) / (1 + alpha) H^(2)) + 1, where alpha is the action of x on
    the Frattini quotient H^(2)."""
    if x.degree != h.degree:
        raise ValueError("degree mismatch")
    if not (x * x).is_identity() or x.is_identity():
        raise ValueError("x must have order 2")
    if h.contains(x):
        raise ValueError("x lies in H; the extension is not split")
    xi = x.inverse()
    for g in h.generators:
        if not h.contains(xi * g * x):
            raise ValueError("x does not normalize H")

    extended = subgroup(h.level, list(h.generators) + [x])
    lhs = frattini_rank(extended)

    # Modulo Phi(H), g = g^-1, so (1 + alpha) sends the class of g to the
    # class of [g, x]; its image is spanned by those classes.
    phi = frattini_subgroup(h)
    d = _log2_exact(h.order // phi.order)
    span = phi.chain.copy()
    for g in h.generators:
        span.insert((g.inverse() * xi * g * x).images)
    r = _log2_exact(span.order // phi.order)
    rhs = (d - r) + 1
    return SemidirectReport(d, r, lhs, rhs, lhs == rhs)
