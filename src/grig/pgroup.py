"""Structure of the finite 2-groups arising as quotient images: Frattini
ranks, lower central series, the nilpotent rank bound, and the semidirect
rank identity.

Every group here is a PermGroup inside some tree-automorphism 2-group, so
orders are powers of two by construction and the Burnside basis theorem
applies: the minimal number of generators equals the F2-dimension of the
quotient by the Frattini subgroup.

That dimension is read off the group's own stabilizer chain, which is a
polycyclic presentation of H whose relations, abelianised mod 2, present
H / Phi(H); the argument is in the grig.permgroup docstring.  The
Frattini subgroup itself, the normal closure of the squares and
commutators of any generating set, is still built on request and serves
the tests as an independent check of the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from grig._kernel import compose, inverse
from grig.permgroup import Permutation, f2_reduce, normal_closure, subgroup


class ContainmentError(ValueError):
    pass


class NilpotencyCapError(RuntimeError):
    pass


LOWER_CENTRAL_CAP = 64


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
    the chain reduced to an echelon basis while it closed: H / Phi(H) is
    F2^npivots modulo their span, so d(H) = npivots - len(relations)."""
    chain = h.chain
    return chain.npivots - len(chain.relations())


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
    """Rank over F2 of a list of bitmask-encoded vectors."""
    basis = {}
    for v in vectors:
        f2_reduce(basis, v)
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
    dim(H / Phi(H)) - rank(1 + alpha) + 1, where alpha is the action of x on
    the Frattini quotient.  Both terms are read off H's own chain: the
    dimension is the Frattini rank, and since g = g^-1 modulo Phi(H),
    (1 + alpha) sends the class of g to the class of [g, x], the XOR of the
    pivot rows its sift divides out.  The rank of (1 + alpha) is what those
    classes add to the rank of the relations."""
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

    d = frattini_rank(h)
    relations = h.chain.relations()
    classes = []
    for g in h.generators:
        applied = []  # distinct rows: strip divides out each pivot once
        drop, _ = h.chain.residue((g.inverse() * xi * g * x).images,
                                  applied=applied)
        if drop != h.chain.nslots:
            raise AssertionError("[g, x] does not lie in H")
        classes.append(sum(1 << row for row in applied))
    r = gf2_rank(relations + classes) - len(relations)
    rhs = (d - r) + 1
    return SemidirectReport(d, r, lhs, rhs, lhs == rhs)
