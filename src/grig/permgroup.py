"""Finite permutation quotients of the tree group: images at a level,
stabilizer chains, orders, membership, normal closures, and level-stabilizer
images.

A level-n quotient acts on the 2^n level-n vertices; the leaf index of a
vertex string is its value as a binary number, first tree letter = most
significant bit.  Every group handled here is a subgroup of the full
automorphism group of the depth-n tree (the iterated wreath product, a
2-group), which the element images always are; raw permutations are checked
for block structure on entry.

Stabilizer chains use a base tailored to the tree: the candidate base points
are the left children of every vertex, enumerated level by level.  Once all
earlier base vertices are fixed, a group element can move a left child only
to its sibling, so every basic orbit has size 1 or 2 and the chain is just
one optional "pivot" element per slot.  The group order is then 2^(number of
pivots), membership is sifting through the pivots, and the pointwise
stabilizer of levels <= k (the image of the level-k stabilizer) is literally
the suffix of the chain below level k -- which is why the base is ordered
this way.  Completeness is maintained by processing the Schreier conditions
of each new pivot (its square and its conjugates with the other pivots),
which is all that remains of the Schreier-Sims algorithm on orbits of
size two.
"""

from __future__ import annotations

import threading

import numpy as np

from grig import elements
from grig._kernel import compose, inverse, strip
from grig.config import require_level

_DTYPE = np.int32


class DegreeMismatch(ValueError):
    pass


def _as_perm_array(images):
    a = np.ascontiguousarray(images, dtype=_DTYPE)
    if a.ndim != 1:
        raise ValueError("permutation images must be one-dimensional")
    return a


def _check_bijection(a):
    seen = np.zeros(len(a), dtype=bool)
    seen[a] = True
    if not seen.all():
        raise ValueError("images are not a bijection")


def validate_tree_perm(a, level):
    """Check that a leaf permutation maps sibling blocks to sibling blocks at
    every level, i.e. comes from an automorphism of the depth-``level`` tree:
    blocks are intervals, so it suffices that a[i] ^ a[i + 1] <= i ^ (i + 1)
    (adjacent leaves stay at least as close in the tree)."""
    if len(a) != 1 << level:
        raise DegreeMismatch(f"expected degree {1 << level}, got {len(a)}")
    _check_bijection(a)
    i = np.arange(len(a) - 1)
    bad = np.nonzero((a[:-1] ^ a[1:]) > (i ^ (i + 1)))[0]
    if len(bad):
        i = int(bad[0])
        l = level - (i ^ (i + 1)).bit_length()
        raise ValueError(f"not block-structured at level {l}")


class Permutation:
    """Permutation of the 2^n level-n vertices, stored as an image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        a = np.array(images, dtype=_DTYPE)  # private copy
        if a.ndim != 1:
            raise ValueError("permutation images must be one-dimensional")
        _check_bijection(a)
        a.setflags(write=False)
        self.images = a

    @classmethod
    def _wrap(cls, a):
        p = object.__new__(cls)
        a.setflags(write=False)
        p.images = a
        return p

    @classmethod
    def identity(cls, degree):
        return cls._wrap(np.arange(degree, dtype=_DTYPE))

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        """self * other acts as ``other`` first (matches word order)."""
        if self.degree != other.degree:
            raise DegreeMismatch("cannot compose permutations of unequal degree")
        return Permutation._wrap(compose(self.images, other.images))

    def inverse(self):
        return Permutation._wrap(inverse(self.images))

    def conjugate(self, other):
        """self ^ other = other^-1 * self * other."""
        return other.inverse() * self * other

    def apply(self, point):
        return int(self.images[point])

    def is_identity(self):
        return bool((self.images == np.arange(self.degree, dtype=_DTYPE)).all())

    def __eq__(self, other):
        return (isinstance(other, Permutation)
                and np.array_equal(self.images, other.images))

    def __hash__(self):
        return hash(self.images.tobytes())

    def to_line(self):
        return " ".join(map(str, self.images))

    @classmethod
    def from_line(cls, line):
        return cls([int(tok) for tok in line.split()])

    def __repr__(self):
        return f"<Permutation deg={self.degree} {self.to_line()}>"


# --- slot tables -------------------------------------------------------------

_SLOT_CACHE = {}


def _slot_tables(level):
    """(leaf, shift, value, vlevel) arrays for the left-child slots of the
    depth-``level`` tree, in level-major order."""
    tables = _SLOT_CACHE.get(level)
    if tables is None:
        leafs, shifts, values, vlevels = [], [], [], []
        for l in range(1, level + 1):
            shift = level - l
            for v in range(0, 1 << l, 2):
                leafs.append(v << shift)
                shifts.append(shift)
                values.append(v)
                vlevels.append(l)
        tables = (np.array(leafs, dtype=_DTYPE),
                  np.array(shifts, dtype=_DTYPE),
                  np.array(values, dtype=_DTYPE),
                  np.array(vlevels, dtype=_DTYPE))
        _SLOT_CACHE[level] = tables
    return tables


def slot_index(vlevel, value):
    """Chain slot of the left-child vertex (vlevel, value); independent of
    the tree depth because slots are enumerated level-major."""
    return (1 << (vlevel - 1)) - 1 + (value >> 1)


class PivotChain:
    """Sibling-pair stabilizer chain; see the module docstring."""

    __slots__ = ("level", "degree", "nslots", "slot_leaf", "slot_shift",
                 "slot_value", "slot_level", "pivot_row", "npivots",
                 "_pivots", "_pinvs", "_queue")

    def __init__(self, level):
        self.level = level
        self.degree = 1 << level
        self.slot_leaf, self.slot_shift, self.slot_value, self.slot_level = \
            _slot_tables(level)
        self.nslots = len(self.slot_leaf)
        self.pivot_row = np.full(self.nslots, -1, dtype=_DTYPE)
        self.npivots = 0
        cap = 16
        self._pivots = np.empty((cap, self.degree), dtype=_DTYPE)
        self._pinvs = np.empty((cap, self.degree), dtype=_DTYPE)
        self._queue = []

    @property
    def order(self):
        return 1 << self.npivots

    def copy(self):
        other = PivotChain(self.level)
        other.pivot_row = self.pivot_row.copy()
        other.npivots = self.npivots
        other._pivots = self._pivots.copy()
        other._pinvs = self._pinvs.copy()
        return other

    def pivot_slots(self):
        return [int(s) for s in np.nonzero(self.pivot_row >= 0)[0]]

    def pivot_perm(self, slot):
        return self._pivots[self.pivot_row[slot]]

    def _strip_inplace(self, g, start=0):
        return strip(g, self.slot_leaf, self.slot_shift, self.slot_value,
                     self.pivot_row, self._pinvs, start)

    def residue(self, images, start=0):
        """(drop_slot, residue) after sifting a copy of ``images``."""
        g = np.array(images, dtype=_DTYPE)
        drop = self._strip_inplace(g, start)
        return drop, g

    def contains(self, images):
        drop, _ = self.residue(images)
        return drop == self.nslots

    def _grow(self):
        cap = 2 * len(self._pivots)
        for name in ("_pivots", "_pinvs"):
            new = np.empty((cap, self.degree), dtype=_DTYPE)
            new[:self.npivots] = getattr(self, name)[:self.npivots]
            setattr(self, name, new)

    def _install(self, slot, perm):
        if self.npivots == len(self._pivots):
            self._grow()
        row = self.npivots
        self._pivots[row] = perm
        inverse(perm, out=self._pinvs[row])
        self.pivot_row[slot] = row
        self.npivots += 1

    def _add_pivot(self, slot, perm):
        # Schreier conditions of the new pivot: its square, and its
        # conjugates with every other pivot (the deeper one conjugated by
        # the shallower).  Each unordered pair is queued exactly once, by
        # whichever pivot is created later.
        others = self.pivot_slots()
        self._install(slot, perm)
        self._queue.append((slot, slot))
        for r in others:
            self._queue.append((min(slot, r), max(slot, r)))

    def _drain(self):
        scratch = np.empty(self.degree, dtype=_DTYPE)
        while self._queue:
            s, r = self._queue.pop()
            p = self._pivots[self.pivot_row[s]]
            if s == r:
                g = compose(p, p)
            else:
                q = self._pivots[self.pivot_row[r]]
                compose(q, p, out=scratch)
                g = compose(self._pinvs[self.pivot_row[s]], scratch)
            drop = self._strip_inplace(g, s + 1)
            if drop < self.nslots:
                self._add_pivot(drop, g)

    def insert(self, images):
        """Extend the chain so that ``images`` sifts; True if it was new.

        The chain is kept Schreier-complete after every insertion, so order
        and membership queries are always exact.
        """
        drop, g = self.residue(images)
        if drop == self.nslots:
            return False
        self._add_pivot(drop, g)
        self._drain()
        return True

    def adopt(self, slot_perm_pairs):
        """Install an already-complete pivot family (e.g. a chain suffix or a
        disjoint union of nested chains) without reprocessing closure."""
        for slot, perm in sorted(slot_perm_pairs, key=lambda sp: sp[0]):
            if self.pivot_row[slot] >= 0:
                raise ValueError(f"slot {slot} already occupied")
            self._install(slot, np.array(perm, dtype=_DTYPE))

    def verify(self):
        """Recheck every Schreier condition; raises if the chain is broken."""
        slots = self.pivot_slots()
        for i, s in enumerate(slots):
            p = self._pivots[self.pivot_row[s]]
            checks = [compose(p, p)]
            for r in slots[i + 1:]:
                q = self._pivots[self.pivot_row[r]]
                checks.append(
                    compose(self._pinvs[self.pivot_row[s]], compose(q, p)))
            for g in checks:
                if self._strip_inplace(g.copy(), s + 1) != self.nslots:
                    raise AssertionError(f"Schreier condition fails at slot {s}")


class PermGroup:
    """Subgroup of the depth-``level`` tree automorphism group, given by
    generators; the stabilizer chain is built lazily on first use."""

    def __init__(self, level, generators, _chain=None):
        self.level = level
        self.degree = 1 << level
        gens = []
        for g in generators:
            a = g.images if isinstance(g, Permutation) else _as_perm_array(g)
            if _chain is None:
                validate_tree_perm(a, level)
            if (a != np.arange(self.degree, dtype=_DTYPE)).any():
                gens.append(Permutation._wrap(np.array(a, dtype=_DTYPE)))
        self.generators = gens
        self._chain = _chain
        self._lock = threading.Lock()

    @property
    def chain(self):
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    chain = PivotChain(self.level)
                    for g in self.generators:
                        chain.insert(g.images)
                    self._chain = chain
        return self._chain

    @property
    def order(self):
        return self.chain.order

    def contains(self, perm):
        validate_tree_perm(perm.images, self.level)
        return self.chain.contains(perm.images)

    def contains_group(self, other):
        """other <= self, decided by sifting other's generators."""
        if other.degree != self.degree:
            raise DegreeMismatch("degree mismatch")
        return all(self.contains(g) for g in other.generators)

    def is_trivial(self):
        return not self.generators or self.order == 1

    def transversal(self, k, vertex):
        """Orbit of a level-k vertex with one element per orbit point:
        {x: element taking ``vertex`` to x}.  A level-k vertex is numbered
        by the leaf index of any leaf below it shifted right by level - k."""
        if not 0 <= k <= self.level:
            raise ValueError(f"k must be in 0..{self.level}")
        if not 0 <= vertex < 1 << k:
            raise ValueError("point out of range")
        shift = self.level - k
        t = {vertex: Permutation.identity(self.degree)}
        frontier = [vertex]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = int(g.images[x << shift]) >> shift
                if y not in t:
                    t[y] = g * t[x]
                    frontier.append(y)
        return t

    def orbit(self, point):
        """Orbit of a leaf index under the generators."""
        return set(self.transversal(self.level, point))

    def strong_generators(self):
        chain = self.chain
        return [Permutation._wrap(np.array(chain.pivot_perm(s)))
                for s in chain.pivot_slots()]

    def __repr__(self):
        built = self._chain is not None
        size = f" order=2^{self._chain.npivots}" if built else ""
        return f"<PermGroup level={self.level} gens={len(self.generators)}{size}>"


def build_chain_and_order(group):
    """Force the stabilizer chain and return the exact group order."""
    return group.order


def subgroup(level, generators):
    return PermGroup(level, generators)


# --- images of elements ------------------------------------------------------

_IMAGE_CACHE = {}
_LETTER_IMAGE_CACHE = {}


def _letter_image(ch, n):
    key = (ch, n)
    a = _LETTER_IMAGE_CACHE.get(key)
    if a is None:
        if n == 0:
            a = np.arange(1, dtype=_DTYPE)
        elif ch == "a":
            a = np.arange(1 << n, dtype=_DTYPE) ^ (1 << (n - 1))
        else:
            _, s0, s1 = elements._LETTER_LEVEL1[ch]
            lo = _word_image(s0, n - 1)
            hi = _word_image(s1, n - 1)
            a = np.concatenate([lo, hi + (1 << (n - 1))])
        a.setflags(write=False)
        _LETTER_IMAGE_CACHE[key] = a
    return a


def _word_image(letters, n):
    if not letters:
        return np.arange(1 << n, dtype=_DTYPE)
    cur = _letter_image(letters[-1], n)
    for ch in reversed(letters[:-1]):
        cur = compose(_letter_image(ch, n), cur)
    return cur


def _image_array(e, n):
    if n == 0:
        return np.arange(1, dtype=_DTYPE)
    key = (e.key(), n)
    a = _IMAGE_CACHE.get(key)
    if a is not None:
        return a
    if isinstance(e, elements.Word):
        a = _word_image(e.letters, n)
    elif isinstance(e, elements.Pair):
        half = 1 << (n - 1)
        a = np.concatenate([_image_array(e.left, n - 1),
                            _image_array(e.right, n - 1) + half])
    else:
        factors = e.factors
        if not factors:
            a = np.arange(1 << n, dtype=_DTYPE)
        else:
            a = _image_array(factors[-1], n)
            for f in reversed(factors[:-1]):
                a = compose(_image_array(f, n), a)
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    a.setflags(write=False)
    _IMAGE_CACHE[key] = a
    return a


def image_at_level(g, n):
    """Permutation of the 2^n level-n vertices induced by an element.

    Functorial: image(g*h) = image(g) * image(h).
    """
    require_level(n)
    return Permutation._wrap(np.array(_image_array(g, n)))


_QUOTIENT_CACHE = {}
_QUOTIENT_LOCK = threading.Lock()


def level_quotient(n):
    """The image of the whole group on level n (generated by a, b, c, d)."""
    require_level(n)
    with _QUOTIENT_LOCK:
        q = _QUOTIENT_CACHE.get(n)
        if q is None:
            gens = [image_at_level(elements.Word(ch), n) for ch in "abcd"]
            q = PermGroup(n, gens)
            _QUOTIENT_CACHE[n] = q
    return q


def membership_and_containment(a, x):
    """x in a (for a Permutation) or x <= a (for a PermGroup)."""
    if isinstance(x, PermGroup):
        return a.contains_group(x)
    return a.contains(x)


def normal_closure(ambient, seeds):
    """Smallest subgroup containing the seeds and closed under conjugation by
    the ambient group's generators."""
    level = ambient.level
    chain = PivotChain(level)
    gen_arrays = [g.images for g in ambient.generators]
    gen_invs = [inverse(a) for a in gen_arrays]
    closure_gens = []
    worklist = []
    for s in seeds:
        a = s.images if isinstance(s, Permutation) else _as_perm_array(s)
        if len(a) != ambient.degree:
            raise DegreeMismatch("seed degree mismatch")
        if chain.insert(a):
            closure_gens.append(np.array(a, dtype=_DTYPE))
            worklist.append(a)
    while worklist:
        x = worklist.pop()
        for ga, gi in zip(gen_arrays, gen_invs):
            c = compose(gi, compose(x, ga))
            if chain.insert(c):
                closure_gens.append(c)
                worklist.append(c)
    return PermGroup(level, [Permutation._wrap(c) for c in closure_gens],
                     _chain=chain)


def level_stabilizer_image(q, k):
    """Image of the level-k stabilizer inside a level-M quotient group: all
    elements fixing every level-k vertex.  With the level-ordered base this
    is exactly the chain suffix below level k."""
    if k < 0 or k > q.level:
        raise ValueError(f"k must be in 0..{q.level}")
    if k == 0:
        return q
    chain = q.chain
    pairs = [(s, chain.pivot_perm(s)) for s in chain.pivot_slots()
             if chain.slot_level[s] > k]
    sub = PivotChain(q.level)
    sub.adopt(pairs)
    gens = [Permutation._wrap(np.array(p)) for _, p in pairs]
    return PermGroup(q.level, gens, _chain=sub)


def orbit(q, point):
    return q.orbit(point)


def vertex_stabilizer(q, k, vertex):
    """Stabilizer in q of a level-k vertex (numbered as in
    ``PermGroup.transversal``), generated by the Schreier generators
    t[g x]^-1 g t[x] over every orbit point x and every generator g
    (Schreier's lemma)."""
    t = q.transversal(k, vertex)
    shift = q.level - k
    gens = []
    for x, tx in t.items():
        for g in q.generators:
            y = g.apply(x << shift) >> shift
            gens.append(t[y].inverse() * g * tx)
    return PermGroup(q.level, gens)


# --- block helpers -----------------------------------------------------------

def collapse_to_level(perm, k):
    """Forget all but the first k letters: the induced level-k permutation."""
    level = perm.degree.bit_length() - 1
    if not 0 < k <= level:
        raise ValueError("k out of range")
    shift = level - k
    idx = np.arange(1 << k, dtype=_DTYPE) << shift
    return Permutation._wrap(
        np.ascontiguousarray(perm.images[idx] >> shift, dtype=_DTYPE))


def nest_at_vertex(perm, vertex, level):
    """Permutation at the given level acting as ``perm`` on the subtree at
    ``vertex`` and trivially elsewhere."""
    l = len(vertex)
    sub = perm.degree.bit_length() - 1
    if l + sub != level:
        raise DegreeMismatch("vertex depth plus subtree level must match")
    base = (int(vertex, 2) if vertex else 0) << sub
    out = np.arange(1 << level, dtype=_DTYPE)
    out[base:base + (1 << sub)] = perm.images + base
    return Permutation._wrap(out)


def block_pair(p0, p1):
    """Level-(n+1) permutation fixing level 1 with the given subtree actions."""
    if p0.degree != p1.degree:
        raise DegreeMismatch("components must have equal degree")
    return Permutation._wrap(
        np.concatenate([p0.images, p1.images + p0.degree]))


def nested_copies_group(sub, n, level):
    """Direct product of a copy of ``sub`` below every level-n vertex.

    The copies act on disjoint leaf blocks, so the union of their (shifted)
    chains is already a complete chain: conjugation conditions across copies
    are trivial because the supports are disjoint.
    """
    if sub.level + n != level:
        raise DegreeMismatch("sub level plus nesting depth must match")
    sub_chain = sub.chain
    pairs = []
    gens = []
    for w in range(1 << n):
        vertex = format(w, f"0{n}b") if n else ""
        for s in sub_chain.pivot_slots():
            vlevel = int(sub_chain.slot_level[s])
            value = int(sub_chain.slot_value[s])
            gslot = slot_index(n + vlevel, (w << vlevel) + value)
            nested = nest_at_vertex(
                Permutation._wrap(np.array(sub_chain.pivot_perm(s))),
                vertex, level)
            pairs.append((gslot, nested.images))
        for g in sub.generators:
            gens.append(nest_at_vertex(g, vertex, level))
    chain = PivotChain(level)
    chain.adopt(pairs)
    return PermGroup(level, gens, _chain=chain)


# --- brute-force oracle ------------------------------------------------------

BFS_GUARD = 1 << 16


def enumerate_elements(group, guard=BFS_GUARD):
    """All elements by breadth-first closure; the oracle behind the chain.

    Guarded: raises if the group has more than ``guard`` elements.
    """
    identity = np.arange(group.degree, dtype=_DTYPE)
    seen = {identity.tobytes(): identity}
    frontier = [identity]
    arrays = [g.images for g in group.generators]
    while frontier:
        nxt = []
        for p in frontier:
            for a in arrays:
                q = compose(p, a)
                key = q.tobytes()
                if key not in seen:
                    if len(seen) >= guard:
                        raise RuntimeError(
                            f"enumeration guard of {guard} elements exceeded")
                    seen[key] = q
                    nxt.append(q)
        frontier = nxt
    return list(seen.values())


# --- plain-text serialization ------------------------------------------------

def group_to_text(group, include_chain=False):
    """Serialize as generator lines, optionally with base and strong
    generators; deterministic for identical inputs."""
    lines = [f"level {group.level}", f"generators {len(group.generators)}"]
    lines.extend(g.to_line() for g in group.generators)
    if include_chain:
        chain = group.chain
        slots = chain.pivot_slots()
        base = " ".join(
            f"{chain.slot_level[s]}:{chain.slot_value[s]}" for s in slots)
        lines.append(f"base {base}")
        lines.append(f"strong {len(slots)}")
        lines.extend(
            " ".join(map(str, chain.pivot_perm(s))) for s in slots)
    return "\n".join(lines) + "\n"


def group_from_text(text):
    """Rebuild a group from its serialization (the chain is re-derived from
    the generators rather than trusted)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("level "):
        raise ValueError("expected a 'level N' header")
    level = int(lines[0].split()[1])
    count = int(lines[1].split()[1])
    gens = [Permutation.from_line(ln) for ln in lines[2:2 + count]]
    return PermGroup(level, gens)
