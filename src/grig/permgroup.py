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
size two.  A pair of pivots that move disjoint sets of leaves is skipped:
such pivots commute, so the conjugate is the deeper pivot itself, which
sifts through its own slot and can never add a pivot.  Each pivot keeps
its moved-leaf set as an integer bitmask for this test.  ``verify`` still
rechecks every pair.

A complete chain is a polycyclic presentation (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, ch. 8): the pivots in slot order
form a polycyclic sequence with factors of order 2, and the sift of each
Schreier pair (s, r) writes p_s^2 or p_s^-1 p_r p_s as a product of pivots
in later slots (a skipped disjoint pair gives the trivial relation).  These
relations present a group of order at most 2^npivots = |H|, so they present
H, and abelianised mod 2 they present H / Phi(H) as F2^npivots, one bit per
pivot row, modulo their span.  Closure reduces each relation into an
echelon basis keyed by leading bit (``PivotChain.relations``, at most
npivots ints), so d(H) = npivots - len(relations()).  An element of H sifts
to the product of the pivots ``strip`` divides out, so its class in
H / Phi(H) is the XOR of their rows.

The same view makes a sift an F2 reduction one tree level at a time.  An
element that fixes every slot above level l fixes level l - 1, and so does
every pivot in a level-l slot, so on the level-l vertices all of them act
as products of sibling swaps, which commute.  Dividing a level-l pivot out
of the element therefore XORs the pivot's level-l swap set into the
element's, and the pivot at the lowest swapped slot is the one to divide
out next.  Each pivot keeps its level-l swap set as a bitmask
(``_masks``, by row), and ``strip`` reduces the packed swap bits of the
element's level against them, touching the element's leaf array only to
carry the chosen pivots down to deeper levels.

Level quotients and K images are built by branch recursion
(``branch_image``).  K = <t, u, v> is normal of index 16 and psi(K)
contains K x K, so the level-n images of the whole group and of K both
contain, as a normal subgroup, the two nested copies of K's level-(n - 1)
image, whose chain is built the same way one level up.  The chain adopts
those copies as normal (``PivotChain.adopt(..., normal=True)``) and then
inserts the generators.  A Schreier pair with an adopted normal pivot in it
holds by itself, so closure queues none and closes only the few pivots
outside the seed (6 for the whole group, 2 for K).  The pairs it skips
still owe a relation each to the pc presentation: they wait in the owed
list, with the pairs of plainly adopted pivots, until ``relations`` is
first asked for, and an owed pair that drops a pivot raises, since the
chain's order has already been reported.  ``verify`` checks every pair.

The pivots depend on how the chain was built, so what is printed
(``group_to_text`` with the chain, ``PermGroup.strong_generators``) are
the canonical strong generators of ``PivotChain.canonical_pivots``, which
depend only on the group and the base.  Sifting uses the pivots as built.
"""

from __future__ import annotations

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


def f2_reduce(basis, v):
    """Eliminate the F2 vector ``v`` (a bitmask) on ``basis``, a dict from
    leading bit to vector, and add what is left, if anything."""
    while v:
        top = v.bit_length() - 1
        b = basis.get(top)
        if b is None:
            basis[top] = v
            return
        v ^= b


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
    the tree depth because slots are enumerated level-major.  Takes ints
    or numpy arrays."""
    return (1 << (vlevel - 1)) - 1 + (value >> 1)


class PivotChain:
    """Sibling-pair stabilizer chain; see the module docstring."""

    __slots__ = ("level", "degree", "nslots", "slot_leaf", "slot_shift",
                 "slot_value", "slot_level", "pivot_row", "npivots",
                 "_pivots", "_pinvs", "_supports", "_masks", "_queue",
                 "_echelon", "_owed", "_normal")

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
        self._supports = {}
        self._masks = []
        self._queue = []
        self._echelon = {}
        self._owed = []
        self._normal = set()

    @property
    def order(self):
        return 1 << self.npivots

    def pivot_slots(self):
        return [int(s) for s in np.nonzero(self.pivot_row >= 0)[0]]

    def pivot_perm(self, slot):
        return self._pivots[self.pivot_row[slot]]

    def _strip_inplace(self, g, start=0, applied=None):
        return strip(g, self.slot_leaf, self.slot_shift, self.slot_value,
                     self.pivot_row, self._pinvs, start, applied, self._masks)

    def residue(self, images, start=0, applied=None):
        """(drop_slot, residue) after sifting a copy of ``images``; the rows
        divided out are appended to ``applied`` as ``strip`` does."""
        g = np.array(images, dtype=_DTYPE)
        drop = self._strip_inplace(g, start, applied)
        return drop, g

    def contains(self, images):
        drop, _ = self.residue(images)
        return drop == self.nslots

    def _reserve(self, count):
        """Make room for ``count`` pivots, doubling the capacity."""
        cap = len(self._pivots)
        if count <= cap:
            return
        while cap < count:
            cap *= 2
        for name in ("_pivots", "_pinvs"):
            new = np.empty((cap, self.degree), dtype=_DTYPE)
            new[:self.npivots] = getattr(self, name)[:self.npivots]
            setattr(self, name, new)

    def _install(self, slot, perm):
        self._reserve(self.npivots + 1)
        row = self.npivots
        self._pivots[row] = perm
        inverse(perm, out=self._pinvs[row])
        self.pivot_row[slot] = row
        moved = perm != np.arange(self.degree, dtype=_DTYPE)
        self._supports[slot] = int.from_bytes(np.packbits(moved).tobytes(),
                                              "big")
        # the slot vertices of the pivot's own level that it swaps, bit i
        # for the i-th slot of the level (see ``strip``)
        lo = (1 << (int(self.slot_level[slot]) - 1)) - 1
        span = slice(lo, 2 * lo + 1)
        swapped = (perm[self.slot_leaf[span]] >> self.slot_shift[span]
                   != self.slot_value[span])
        self._masks.append(int.from_bytes(
            np.packbits(swapped, bitorder="little").tobytes(), "little"))
        self.npivots += 1

    def _schreier_pairs(self, slot, earlier):
        """Schreier conditions of the pivot at ``slot``: its square, and its
        conjugates with the pivots at the ``earlier`` slots, those installed
        before it (the deeper one conjugated by the shallower).  Each
        unordered pair comes from whichever pivot is installed later, so it
        is listed exactly once.  A pair with disjoint supports commutes, so
        its conjugate is the deeper pivot, which always sifts; such pairs
        are left out."""
        pairs = [(slot, slot)]
        support = self._supports[slot]
        for r in earlier:
            if r != slot and support & self._supports[r]:
                pairs.append((min(slot, r), max(slot, r)))
        return pairs

    def _add_pivot(self, slot, perm):
        """Install a pivot and queue its Schreier pairs; a pair with a pivot
        adopted as normal is owed to ``relations`` instead (see ``adopt``)."""
        self._install(slot, perm)
        pairs = self._schreier_pairs(slot, self.pivot_slots())
        if self._normal:
            normal = self._normal
            for pair in pairs:
                owed = pair[0] in normal or pair[1] in normal
                (self._owed if owed else self._queue).append(pair)
        else:
            self._queue.extend(pairs)

    def _drain(self, owed=False):
        """Sift every queued Schreier pair from the slot after its first
        pivot, adding a pivot where one drops, and reduce its relation into
        the echelon basis: the rows applied, plus e_r for a conjugate, plus
        the new pivot's row if the sift dropped.  An ``owed`` pair must not
        drop: the chain's order has been reported without it."""
        scratch = np.empty(self.degree, dtype=_DTYPE)
        applied = []
        while self._queue:
            s, r = self._queue.pop()
            s_row = self.pivot_row[s]
            p = self._pivots[s_row]
            if s == r:
                g = compose(p, p)
                rel = 0
            else:
                r_row = int(self.pivot_row[r])
                compose(self._pivots[r_row], p, out=scratch)
                g = compose(self._pinvs[s_row], scratch)
                rel = 1 << r_row
            applied.clear()
            drop = self._strip_inplace(g, s + 1, applied)
            for a in applied:
                rel ^= 1 << a
            if drop < self.nslots:
                if owed:
                    self._queue.clear()
                    raise AssertionError(
                        f"owed Schreier pair ({s}, {r}) drops a pivot at "
                        f"slot {drop}: an adopted family was not complete, "
                        f"or one adopted as normal was not normal")
                rel |= 1 << self.npivots
                self._add_pivot(drop, g)
            f2_reduce(self._echelon, rel)

    def relations(self):
        """Echelon basis of the relations of the chain's pc presentation,
        abelianised mod 2: independent bitmasks over pivot rows, at most
        ``npivots`` of them, with distinct leading bits.  ``npivots -
        len(relations())`` is the Frattini rank.  The owed pairs (those of
        adopted pivots, and those closure skipped as normal) are sifted
        here, the first time this is asked for."""
        if self._owed:
            by_row = sorted(self.pivot_slots(), key=self.pivot_row.__getitem__)
            for s, r in self._owed:
                if r is None:
                    earlier = by_row[:self.pivot_row[s]]
                    self._queue.extend(self._schreier_pairs(s, earlier))
                else:
                    self._queue.append((s, r))
            self._drain(owed=True)  # on a drop, the pairs stay owed
            self._owed = []
        return list(self._echelon.values())

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

    def adopt(self, slot_perm_pairs, normal=False):
        """Install an already-complete pivot family (e.g. a chain suffix or a
        disjoint union of nested chains) without reprocessing closure.  The
        Schreier pairs of each new pivot with the pivots installed before
        it are owed to ``relations``, entered as ``(slot, None)``.

        With ``normal``, the family must be the complete chain of a subgroup
        N that is normal in the group being built.  Then every Schreier
        condition with a pivot of N in it holds by itself: for pivots x
        before y, x^2 and x^-1 y x (if y is N's), or the factor [y, x] of
        x^-1 y x = y [y, x] (if x is N's), lie in N and fix the slot
        vertices up to x's, so they are products of N's pivots after x.
        ``insert`` therefore queues no such pair but owes it to
        ``relations``, which raises AssertionError if one drops a pivot."""
        slot_perm_pairs = sorted(slot_perm_pairs, key=lambda sp: sp[0])
        self._reserve(self.npivots + len(slot_perm_pairs))
        for slot, perm in slot_perm_pairs:
            if self.pivot_row[slot] >= 0:
                raise ValueError(f"slot {slot} already occupied")
            self._install(slot, np.asarray(perm, dtype=_DTYPE))
            self._owed.append((slot, None))
            if normal:
                self._normal.add(slot)

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

    def canonical_pivots(self):
        """The canonical strong generators, in slot order: c_s is the one
        element of p_s U_{s+1} that maps every later pivot-slot vertex to a
        left child, so it depends only on the group and the base.

        Starting from c = p_s, each later pivot slot t, in ascending order,
        where c(v_t) is a right child replaces c by c p_t (p_t acting
        first), which turns c(v_t) into its sibling and keeps c on the slot
        vertices before t.  On a level l, every p_t there swaps siblings
        only, so this is the F2 reduction of ``strip``: c's right-child bits
        on the level's slots, XOR-ed with the masks of the pivots chosen.
        Two such elements c, c u (u != 1 in U_{s+1}) differ on the first
        slot u moves, so c_s is unique."""
        out = []
        for s in self.pivot_slots():
            c = self.pivot_perm(s).copy()
            for l in range(int(self.slot_level[s]), self.level + 1):
                lo = (1 << (l - 1)) - 1
                start = max(lo, s + 1)
                span = slice(start, 2 * lo + 1)
                right = (c[self.slot_leaf[span]] >> self.slot_shift[span]) & 1
                bits = int.from_bytes(
                    np.packbits(right.astype(bool), bitorder="little")
                    .tobytes(), "little") << (start - lo)
                while bits:
                    low = bits & -bits
                    row = self.pivot_row[lo + low.bit_length() - 1]
                    if row < 0:
                        bits ^= low
                        continue
                    bits ^= self._masks[row]
                    c = c[self._pivots[row]]
            out.append(c)
        return out


class PermGroup:
    """Subgroup of the depth-``level`` tree automorphism group, given by
    generators; the stabilizer chain is built lazily on first use.

    ``_seed``, if given, is called at that first use for the (slot, images)
    pivots of a complete chain of a normal subgroup, which the chain adopts
    as normal before inserting the generators (see ``PivotChain.adopt``).
    The chain is assigned only once it is complete, so a concurrent first
    use at worst builds it twice."""

    def __init__(self, level, generators, _chain=None, _seed=None):
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
        self._seed = _seed

    @property
    def chain(self):
        if self._chain is None:
            chain = PivotChain(self.level)
            if self._seed is not None:
                chain.adopt(self._seed(), normal=True)
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
        return not self.generators

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
        """The canonical strong generators, in slot order
        (``PivotChain.canonical_pivots``)."""
        return [Permutation._wrap(c) for c in self.chain.canonical_pivots()]

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


def _image_array(e, n):
    """Level-n image array of an element.  A single letter or a Pair puts
    the level-(n-1) images of its two sections side by side (swapped if the
    element swaps the subtrees); a longer Word or a Product composes the
    images of its factors."""
    if n == 0:
        return np.arange(1, dtype=_DTYPE)
    key = (e.key(), n)
    a = _IMAGE_CACHE.get(key)
    if a is not None:
        return a
    if isinstance(e, elements.Product):
        factors = e.factors
    elif isinstance(e, elements.Word) and len(e.letters) > 1:
        factors = [elements.Word(ch) for ch in e.letters]
    else:
        factors = ()
    if factors:
        a = _image_array(factors[-1], n)
        for f in reversed(factors[:-1]):
            a = compose(_image_array(f, n), a)
    else:
        swap, s0, s1 = e.decompose()
        half = 1 << (n - 1)
        a = np.concatenate([_image_array(s0, n - 1),
                            _image_array(s1, n - 1) + half])
        if swap:
            a ^= half
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


def level_quotient(n):
    """The image of the whole group on level n (generated by a, b, c, d),
    built by branch recursion (``branch_image``)."""
    require_level(n)
    q = _QUOTIENT_CACHE.get(n)
    if q is None:
        q = _QUOTIENT_CACHE.setdefault(
            n, branch_image([elements.Word(ch) for ch in "abcd"], n))
    return q


def branch_image(words, level):
    """Level image of the subgroup generated by ``words``, which must
    contain K_1 = psi^-1(K x K) as a normal subgroup, as the whole group
    and K do (K = <t, u, v> is normal of index 16 and psi(K) contains
    K x K; de la Harpe, Topics in Geometric Group Theory, ch. VIII).

    The level image of K_1 is the direct product of two nested copies of
    the level-(level - 1) image of K, which is built the same way, down to
    level 1, where K acts trivially.  The chain, built on first use,
    adopts those copies as normal and then inserts the words' images, so
    closure handles only the few pivots outside K_1.  Nothing is cached:
    each build rebuilds the K images below it."""
    gens = [image_at_level(w, level) for w in words]
    seed = None if level == 1 else (lambda: _nested_pairs(
        branch_image(elements.K_GENERATORS, level - 1).chain, 1, level))
    return PermGroup(level, gens, _seed=seed)


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
    for s in PermGroup(level, seeds).generators:
        if chain.insert(s.images):
            closure_gens.append(s)
            worklist.append(s.images)
    while worklist:
        x = worklist.pop()
        for ga, gi in zip(gen_arrays, gen_invs):
            c = compose(gi, compose(x, ga))
            if chain.insert(c):
                closure_gens.append(Permutation._wrap(c))
                worklist.append(c)
    return PermGroup(level, closure_gens, _chain=chain)


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
    gens = [nest_at_vertex(g, format(w, f"0{n}b") if n else "", level)
            for w in range(1 << n) for g in sub.generators]
    chain = PivotChain(level)
    chain.adopt(_nested_pairs(sub.chain, n, level))
    return PermGroup(level, gens, _chain=chain)


def _nested_pairs(sub_chain, n, level):
    """(slot, images) of a copy of every pivot of ``sub_chain`` below every
    level-n vertex, at the given level."""
    slots = sub_chain.pivot_slots()
    vlevels = sub_chain.slot_level[slots]
    values = sub_chain.slot_value[slots]
    block = sub_chain._pivots[sub_chain.pivot_row[slots]]
    size = sub_chain.degree
    pairs = []
    for w in range(1 << n):
        nested = np.tile(np.arange(1 << level, dtype=_DTYPE), (len(slots), 1))
        nested[:, w * size:(w + 1) * size] = block + w * size
        gslots = slot_index(n + vlevels, (w << vlevels) + values)
        pairs.extend(zip(gslots.tolist(), nested))
    return pairs


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
    """Serialize as generator lines, optionally with the base and the
    canonical strong generators, which depend only on the group and the
    base, not on how its chain was built."""
    lines = [f"level {group.level}", f"generators {len(group.generators)}"]
    lines.extend(g.to_line() for g in group.generators)
    if include_chain:
        chain = group.chain
        slots = chain.pivot_slots()
        base = " ".join(
            f"{chain.slot_level[s]}:{chain.slot_value[s]}" for s in slots)
        lines.append(f"base {base}")
        lines.append(f"strong {len(slots)}")
        lines.extend(" ".join(map(str, c)) for c in chain.canonical_pivots())
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
