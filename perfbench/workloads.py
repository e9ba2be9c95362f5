"""The four benchmark workloads.

Each workload is built from a seed, does its set-up (input generation and
any chain builds) in ``setup``, runs its operations in ``timed`` while
recording one latency per operation, and checks every output in ``check``
afterwards, so the oracles never count towards the timed phase.  ``digest``
returns the results that must not depend on the seed.  Timed code calls
grig through module attributes, so that the traced run sees the calls.
"""

import random
from fractions import Fraction

from grig import catalog, elements, permgroup, rigidity
from grig.elements import Word, conjugate, invert, mul, section_at


def closed_form_order(n):
    """|G / st(n)| = 2^(5 * 2^(n-3) + 2) for n >= 3."""
    return 1 << (5 * (1 << (n - 3)) + 2)


def random_reduced_word(rng, length):
    """Uniform-ish reduced word: 'a' alternates with one of b, c, d."""
    letters = []
    use_a = rng.random() < 0.5
    for _ in range(length):
        letters.append("a" if use_a else rng.choice("bcd"))
        use_a = not use_a
    return "".join(letters)


class Workload:
    name = ""

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self):
        pass

    def timed(self, span, lat, clock):
        """Run every operation; append one latency per op, read from
        ``clock``."""
        raise NotImplementedError

    def check(self):
        """Number of operations whose output failed its check."""
        raise NotImplementedError

    def digest(self):
        """Results that must come out the same on every seed."""
        raise NotImplementedError


class QuotientDeep(Workload):
    """level_quotient(n).order for n = 8, 9, 10: Schreier closure on long
    chains from four generators.  The inputs do not depend on the seed."""

    name = "quotient-deep"
    LEVELS = (8, 9, 10)

    def timed(self, span, lat, clock):
        self.orders = {}
        for n in self.LEVELS:
            t0 = clock()
            with span(f"permgroup.level_quotient.L{n}"):
                self.orders[n] = permgroup.level_quotient(n).order
            lat.append(clock() - t0)

    def check(self):
        failed = sum(self.orders[n] != closed_form_order(n)
                     for n in self.LEVELS)
        try:
            permgroup.level_quotient(8).chain.verify()
        except AssertionError:
            failed += self.orders[8] == closed_form_order(8)
        return failed

    def digest(self):
        return {"orders": {str(n): str(o) for n, o in self.orders.items()}}


class RankGradient(Workload):
    """rank_gradient_table("P", 8), as `grig rg-table --chain P --max 8`;
    one operation is one row.  The inputs do not depend on the seed."""

    name = "rank-gradient"
    N_MAX = 8

    def timed(self, span, lat, clock):
        t0 = clock()
        try:
            self.rows = rigidity.rank_gradient_table("P", self.N_MAX)
        except RuntimeError:  # a rank did not certify: no rows at all
            self.rows = []
        per_row = (clock() - t0) / self.N_MAX
        lat.extend([per_row] * self.N_MAX)

    def check(self):
        # The table raises rather than return an uncertified row, and builds
        # rg as (d-1)/index, so `certified` and the rg test hold by
        # construction; they guard against a change of that contract.
        failed = self.N_MAX - len(self.rows)
        for n, row in enumerate(self.rows, start=1):
            d = 4 if n == 1 else n + 4
            ok = (row.n == n and row.certified and row.d == d
                  and row.rg == Fraction(d - 1, row.index))
            failed += not ok
        return failed

    def digest(self):
        return {"rows": [[r.n, r.d, str(r.index), str(r.rg), r.certified]
                         for r in self.rows]}


class Membership(Workload):
    """Sift level-9 images of random words through five prebuilt chains;
    one operation is one `contains`.  All chain builds happen in set-up."""

    name = "membership"
    LEVEL = 9
    WORDS = 20000
    LEAF_15 = (1 << 5) - 1  # the vertex 1^5 at level 5

    def setup(self):
        q = permgroup.level_quotient(self.LEVEL)
        self.groups = [
            ("G", q),
            ("K", catalog.k_image(self.LEVEL)),
            ("P5", catalog.subgroup_image("P", 5, self.LEVEL)),
            ("st4", permgroup.level_stabilizer_image(q, 4)),
            ("K3", catalog.kn_image(3, self.LEVEL)),
        ]
        for _, g in self.groups:
            g.order  # force the chain build
        rng = self.rng
        self.words = [Word(random_reduced_word(rng, rng.randint(8, 64)))
                      for _ in range(self.WORDS)]

    def timed(self, span, lat, clock):
        hits = []
        for w in self.words:
            img = permgroup.image_at_level(w, self.LEVEL)
            bits = 0
            for i, (_, g) in enumerate(self.groups):
                t0 = clock()
                if g.contains(img):
                    bits |= 1 << i
                lat.append(clock() - t0)
            hits.append(bits)
        self.hits = hits

    def _expected(self, w):
        img = permgroup.image_at_level(w, self.LEVEL)
        in_k = catalog.member_of_K(w)
        in_st4 = permgroup.collapse_to_level(img, 4).is_identity()
        in_k3 = (permgroup.collapse_to_level(img, 3).is_identity()
                 and all(catalog.member_of_K(section_at(w, format(v, "03b")))
                         for v in range(8)))
        fixes_leaf = (permgroup.collapse_to_level(img, 5).apply(self.LEAF_15)
                      == self.LEAF_15)
        # (group index, expected hit or None if only hits are checked)
        return [(0, True), (1, in_k), (2, None if fixes_leaf else False),
                (3, in_st4), (4, in_k3)]

    def check(self):
        failed = 0
        for w, bits in zip(self.words, self.hits):
            for i, want in self._expected(w):
                if want is not None and bool(bits >> i & 1) != want:
                    failed += 1
        return failed

    def digest(self):
        return {"log2_orders": {name: g.chain.npivots
                                for name, g in self.groups},
                "words": len(self.words)}


RELATORS = ("adadadad", "ac" * 8, "ab" * 16, "adacac" * 4)
T8 = Word("abab" * 8)  # t^8 = 1


class WordProblem(Workload):
    """is_identity / equal_elements on products of reduced words, half
    drawn from a fixed pool of 64 words (shared memoised sub-elements) and
    half fresh.  Answers are known by construction: inserted relators and
    conjugates of t^8 give the identity, one inserted generator does not."""

    name = "word-problem"
    QUERIES = 10000
    POOL = 64
    # cross-check every 37th query against its level-10 image; the stride
    # is odd, so the sample covers every query kind, pooled and fresh
    SAMPLE_EVERY = 37

    def setup(self):
        rng = self.rng
        self.pool = [random_reduced_word(rng, rng.randint(10, 50))
                     for _ in range(self.POOL)]
        self.queries = [self._query(i) for i in range(self.QUERIES)]

    def _factors(self, from_pool):
        rng = self.rng
        if from_pool:
            return [rng.choice(self.pool) for _ in range(rng.randint(2, 4))]
        total = rng.randint(20, 200)
        cuts = sorted(rng.sample(range(1, total), rng.randint(1, 3)))
        bounds = [0] + cuts + [total]
        return [random_reduced_word(rng, b - a)
                for a, b in zip(bounds, bounds[1:])]

    def _insert(self, factors, piece):
        """Factors with ``piece`` spliced into one of them at random."""
        rng = self.rng
        i = rng.randrange(len(factors))
        f = factors[i]
        at = rng.randint(0, len(f))
        return factors[:i] + [f[:at] + piece + f[at:]] + factors[i + 1:]

    def _query(self, i):
        """(op, lhs, rhs, expected) where op is 'eq' or 'id'."""
        rng = self.rng
        factors = self._factors(from_pool=i % 2 == 0)
        x = mul(*[Word(f) for f in factors])
        kind = (i // 2) % 4
        if kind == 0:
            y = mul(*[Word(f) for f in
                      self._insert(factors, rng.choice(RELATORS))])
            return "eq", y, x, True
        if kind == 1:
            return "id", conjugate(T8, x), None, True
        y = mul(*[Word(f) for f in self._insert(factors, rng.choice("abcd"))])
        if kind == 2:
            return "eq", y, x, False
        return "id", mul(y, invert(x)), None, False

    def timed(self, span, lat, clock):
        answers = []
        for op, lhs, rhs, _ in self.queries:
            t0 = clock()
            r = (elements.equal_elements(lhs, rhs) if op == "eq"
                 else elements.is_identity(lhs))
            lat.append(clock() - t0)
            answers.append(r)
        self.answers = answers

    def check(self):
        failed = 0
        for k, ((op, lhs, rhs, want), got) in enumerate(
                zip(self.queries, self.answers)):
            bad = got != want
            if not bad and k % self.SAMPLE_EVERY == 0:
                e = mul(lhs, invert(rhs)) if op == "eq" else lhs
                bad = permgroup.image_at_level(e, 10).is_identity() != want
            failed += bad
        return failed

    def digest(self):
        return {"queries": len(self.queries),
                "identities": sum(q[3] for q in self.queries)}


WORKLOADS = {w.name: w for w in (QuotientDeep, RankGradient, Membership,
                                 WordProblem)}
