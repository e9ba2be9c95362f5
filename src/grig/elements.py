"""Exact arithmetic in the four-generator torsion group acting on the rooted
binary tree.

Elements are immutable trees built from three node kinds:

* ``Word`` -- a reduced word over the involutions a, b, c, d, where b, c, d
  commute and multiply by the Klein rules bc = d, bd = c, cd = b;
* ``Pair`` -- the unique first-level-fixing element with prescribed left and
  right sections, constructible only when both sections are certified members
  of the distinguished normal subgroup K (so that a preimage exists);
* ``Product`` -- a formal product of elements.

Inversion is a normalizing constructor rather than a node: every generator is
an involution, so the inverse of a word is its reversal, and the inverse of a
pair is the pair of inverses (K is closed under inversion).

Conventions, fixed once and used everywhere:

* in a word the RIGHTMOST letter acts first, i.e. ``"xy"`` applied to a
  vertex is x(y(vertex));
* conjugation is ``x ^ y = y^-1 x y``;
* a vertex is a string over {0, 1}; its length is its level; acting on
  ``i w`` gives ``g(i) + section_at(g, i)(w)``.

Everything below follows from the wreath recursion (``a`` swaps the two
subtrees, ``b = (a, c)``, ``c = (a, d)``, ``d = (1, b)``) and one rule, the
section of a product: ``(gh)|_x = g|_{h(x)} h|_x``.  :func:`_product_rule`
states that rule once; the first-level decompositions of words
(:func:`_word_level1`), of products (``Product.decompose``) and of normal
forms (:func:`_nf_sections`) all call it.  ``Element.act`` and
``Element.section`` walk a vertex down through ``decompose()`` in a loop, so
vertices of any length are handled.

The identity test reduces an element to a normal form (a product of reduced
words and pairs with no adjacent words), rejects on root activity, and
recurses into both first-level sections.  Termination: extracting sections
strictly decreases the number of pair nodes, and on pure reduced words each
section is at most half as long (only letters from {b, c, d} contribute a
letter to a given side, and reduced words alternate).  Results are memoized
on the normal form, so repeated sub-elements are decided once.

Reduced words are never reduced again.  A reduced word alternates ``a`` with
one of b, c, d, so two of them can cancel or merge only at the seam:
:func:`_concat_reduced` joins normal forms there, without a pass over the
whole string.  A word's first-level sections are joined the same way from
its chunks of ``_CHUNK`` letters, whose sections come from a memo table of
the at most 401 reduced words that short.  :func:`reduce_word` returns a
string that already has the reduced shape unchanged, so building a
``Word`` from a reduced string, inverting a word and decomposing one cost
no stack pass.

Everything here is immutable after construction, and each memo table
(``_CHUNK_LEVEL1``, ``_WORD_LEVEL1``, ``_IDENTITY_CACHE``) is only read and
written with single dict operations (``get`` and item assignment), which
are atomic, so all operations are safe to call from concurrent threads.
"""

from __future__ import annotations

import re

from grig.config import LevelLimitError, max_level

GENERATORS = "abcd"

_KLEIN = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}

# level-1 data of the generators: (swaps subtrees, section at 0, section at 1)
_LETTER_LEVEL1 = {
    "a": (True, "", ""),
    "b": (False, "a", "c"),
    "c": (False, "a", "d"),
    "d": (False, "", "b"),
}

# exactly the reduced words: no letter twice in a row, no two of b, c, d
# side by side
_REDUCED = re.compile(r"[bcd]?(?:a[bcd])*a?")

# word sections are assembled from chunks of this many letters
_CHUNK = 8


class NotInVertexStabilizer(ValueError):
    """Raised when a section is requested at a vertex the element moves."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_vertex(v):
    if not all(ch in "01" for ch in v):
        raise ValueError(f"vertex must be a string over 0/1, got {v!r}")
    return v


def reduce_word(letters):
    """Reduce a word over a, b, c, d to its unique normal form.

    One left-to-right pass with a pushdown of the last letter: equal adjacent
    letters cancel (all generators are involutions) and adjacent letters from
    {b, c, d} merge by the Klein rules.  The rewriting system is confluent on
    this alphabet, so a single stacked pass reaches the fixpoint.  A string
    that already has the reduced shape is returned as it is.
    """
    if _REDUCED.fullmatch(letters):
        return letters
    stack = []
    for ch in letters:
        if ch not in GENERATORS:
            raise ValueError(f"unknown generator {ch!r}")
        while stack:
            top = stack[-1]
            if top == ch:
                stack.pop()
                ch = ""
                break
            merged = _KLEIN.get((top, ch))
            if merged is None:
                break
            stack.pop()
            ch = merged
        if ch:
            stack.append(ch)
    return "".join(stack)


def _product_rule(level1):
    """First-level data of a product from that of its factors.

    ``level1`` lists each factor's (swap, section0, section1), rightmost
    factor first.  Applies ``(gh)|_x = g|_{h(x)} h|_x`` along the list and
    returns the product's swap and its two lists of sections in product
    order (leftmost first), with empty sections left out.
    """
    flip = False
    out0, out1 = [], []
    for sw, s0, s1 in level1:
        if flip:
            s0, s1 = s1, s0
        if s0:
            out0.append(s0)
        if s1:
            out1.append(s1)
        if sw:
            flip = not flip
    out0.reverse()
    out1.reverse()
    return flip, out0, out1


def _concat_reduced(u, v):
    """``reduce_word(u + v)`` for reduced words ``u`` and ``v``.

    A seam with exactly one ``a`` is already reduced.  Otherwise equal
    letters cancel pairwise across the seam; the first unequal pair either
    merges by a Klein rule, and then its neighbours are ``a`` or absent, or
    is already reduced.  The rest of both words is untouched.
    """
    if not u or not v or (u[-1] == "a") != (v[0] == "a"):
        return u + v
    i, j, nv = len(u), 0, len(v)
    while i and j < nv and u[i - 1] == v[j]:
        i -= 1
        j += 1
    if i and j < nv:
        merged = _KLEIN.get((u[i - 1], v[j]))
        if merged is not None:
            return u[:i - 1] + merged + v[j + 1:]
    return u[:i] + v[j:]


_CHUNK_LEVEL1 = {}


def _chunk_level1(chunk):
    """(swap, section0, section1) of a reduced word of at most ``_CHUNK``
    letters, from the letters' recursion by the product rule."""
    cached = _CHUNK_LEVEL1.get(chunk)
    if cached is not None:
        return cached
    swap, out0, out1 = _product_rule(
        [_LETTER_LEVEL1[ch] for ch in reversed(chunk)])
    result = (swap, reduce_word("".join(out0)), reduce_word("".join(out1)))
    _CHUNK_LEVEL1[chunk] = result
    return result


_WORD_LEVEL1 = {}


def _word_level1(letters):
    """(swap, section0, section1) of a reduced word, sections reduced.

    The product rule over the word's chunks, rightmost first: a chunk's
    sections swap sides when the part to its right swaps the subtrees, and
    are joined onto the sections so far at the seam.
    """
    cached = _WORD_LEVEL1.get(letters)
    if cached is not None:
        return cached
    flip = False
    sec0 = sec1 = ""
    for start in reversed(range(0, len(letters), _CHUNK)):
        sw, s0, s1 = _chunk_level1(letters[start:start + _CHUNK])
        if flip:
            s0, s1 = s1, s0
        sec0 = _concat_reduced(s0, sec0)
        sec1 = _concat_reduced(s1, sec1)
        flip ^= sw
    result = (flip, sec0, sec1)
    _WORD_LEVEL1[letters] = result
    return result


class Element:
    """Base class; every element is immutable and hashable structurally.

    Structural equality and hashing are NOT group equality; use
    :func:`equal_elements` or :func:`is_identity` for the group relation.
    """

    __slots__ = ("_key", "_hash", "_nf")

    def key(self):
        k = self._key
        if k is None:
            k = self._key = self._make_key()
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key())
        return h

    def __eq__(self, other):
        return isinstance(other, Element) and self.key() == other.key()

    def __mul__(self, other):
        return mul(self, other)

    def __invert__(self):
        return invert(self)

    def __xor__(self, other):
        return conjugate(self, other)

    def nf(self):
        n = self._nf
        if n is None:
            n = self._nf = self._make_nf()
        return n

    def decompose(self):
        """(swap, section0, section1): first-level wreath decomposition."""
        raise NotImplementedError

    def act(self, vertex):
        """Image of a vertex; same level, prefix-compatible.  Once the
        section reached is the identity word the rest of the vertex is
        left as it is."""
        check_vertex(vertex)
        g = self
        head = []
        for depth, ch in enumerate(vertex):
            if isinstance(g, Word) and not g.letters:
                return "".join(head) + vertex[depth:]
            swap, g0, g1 = g.decompose()
            i = ch == "1"
            head.append("1" if i ^ swap else "0")
            g = g1 if i else g0
        return "".join(head)

    def section(self, vertex):
        """Restriction to the subtree at ``vertex``; the element must fix
        every prefix of the vertex."""
        check_vertex(vertex)
        g = self
        for depth, ch in enumerate(vertex):
            swap, g0, g1 = g.decompose()
            if swap:
                raise NotInVertexStabilizer(
                    f"element moves prefix {vertex[:depth + 1]!r}")
            g = g1 if ch == "1" else g0
        return g

    def is_identity(self):
        return _nf_is_identity(self.nf())

    def portrait(self, depth):
        return Portrait.of(self, depth)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"


class Word(Element):
    __slots__ = ("letters",)

    def __init__(self, letters=""):
        self.letters = reduce_word(letters)
        self._key = self._hash = self._nf = None

    def _make_key(self):
        return self.letters

    def _make_nf(self):
        return (self.letters,) if self.letters else ()

    def decompose(self):
        swap, s0, s1 = _word_level1(self.letters)
        return swap, Word(s0), Word(s1)


class Pair(Element):
    """psi^-1(left, right): fixes level 1 and acts as ``left``/``right`` on
    the two subtrees.  Public construction certifies that both components lie
    in K, which guarantees a preimage exists in the group; internal callers
    that rebuild a pair from the sections of an existing element pass
    ``_trusted=True`` (the result is that element, so no certificate is
    needed)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right, *, _trusted=False):
        if not _trusted:
            from grig.catalog import member_of_K
            for side, comp in (("left", left), ("right", right)):
                if not member_of_K(comp):
                    raise ValueError(
                        f"{side} component is not certified to lie in K; "
                        f"the pair may fall outside the group")
        self.left = left
        self.right = right
        self._key = self._hash = self._nf = None

    def _make_key(self):
        return ("p", self.left.key(), self.right.key())

    def _make_nf(self):
        n0, n1 = self.left.nf(), self.right.nf()
        if not n0 and not n1:
            return ()
        return ((False, n0, n1),)

    def decompose(self):
        return False, self.left, self.right


class Product(Element):
    """Formal product; the rightmost factor acts first.  Nested products are
    flattened and identity words dropped at construction."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        flat = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            elif not (isinstance(f, Word) and not f.letters):
                flat.append(f)
        self.factors = tuple(flat)
        self._key = self._hash = self._nf = None

    def _make_key(self):
        return ("m",) + tuple(f.key() for f in self.factors)

    def _make_nf(self):
        return _merge_nf([f.nf() for f in self.factors])

    def decompose(self):
        swap, parts0, parts1 = _product_rule(
            [f.decompose() for f in reversed(self.factors)])
        return swap, mul(*parts0), mul(*parts1)


IDENTITY = Word("")

# t = (ab)^2, u = (bada)^2 = (t, 1) and v = (abad)^2 = (1, t), which generate
# K, the normal closure of t (named in grig.catalog as T, U, V)
K_GENERATORS = (Word("abab"), Word("badabada"), Word("abadabad"))


def mul(*elements):
    """Product of elements (rightmost acts first)."""
    p = Product(elements)
    if not p.factors:
        return IDENTITY
    if len(p.factors) == 1:
        return p.factors[0]
    return p


def invert(e):
    """Group inverse, pushed down to the leaves of the structure."""
    if isinstance(e, Word):
        return Word(e.letters[::-1])
    if isinstance(e, Pair):
        # K is a subgroup, so component inverses stay in K
        return Pair(invert(e.left), invert(e.right), _trusted=True)
    return mul(*[invert(f) for f in reversed(e.factors)])


def conjugate(x, y):
    """x ^ y = y^-1 x y."""
    return mul(invert(y), x, y)


def commutator(x, y):
    """[x, y] = x^-1 y^-1 x y."""
    return mul(invert(x), invert(y), x, y)


def group_ops(g, h, op):
    """Dispatch multiply / invert / conjugate by name."""
    if op == "multiply":
        return mul(g, h)
    if op == "invert":
        return invert(g)
    if op == "conjugate":
        return conjugate(g, h)
    raise ValueError(f"unknown operation {op!r}")


def first_level_decomposition(g):
    return g.decompose()


def rebuild_first_level(swap, g0, g1):
    """Inverse of first_level_decomposition; the inputs must come from a
    decomposition, so the pair is an existing group element."""
    p = Pair(g0, g1, _trusted=True)
    return mul(Word("a"), p) if swap else p


def act(g, vertex):
    return g.act(vertex)


def section_at(g, vertex):
    return g.section(vertex)


def is_identity(g):
    return g.is_identity()


def equal_elements(g, h):
    """Group equality via the decidable word problem."""
    return is_identity(mul(g, invert(h)))


# --- normal form and the contraction-based identity test -------------------

def _merge_nf(parts):
    """Concatenate normal forms, merging adjacent words; drop identities."""
    out = []
    for part in parts:
        for item in part:
            if isinstance(item, str):
                if out and isinstance(out[-1], str):
                    merged = _concat_reduced(out[-1], item)
                    out.pop()
                    if merged:
                        out.append(merged)
                elif item:
                    out.append(item)
            else:
                out.append(item)
    return tuple(out)


def _nf_swap(nf):
    swap = False
    for item in nf:
        if isinstance(item, str):
            swap ^= item.count("a") & 1 == 1
    return swap


def _nf_sections(nf):
    """First-level sections of a normal form, as normal forms.  A pair item
    is already its first-level data; a word item's sections are one-word
    normal forms."""
    level1 = []
    for item in reversed(nf):
        if isinstance(item, str):
            sw, s0, s1 = _word_level1(item)
            item = (sw, (s0,) if s0 else (), (s1,) if s1 else ())
        level1.append(item)
    _, parts0, parts1 = _product_rule(level1)
    return _merge_nf(parts0), _merge_nf(parts1)


_IDENTITY_CACHE = {}


def _nf_is_identity(nf):
    if not nf:
        return True
    cached = _IDENTITY_CACHE.get(nf)
    if cached is not None:
        return cached
    if _nf_swap(nf):
        result = False
    else:
        n0, n1 = _nf_sections(nf)
        result = _nf_is_identity(n0) and _nf_is_identity(n1)
    _IDENTITY_CACHE[nf] = result
    return result


# --- portraits --------------------------------------------------------------

class Portrait:
    """Finite truncation of the tree action: swap bits above ``depth`` and
    section elements at the ``depth`` boundary."""

    __slots__ = ("depth", "activity", "boundary")

    def __init__(self, depth, activity, boundary):
        self.depth = depth
        self.activity = dict(activity)
        self.boundary = dict(boundary)

    @classmethod
    def of(cls, g, depth):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > max_level():
            raise LevelLimitError(
                f"depth {depth} above the level guard {max_level()}: a "
                f"portrait has 2^depth boundary vertices (raise "
                f"GRIG_MAX_LEVEL to go deeper)")
        activity = {}
        boundary = {}

        def walk(e, v):
            if len(v) == depth:
                boundary[v] = e
                return
            swap, g0, g1 = e.decompose()
            activity[v] = swap
            walk(g0, v + "0")
            walk(g1, v + "1")

        walk(g, "")
        return cls(depth, activity, boundary)

    def reconstruct(self):
        """Element with the same action as the portrayed one (exactly equal
        as a group element when the boundary sections are exact)."""

        def build(v):
            if len(v) == self.depth:
                return self.boundary[v]
            return rebuild_first_level(
                self.activity[v], build(v + "0"), build(v + "1"))

        return build("")

    def __eq__(self, other):
        return (isinstance(other, Portrait)
                and self.depth == other.depth
                and self.activity == other.activity
                and all(equal_elements(self.boundary[v], other.boundary[v])
                        for v in self.boundary))

    def __hash__(self):
        return hash((self.depth, tuple(sorted(self.activity.items()))))


def portrait(g, depth):
    return Portrait.of(g, depth)


# --- the element-expression grammar -----------------------------------------
#
#   elem := name | elem '*' elem | elem '^' elem | elem '!' | '(' elem ')'
#
# '!' (inversion) binds tightest, then '^' (conjugation, left-associative),
# then '*'.  A name is a juxtaposed generator word or a catalog name.

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "*^!()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalnum():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _resolve_name(name, pos):
    if all(ch in GENERATORS for ch in name):
        return Word(name)
    from grig.catalog import lookup_name
    e = lookup_name(name)
    if e is None:
        raise ParseError(f"unknown name {name!r}", pos)
    return e


def parse_element(text):
    """Parse an element expression; see the grammar above."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom():
        kind, value, at = advance()
        if kind == "(":
            e = parse_product()
            kind, _, at2 = advance()
            if kind != ")":
                raise ParseError("expected ')'", at2)
        elif kind == "name":
            e = _resolve_name(value, at)
        else:
            raise ParseError(f"expected an element, got {value!r}", at)
        while peek()[0] == "!":
            advance()
            e = invert(e)
        return e

    def parse_conjugation():
        e = parse_atom()
        while peek()[0] == "^":
            advance()
            e = conjugate(e, parse_atom())
        return e

    def parse_product():
        e = parse_conjugation()
        while peek()[0] == "*":
            advance()
            e = mul(e, parse_conjugation())
        return e

    try:
        e = parse_product()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         tokens[pos - 1][2]) from None
    kind, value, at = peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", at)
    return e


def to_text(e):
    """Printable expression for an element (words, pairs, products)."""
    if isinstance(e, Word):
        return e.letters if e.letters else "1"
    if isinstance(e, Pair):
        return f"({to_text(e.left)}, {to_text(e.right)})"
    return "*".join(
        to_text(f) if not isinstance(f, Product) else f"({to_text(f)})"
        for f in e.factors) or "1"
