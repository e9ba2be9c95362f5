"""Word algebra, sections, vertex actions, and the identity test."""

import itertools

import pytest

from grig import elements as E
from grig.catalog import lookup_name
from grig.elements import (IDENTITY, NotInVertexStabilizer, Pair, ParseError,
                           Product, Word, act, conjugate, equal_elements,
                           first_level_decomposition, invert, is_identity,
                           mul, parse_element, portrait, reduce_word,
                           section_at)

from grig.permgroup import image_at_level

from conftest import oracle_act_word, random_letters, random_word

CATALOG_PAIRS = ("uu", "x1", "u2", "v1")


def random_product(rng):
    """Product of 2-3 factors, each a random word or a catalog pair."""
    factors = []
    for _ in range(2 + rng.next_below(2)):
        if rng.next_below(2):
            factors.append(lookup_name(CATALOG_PAIRS[rng.next_below(4)]))
        else:
            factors.append(random_word(rng, 18))
    return mul(*factors)


def test_generator_relations():
    for ch in "abcd":
        assert is_identity(mul(Word(ch), Word(ch)))
    for x, y, z in [("b", "c", "d"), ("b", "d", "c"), ("c", "d", "b")]:
        assert equal_elements(mul(Word(x), Word(y)), Word(z))
        assert equal_elements(mul(Word(y), Word(x)), Word(z))


def test_reduce_examples():
    assert reduce_word("bc") == "d"
    assert reduce_word("aa") == ""
    assert reduce_word("babaabab") == ""
    assert reduce_word("abab") == "abab"


def test_reduce_rejects_unknown_letters():
    with pytest.raises(ValueError):
        reduce_word("abe")


def test_reduced_form_shape(rng):
    # no double a, no adjacent bcd letters: reduced words alternate
    for _ in range(300):
        r = reduce_word(random_letters(rng, 40))
        for x, y in zip(r, r[1:]):
            assert (x == "a") != (y == "a")


def test_reduce_idempotent_and_element_preserving(rng):
    for _ in range(1000):
        raw = random_letters(rng, 40)
        red = reduce_word(raw)
        assert reduce_word(red) == red
        assert len(red) <= len(raw)
        # the unreduced product of single letters equals the reduced word
        unreduced = Product([Word(ch) for ch in raw])
        assert is_identity(mul(unreduced, invert(Word(red))))


def stack_reduce(letters):
    """The general reducer's stack pass, kept here as the oracle for the
    reduced-shape fast path and the seam merge."""
    klein = {("b", "c"): "d", ("c", "b"): "d", ("b", "d"): "c",
             ("d", "b"): "c", ("c", "d"): "b", ("d", "c"): "b"}
    stack = []
    for ch in letters:
        if ch not in "abcd":
            raise ValueError(f"unknown generator {ch!r}")
        while stack:
            top = stack[-1]
            if top == ch:
                stack.pop()
                ch = ""
                break
            merged = klein.get((top, ch))
            if merged is None:
                break
            stack.pop()
            ch = merged
        if ch:
            stack.append(ch)
    return "".join(stack)


def random_reduced(rng, length):
    """A reduced word of the given length: a alternates with b, c or d."""
    use_a = rng.next_below(2) == 1
    letters = []
    for _ in range(length):
        letters.append("a" if use_a else "bcd"[rng.next_below(3)])
        use_a = not use_a
    return "".join(letters)


def test_reduce_matches_the_stack_pass_on_all_short_strings():
    for length in range(9):
        for letters in itertools.product("abcd", repeat=length):
            raw = "".join(letters)
            assert reduce_word(raw) == stack_reduce(raw)
    # strings of reduced shape apart from a non-generator still raise
    for bad in ("abe", "ae", "x", "aba\n", "A", "ab ab"):
        with pytest.raises(ValueError):
            reduce_word(bad)


def test_concat_reduced_matches_full_reduction(rng):
    for k in range(4000):
        u = random_reduced(rng, rng.next_below(40))
        v = random_reduced(rng, rng.next_below(40))
        if k % 2:
            # v starts with a reversed suffix of u, so the seam cancels for
            # a while and then may merge by a Klein rule
            cut = rng.next_below(len(u) + 1)
            v = stack_reduce(u[len(u) - cut:][::-1] + v)
        assert E._concat_reduced(u, v) == stack_reduce(u + v)
        assert E._concat_reduced(u, v) == reduce_word(u + v)


def test_word_sections_match_the_letter_product_rule(rng, monkeypatch):
    # an empty whole-word memo sends every word through the chunk table
    monkeypatch.setattr(E, "_WORD_LEVEL1", {})
    lengths = list(range(81)) + [m * E._CHUNK + e for m in range(1, 11)
                                 for e in (-1, 0, 1)] * 20
    for length in lengths:
        w = random_reduced(rng, length)
        swap, out0, out1 = E._product_rule(
            [E._LETTER_LEVEL1[ch] for ch in reversed(w)])
        assert E._word_level1(w) == (
            swap, stack_reduce("".join(out0)), stack_reduce("".join(out1)))
    assert len(E._CHUNK_LEVEL1) <= 401


def test_first_level_recursion_table():
    # b=(a,c), c=(a,d), d=(1,b) and their a-conjugates with swapped sections
    table = {
        "b": ("a", "c"), "c": ("a", "d"), "d": ("", "b"),
        "aba": ("c", "a"), "aca": ("d", "a"), "ada": ("b", ""),
    }
    for letters, (s0, s1) in table.items():
        swap, g0, g1 = first_level_decomposition(Word(letters))
        assert not swap
        assert equal_elements(g0, Word(s0))
        assert equal_elements(g1, Word(s1))
    swap, g0, g1 = first_level_decomposition(Word("a"))
    assert swap and is_identity(g0) and is_identity(g1)


def test_conjugate_of_b_by_a():
    swap, g0, g1 = first_level_decomposition(conjugate(Word("b"), Word("a")))
    assert not swap
    assert equal_elements(g0, Word("c"))
    assert equal_elements(g1, Word("a"))


def test_act_examples():
    assert act(Word("a"), "0") == "1"
    for w in ("", "0", "11", "0101"):
        assert act(Word("d"), "0" + w) == "0" + w
    assert act(Word("abab"), "00") == "01"
    assert oracle_act_word("abab", "00") == "01"


def test_act_matches_oracle(rng):
    for _ in range(300):
        letters = random_letters(rng, 25)
        v = "".join("01"[rng.next_below(2)] for _ in range(rng.next_below(9)))
        assert act(Word(letters), v) == oracle_act_word(letters, v)


def test_act_on_products_matches_level_image(rng):
    # the vertex walk goes through Product.decompose and Pair sections; the
    # level-n image composes the images of the factors instead
    for _ in range(40):
        g = random_product(rng)
        for n in range(1, 11):
            image = image_at_level(g, n)
            for _ in range(4):
                v = format(rng.next_below(1 << n), f"0{n}b")
                assert act(g, v) == format(image.apply(int(v, 2)), f"0{n}b")


def test_act_prefix_compatible(rng):
    for _ in range(100):
        g = random_word(rng, 20)
        v = "".join("01"[rng.next_below(2)] for _ in range(8))
        img = act(g, v)
        for k in range(len(v)):
            assert act(g, v[:k]) == img[:k]


def test_act_is_level_bijection(rng):
    for _ in range(100):
        g = random_word(rng, 20)
        for n in range(1, 9):
            vertices = [format(i, f"0{n}b") for i in range(1 << n)]
            images = {act(g, v) for v in vertices}
            assert len(images) == 1 << n
            assert all(len(v) == n for v in images)


def test_product_and_inverse(rng):
    for _ in range(200):
        g = random_word(rng, 20)
        h = random_word(rng, 20)
        assert is_identity(mul(g, invert(g)))
        assert is_identity(mul(invert(g), g))
        # (gh)^-1 = h^-1 g^-1
        assert equal_elements(invert(mul(g, h)), mul(invert(h), invert(g)))


def test_word_inverse_is_reversal():
    w = Word("abad")
    assert invert(w).letters == "daba"


def test_section_homomorphism(rng):
    # for g, h fixing level 1, sections of g*h are products of sections
    found = 0
    while found < 50:
        g, h = random_word(rng, 16), random_word(rng, 16)
        sg, g0, g1 = first_level_decomposition(g)
        sh, h0, h1 = first_level_decomposition(h)
        if sg or sh:
            continue
        found += 1
        _, p0, p1 = first_level_decomposition(mul(g, h))
        assert equal_elements(p0, mul(g0, h0))
        assert equal_elements(p1, mul(g1, h1))


def test_decomposition_roundtrip(rng):
    words = [random_word(rng, 18) for _ in range(50)]
    products = [random_product(rng) for _ in range(30)]
    for g in words + products:
        rebuilt = E.rebuild_first_level(*first_level_decomposition(g))
        # the identity test reads the rebuilt pair through _nf_sections
        assert equal_elements(rebuilt, g)
        for n in range(7):
            for i in range(1 << n):
                v = format(i, f"0{n}b") if n else ""
                assert act(g, v) == act(rebuilt, v)


def test_section_at():
    u = Word("badabada")
    v = Word("abadabad")
    t = Word("abab")
    assert equal_elements(section_at(u, "0"), t)
    assert is_identity(section_at(u, "1"))
    assert equal_elements(section_at(v, "1"), t)
    assert is_identity(section_at(IDENTITY, "0101"))
    with pytest.raises(NotInVertexStabilizer):
        section_at(Word("a"), "0")
    # d = (1, b) fixes "10" but moves "100" (the section there is a)
    assert equal_elements(section_at(Word("d"), "10"), Word("a"))
    with pytest.raises(NotInVertexStabilizer):
        section_at(Word("d"), "100")


def test_is_identity_examples():
    t = Word("abab")
    assert is_identity(mul(conjugate(t, Word("a")), t))
    assert not is_identity(Word("ad"))
    assert is_identity(Word(""))
    assert not is_identity(t)
    # t has order 8: t^4 = ((ca)^4, (ac)^4) is nontrivial
    assert not is_identity(mul(t, t))
    assert not is_identity(mul(t, t, t, t))
    assert is_identity(mul(*[t] * 8))
    # hence t != t^-1, the "equal abab baba -> false" case
    assert not equal_elements(t, invert(t))


def test_pair_requires_certificates():
    t = Word("abab")
    with pytest.raises(ValueError):
        Pair(Word("a"), t)
    p = Pair(t, IDENTITY)
    assert equal_elements(p, Word("badabada"))


def test_portrait_examples():
    p = portrait(Word("a"), 1)
    assert p.activity[""] is True
    assert is_identity(p.boundary["0"]) and is_identity(p.boundary["1"])
    q = portrait(IDENTITY, 3)
    assert not any(q.activity.values())
    assert all(is_identity(e) for e in q.boundary.values())
    r = portrait(Word("badabada"), 1)
    assert r.activity[""] is False
    assert equal_elements(r.boundary["0"], Word("abab"))
    assert is_identity(r.boundary["1"])


def test_portrait_roundtrip(rng):
    for _ in range(30):
        g = random_word(rng, 14)
        for depth in (0, 1, 3):
            assert equal_elements(portrait(g, depth).reconstruct(), g)


def test_group_ops_dispatch():
    a, b = Word("a"), Word("b")
    assert equal_elements(E.group_ops(a, b, "multiply"), Word("ab"))
    assert equal_elements(E.group_ops(a, None, "invert"), a)
    assert equal_elements(E.group_ops(b, a, "conjugate"), Word("aba"))
    with pytest.raises(ValueError):
        E.group_ops(a, b, "divide")


class TestParse:
    def test_words(self):
        assert parse_element("abab").letters == "abab"
        assert is_identity(parse_element("a*a"))

    def test_conjugation_is_inverse_of_t(self):
        t = Word("abab")
        assert equal_elements(parse_element("t^a"), invert(t))

    def test_inversion_and_parens(self):
        t = Word("abab")
        assert equal_elements(parse_element("t!"), invert(t))
        assert equal_elements(parse_element("(t*u)!"),
                              invert(mul(t, Word("badabada"))))

    def test_precedence(self):
        # '^' binds tighter than '*': t^a*u = (t^a)*u
        lhs = parse_element("t^a*u")
        rhs = mul(conjugate(Word("abab"), Word("a")), Word("badabada"))
        assert equal_elements(lhs, rhs)

    def test_catalog_names(self):
        x1 = parse_element("x1")
        assert isinstance(x1, Pair)
        assert equal_elements(section_at(x1, "1"), Word("acacacac"))
        assert equal_elements(parse_element("u0"), Word("badabada"))
        uu = parse_element("uu")
        assert equal_elements(section_at(uu, "0"), Word("badabada"))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("t^")
        assert err.value.position == 2
        with pytest.raises(ParseError) as err:
            parse_element("t*zz9")
        assert err.value.position == 2
        with pytest.raises(ParseError):
            parse_element("(t")
        with pytest.raises(ParseError):
            parse_element("t)")
        with pytest.raises(ParseError):
            parse_element("")


def test_to_text_roundtrip_for_words(rng):
    for _ in range(50):
        g = random_word(rng, 12)
        assert equal_elements(parse_element(E.to_text(g)), g)
