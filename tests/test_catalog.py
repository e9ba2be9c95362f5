"""Named elements, subgroup generator lists, and the two verifiers."""

import pytest

from grig import catalog as C
from grig import elements as E
from grig import permgroup as P
from grig.config import max_level
from grig.elements import equal_elements, is_identity, mul, invert, section_at

from conftest import assert_matches_schreier_build


def test_base_elements_are_the_squared_words():
    assert C.T.letters == "abab"
    assert C.U.letters == "badabada"
    assert C.V.letters == "abadabad"
    assert C.X0.letters == "acacacac"
    assert equal_elements(C.DDA, mul(E.Word("d"),
                                     E.conjugate(E.Word("d"), E.Word("a"))))


def test_u_and_v_sections():
    assert equal_elements(section_at(C.U, "0"), C.T)
    assert is_identity(section_at(C.U, "1"))
    assert is_identity(section_at(C.V, "0"))
    assert equal_elements(section_at(C.V, "1"), C.T)


def test_family_sections():
    for fam in "xuv":
        base = C.family_element(fam, 0)
        for m in (1, 2, 3):
            e = C.family_element(fam, m)
            assert is_identity(section_at(e, "0"))
            assert equal_elements(section_at(e, "1" * m), base)


def test_family_vertex_action(rng):
    # x_m(1^m w) = 1^m x_0(w)
    for m in (1, 2, 3):
        xm = C.family_element("x", m)
        for _ in range(20):
            w = "".join("01"[rng.next_below(2)]
                        for _ in range(rng.next_below(6)))
            assert E.act(xm, "1" * m + w) == "1" * m + E.act(C.X0, w)


def test_family_range_guard():
    with pytest.raises(ValueError):
        C.family_element("x", 99)
    with pytest.raises(ValueError):
        C.family_element("w", 1)


def test_member_of_K():
    for e in (C.T, C.U, C.V, C.X0, E.IDENTITY):
        assert C.member_of_K(e)
    for letters in ("a", "b", "c", "d", "ab", "bada"):
        assert not C.member_of_K(E.Word(letters))
    for fam in "xuv":
        for m in range(1, 5):
            assert C.member_of_K(C.family_element(fam, m))
    assert C.member_of_K(C.pair_uu())


def test_branch_built_k_images_match_schreier_built():
    for level in range(1, 10):
        assert_matches_schreier_build(C.k_image(level))


def test_k_generated_equals_k_closure():
    # <t, u, v> and the normal closure of t agree in every quotient probed
    for level in (3, 4, 5, 6):
        q = P.level_quotient(level)
        closure = P.normal_closure(q, [P.image_at_level(C.T, level)])
        generated = C.k_image(level)
        assert closure.order == generated.order
        assert closure.contains_group(generated)


def test_generator_lists():
    p1 = C.subgroup_generators("P", 1)
    assert [E.to_text(g) for g in p1] == ["d", "c", "ada", "aca"]
    q1 = C.subgroup_generators("Q", 1)
    assert [E.to_text(g) for g in q1[:2]] == ["b", "abab"]
    r2 = C.subgroup_generators("R", 2)
    assert len(r2) == 5
    assert equal_elements(r2[0], C.X0)
    assert equal_elements(r2[2], C.family_element("u", 1))
    for n in range(2, 7):
        assert len(C.subgroup_generators("P", n)) == n + 4
        if n >= 3:
            assert len(C.subgroup_generators("Q", n)) == n + 4
            assert len(C.subgroup_generators("R", n)) == n + 4
    assert len(C.subgroup_generators("Q", 2)) == 5
    assert len(C.subgroup_generators("K")) == 3
    assert len(C.subgroup_generators("Kn", 2)) == 12
    with pytest.raises(ValueError):
        C.subgroup_generators("st", 3)
    with pytest.raises(ValueError):
        C.subgroup_generators("R")
    with pytest.raises(ValueError):
        C.subgroup_generators("Z", 1)


def test_family_parameter_range_checked_first():
    top = max_level() + 2
    for name in "RQP":
        assert len(C.subgroup_generators(name, top)) == top + 4
        for n in (0, -1, top + 1, 40):
            with pytest.raises(ValueError,
                               match=rf"n in 1\.\.{top}, got n = {n}$"):
                C.subgroup_generators(name, n)
    # Kn nests 3 * 2^n generators, up to the nesting depth max_level()
    top = max_level()
    assert len(C.subgroup_generators("Kn", 1)) == 6
    for n in (0, -1, top + 1, 40):
        message = rf"^Kn requires n in 1\.\.{top}, got n = {n}$"
        with pytest.raises(ValueError, match=message):
            C.subgroup_generators("Kn", n)


def test_kn_generators_lie_in_nested_stabilizers():
    for g in C.subgroup_generators("Kn", 2):
        img = P.image_at_level(g, 3)
        assert P.collapse_to_level(img, 2).is_identity()


def test_lookup_name():
    assert C.lookup_name("t") is C.T
    assert C.lookup_name("u0") is C.family_element("u", 0)
    assert C.lookup_name("x3") is C.family_element("x", 3)
    assert C.lookup_name("nope") is None
    assert is_identity(C.lookup_name("1"))


def test_conjugation_tables_small():
    report = C.verify_conjugation_tables(4)
    assert report.all_pass
    assert len(report.entries) >= 60
    ids = {e.id for e in report.entries}
    assert "t^d" in ids and "x0^dda" in ids and "x2^x0" in ids


def test_conjugation_table_requires_two_shifts():
    with pytest.raises(ValueError):
        C.verify_conjugation_tables(1)


def test_um_rule_does_not_extend_to_m0():
    # u^(dd^a) = u^-1, not u: the m=0 instance of the shifted rule fails,
    # which is why the verifier starts that rule at m=1
    lhs = E.conjugate(C.U, C.DDA)
    assert equal_elements(lhs, invert(C.U))
    assert not equal_elements(lhs, C.U)


def test_redundancy_identities():
    assert C.verify_generator_redundancies().all_pass


def test_report_serialization():
    report = C.verify_conjugation_tables(2)
    payload = report.to_json()
    assert all(set(e) == {"id", "rule", "instantiation", "pass"}
               for e in payload)
    assert report.dumps() == report.dumps()


def test_branching_level4_and_5():
    for level in (4, 5):
        report = C.verify_branching(level)
        assert report.all_pass, [e.id for e in report.failures]
    with pytest.raises(ValueError):
        C.verify_branching(3)


def test_branching_sifts_into_no_normally_seeded_chain(monkeypatch):
    # a branch-built K image adopts K x K as its seed, so sifting the pairs
    # (k, 1) and (1, k) into it would pass whatever psi(K) contains
    sifted_into = []
    contains = P.PermGroup.contains

    def spy(group, perm):
        sifted_into.append(group)
        return contains(group, perm)

    monkeypatch.setattr(P.PermGroup, "contains", spy)
    assert C.verify_branching(4).all_pass
    assert sifted_into
    assert not any(g.chain._normal for g in sifted_into)


def test_kn_image_is_direct_product_of_k_images():
    for n, level in ((1, 4), (2, 5)):
        direct = C.kn_image(n, level)
        assert direct.order == C.k_image(level - n).order ** (1 << n)
        generated = C.subgroup_image("Kn", n, level)
        assert generated.order == direct.order
        assert direct.contains_group(generated)


def test_p_list_fixes_its_vertex_with_index_two():
    # every P_n generator fixes the vertex 1^n, but from n = 2 on the list
    # group sits at index 2 inside the full vertex stabilizer (index 2^(n+1)
    # in the whole quotient, exact from level n + 2 since it contains R_n)
    for n in (2, 3):
        level = n + 2
        q = P.level_quotient(level)
        img = C.subgroup_image("P", n, level)
        leaf_block = ((1 << n) - 1) << (level - n)
        for g in img.generators:
            assert g.apply(leaf_block) >> (level - n) == (1 << n) - 1
        assert q.order == img.order * (1 << (n + 1))


def test_catalog_elements_have_image_witnesses():
    # every nontrivial named element shows a nontrivial image by level 10
    elems = [C.T, C.U, C.V, C.X0, C.DDA, C.pair_uu()]
    for fam in "xuv":
        elems.extend(C.family_element(fam, m) for m in range(5))
    for e in elems:
        assert not is_identity(e)
        assert any(not P.image_at_level(e, k).is_identity()
                   for k in range(1, 11))


def test_concurrent_identity_checks():
    # elements are immutable and the memo tables tolerate concurrent use
    from concurrent.futures import ThreadPoolExecutor
    tasks = []
    for m in range(6):
        xm = C.family_element("x", m)
        tasks.append(mul(E.conjugate(xm, E.Word("b")),
                         invert(E.conjugate(xm, E.Word("b")))))
        tasks.append(mul(xm, invert(xm)))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(is_identity, tasks * 3))
    assert all(results)
