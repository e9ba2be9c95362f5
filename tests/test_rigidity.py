"""Indexes, rank witnesses, gradient tables, rigidity reports, sandwich
checks, and the probe."""

import math
from fractions import Fraction

import pytest

from grig import catalog as C
from grig import permgroup as P
from grig import rigidity as R
from grig.pgroup import frattini_rank

from conftest import brute_frattini_rank


def test_index_examples():
    assert R.index_of("st", 1) == 2
    assert R.index_of("st", 2) == 8
    assert R.index_of("st", 3) == 128
    assert R.index_of("K") == 16
    assert R.index_of("P", 2) == 4
    assert R.index_of("Kn", 1) == 64
    with pytest.raises(ValueError):
        R.index_of("B")


def test_order_formula_guard():
    with pytest.raises(ValueError):
        R.quotient_order_formula(2)
    assert R.quotient_order_formula(8) == 1 << 162


def test_rank_witness_examples():
    w = R.rank_witness("K", level_budget=6)
    assert w.certified and w.lower_bound == 3
    w = R.rank_witness("P", 1, level_budget=5)
    assert w.certified and w.lower_bound == 4
    w = R.rank_witness("P", 2, level_budget=7)
    assert w.certified and w.lower_bound == 6
    w = R.rank_witness("R", 2)
    assert w.certified and w.lower_bound == 5


def test_rank_witness_monotone_and_stable():
    w = R.rank_witness("P", 3)
    bounds = [d for _, d in w.history]
    assert bounds == sorted(bounds)
    assert w.certified
    # one level beyond certification the value stays put
    beyond = frattini_rank(C.subgroup_image("P", 3, w.witness_level + 1))
    assert beyond == w.lower_bound


def test_rank_witness_q3_reports_redundant_list():
    w = R.rank_witness("Q", 3)
    assert not w.certified
    assert w.lower_bound == 6 and w.upper_bound == 7
    # u_2 = [v_1, x_1 b] makes the list without u_2 generate Q3 itself
    # (test_criterion_03_certified_ranks checks that identity); here its
    # level-8 image matches the full list's
    gens = C.subgroup_generators("Q", 3)
    u2 = C.family_element("u", 2)
    reduced = [g for g in gens if g.key() != u2.key()]
    level = 8
    full = C.subgroup_image("Q", 3, level)
    less = P.subgroup(level, [P.image_at_level(g, level) for g in reduced])
    assert full.order == less.order and full.contains_group(less)


def test_vertex_stabilizer_image():
    # the full stabilizer of 1^n: index exactly 2^n, rank n + 3 (which the
    # catalog list group, of index 2^(n+1), strictly exceeds by one)
    for n, level in [(2, 6), (3, 7), (4, 8), (5, 9)]:
        stab = R.vertex_stabilizer_image(n, level)
        assert P.level_quotient(level).order == stab.order * (1 << n)
        assert frattini_rank(stab) == n + 3
        lst = C.subgroup_image("P", n, level)
        assert stab.contains_group(lst)
        assert stab.order == 2 * lst.order


def test_vertex_stabilizer_rank_matches_brute_oracle():
    stab = R.vertex_stabilizer_image(2, 4)  # order 2^10 = 1024
    assert frattini_rank(stab) == brute_frattini_rank(stab)


def test_rank_gradient_rows():
    rows = R.rank_gradient_table("P", 5)
    by_n = {r.n: r for r in rows}
    assert by_n[1].rg == Fraction(3, 2)
    assert by_n[2].rg == Fraction(5, 4)
    assert by_n[5].rg == Fraction(1, 4)
    for n in range(2, 6):
        assert by_n[n].rg == Fraction(n + 3, 2 ** n)
        assert by_n[n].certified
    with pytest.raises(ValueError):
        R.rank_gradient_table("P", 0)
    with pytest.raises(ValueError):
        R.rank_gradient_table("X", 3)


def test_rank_gradient_recurrence():
    rows = R.rank_gradient_table("P", 6)
    for a, b in zip(rows[1:], rows[2:]):
        assert b.rg / a.rg == Fraction(a.n + 4, 2 * (a.n + 3))


def test_st_chain_rows_are_uncertified_lower_bounds():
    rows = R.rank_gradient_table("st", 4)
    assert all(not r.certified for r in rows)
    assert rows[0].d == 4  # st(1) is 4-generated
    assert [r.index for r in rows] == [2, 8, 128, 4096]


def test_rigidity_report_values():
    rows = R.rank_gradient_table("P", 8)
    report = R.rigidity_report([r for r in rows if r.admissible])
    by_n = {r.n: r for r in report.rows}
    assert math.isclose(by_n[4].ratio, 2 / 3, rel_tol=1e-12)
    assert math.isclose(by_n[8].ratio, 3 / math.log2(12), rel_tol=1e-12)
    assert report.d_min <= 4
    single = R.rigidity_report([by_n[4]])
    assert math.isclose(single.d_min, 1.5, rel_tol=1e-12)


def test_rigidity_report_rejects_inadmissible():
    rows = R.rank_gradient_table("P", 2)
    with pytest.raises(ValueError):
        R.rigidity_report(rows)  # the n=1 row has index 2
    with pytest.raises(ValueError):
        R.rigidity_report([])


def test_sandwich_check_K():
    result = R.normal_sandwich_check("K", 8)
    assert result.n0 == 1
    assert result.all_pass
    assert "modulo" in result.note
    payload = result.to_json()
    assert payload["n0"] == 1 and payload["checks"]


def test_sandwich_check_B():
    result = R.normal_sandwich_check("B", 8)
    assert result.n0 == 1
    assert result.all_pass


def test_sandwich_check_element_closure():
    from grig.elements import Word
    result = R.normal_sandwich_check(Word("abab"), 8)  # closure of t is K
    assert result.n0 == 1 and result.all_pass


def test_sandwich_level_guard():
    with pytest.raises(ValueError):
        R.normal_sandwich_check("K", 6)  # needs level > n0 + 6 = 7


def test_probe_deterministic_and_admissible():
    rows1 = R.conjecture_probe(4, 25, 99)
    rows2 = R.conjecture_probe(4, 25, 99)
    assert R.rows_to_csv(rows1) == R.rows_to_csv(rows2)
    assert all(not r.certified for r in rows1)
    assert all(r.d >= 2 and r.rg > 0 for r in rows1)
    with pytest.raises(ValueError):
        R.conjecture_probe(9, 5, 1)


def test_emitters():
    rows = R.rank_gradient_table("P", 3)
    csv_text = R.rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,d,index,rg_num,rg_den,log2_d,loglog2_index,ratio,certified"
    assert len(lines) == 4
    assert R.rows_to_csv(rows) == csv_text
    js = R.rows_to_json(rows)
    assert '"rg_num": 5' in js
    md = R.rows_to_markdown(rows)
    assert md.startswith("| n | d |")


def test_k_index_against_enumeration():
    # index 16 of K at level 3: the normal closure image has order 8, and
    # plain enumeration of that subgroup agrees
    from conftest import bfs_elements
    k3 = C.k_image(3)
    assert R.index_of("K") == P.level_quotient(3).order // len(
        bfs_elements([g.images for g in k3.generators], 8))
