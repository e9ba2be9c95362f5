"""Acceptance criteria, one test and one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 3 certifies d(Q3) = 6, one less than the length of
the seven-element catalog list: the Frattini quotient of the image of Q3
has dimension 6 from level 5 on, so d(Q3) >= 6, and the word problem
shows u_2 = [v_1, x_1 b], so the other six generators already generate
Q3 and d(Q3) <= 6.
"""

import math
import time
from fractions import Fraction

from grig import catalog as C
from grig import elements as E
from grig import permgroup as P
from grig import pgroup as G
from grig import rigidity as R
from grig import suites
from grig.config import raised_level
from grig.pgroup import Lcg


def _report(number, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{tail}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_01_conjugation_tables():
    t0 = time.time()
    report = C.verify_conjugation_tables(8)
    elapsed = time.time() - t0
    failures = [e.id for e in report.failures]
    if len(report.entries) < 100:
        failures.append(f"only {len(report.entries)} identities")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    _report(1, "conjugation tables m,n<=8", failures,
            f"{len(report.entries)} identities in {elapsed:.2f}s")


def test_criterion_02_order_formula():
    t0 = time.time()
    failures = []
    for n, expected in ((1, 2), (2, 8)):
        q = P.level_quotient(n)
        if q.order != expected:
            failures.append(f"order({n})={q.order}")
        if len(P.enumerate_elements(q)) != expected:
            failures.append(f"bfs({n})")
    for n in range(3, 9):
        q = P.level_quotient(n)
        if q.order != 1 << (5 * (1 << (n - 3)) + 2):
            failures.append(f"order({n})")
    if P.level_quotient(8).order != 1 << 162:
        failures.append("n=8 is not 2^162")
    if P.level_quotient(8).degree != 256:
        failures.append("n=8 degree")
    for n in (3, 4):
        q = P.level_quotient(n)
        if len(P.enumerate_elements(q)) != q.order:
            failures.append(f"chain-vs-bfs({n})")
    elapsed = time.time() - t0
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s")
    _report(2, "quotient order formula n=1..8", failures,
            f"{elapsed:.2f}s")


RANK_CASES = (
    [("K", None, 3, 6), ("P", 1, 4, 6), ("Q", 1, 4, 6), ("R", 2, 5, 7),
     ("Q", 2, 5, 7)]
    + [("P", n, n + 4, n + 5) for n in range(2, 6)]
    + [("R", n, n + 4, n + 5) for n in range(3, 6)]
    + [("Q", 3, 6, 8)]
    + [("Q", n, n + 4, n + 5) for n in range(4, 6)]
)


def _generating_list_length(name, n):
    """Length of a generating list of the subgroup: the catalog list, or for
    Q3 the list without u_2, since u_2 = [v_1, x_1 b] is a word in the kept
    generators.  None if that identity fails to hold."""
    gens = C.subgroup_generators(name, n)
    if (name, n) != ("Q", 3):
        return len(gens)
    u2, v1, x1 = (C.family_element(f, m) for f, m in
                  (("u", 2), ("v", 1), ("x", 1)))
    b = E.Word("b")
    kept = {g.key() for g in gens} - {u2.key()}
    if (len(kept) != len(gens) - 1
            or not all(g.key() in kept for g in (v1, x1, b))
            or not E.equal_elements(u2, E.commutator(v1, E.mul(x1, b)))):
        return None
    return len(kept)


def test_criterion_03_certified_ranks():
    failures = []
    for name, n, expected, budget in RANK_CASES:
        w = R.rank_witness(name, n, level_budget=budget)
        label = name if n is None else f"{name}{n}"
        # certified: the image lower bound meets a generating list's length
        certified = w.lower_bound == _generating_list_length(name, n)
        if not (certified and w.lower_bound == expected):
            failures.append(
                f"d({label}): expected certified {expected}, got "
                f"{'certified' if certified else 'uncertified'} "
                f"{w.lower_bound}")
    _report(3, "certified subgroup ranks", failures,
            f"{len(RANK_CASES)} cases")


def test_criterion_04_rank_gradient_exact(p_rows_8):
    rows = p_rows_8
    by_n = {r.n: r for r in rows}
    failures = []
    for n in range(2, 9):
        if by_n[n].rg != Fraction(n + 3, 2 ** n):
            failures.append(f"rg({n})={by_n[n].rg}")
        if not by_n[n].certified:
            failures.append(f"row {n} uncertified")
    for n in range(2, 8):
        if by_n[n + 1].rg / by_n[n].rg != Fraction(n + 4, 2 * (n + 3)):
            failures.append(f"recurrence at {n}")
    _report(4, "rank gradient (n+3)/2^n for n=2..8", failures)


def test_criterion_05_rigidity_constant(p_rows_8):
    rows = [r for r in p_rows_8 if r.admissible]
    report = R.rigidity_report(rows)
    failures = []
    if not (math.isfinite(report.d_min) and report.d_min <= 4):
        failures.append(f"D_min={report.d_min}")
    _report(5, "rigidity constant bound", failures,
            f"D_min={report.d_min:.6f}")


def test_criterion_06_nilpotent_rank_bound():
    report = suites.nilpotent_bound_suite(cases=((4, 100), (5, 20)),
                                          seed=2024)
    failures = [e.id for e in report.failures]
    if len(report.entries) < 120:
        failures.append("fewer than 120 samples")
    _report(6, "nilpotent rank bound on random subgroups", failures,
            f"{len(report.entries)} samples")


def test_criterion_07_branching():
    failures = []
    for level in (4, 5, 6):
        report = C.verify_branching(level)
        failures.extend(e.id for e in report.failures)
        ids = {e.id for e in report.entries}
        if f"KxK<=psi(K) [level={level}]" not in ids:
            failures.append(f"missing pair check at {level}")
    report6 = C.verify_branching(6)
    ids6 = {e.id for e in report6.entries}
    for wanted in ("Kn-product [n=2, level=6]", "Kn-product [n=3, level=6]",
                   "st-product [n=4, level=6]", "st-product [n=5, level=6]"):
        if wanted not in ids6:
            failures.append(f"missing {wanted}")
    _report(7, "branching decompositions", failures)


def test_criterion_08_sandwich():
    failures = []
    for target, n0_expected in (("K", 1), ("K2", 3), ("K3", 4)):
        level = n0_expected + 7
        with raised_level(level):
            result = R.normal_sandwich_check(target, level)
        if result.n0 != n0_expected:
            failures.append(f"n0({target})={result.n0}")
        failures.extend(e.id for e in result.report.failures)
    _report(8, "normal subgroup sandwich", failures,
            "n0 = 1, 3, 4 at levels 8, 10, 11")


def test_criterion_09_semidirect_rank_identity():
    failures = []
    level = 6
    # toy: dihedral of order 8 on one tree level
    h = P.subgroup(2, [P.Permutation([2, 3, 1, 0])])
    rep = G.semidirect_rank_identity(h, P.Permutation([1, 0, 2, 3]))
    if not (rep.holds and rep.lhs == 2):
        failures.append(f"dihedral: {rep.lhs}!={rep.rhs}")
    # extension of R_2 by b: both sides 5
    r2 = C.subgroup_image("R", 2, level)
    rep = G.semidirect_rank_identity(r2, P.image_at_level(E.Word("b"), level))
    if not (rep.holds and rep.lhs == 5):
        failures.append(f"R2 by b: {rep.lhs}/{rep.rhs}")
    # extension of R_3 by b: the identity must hold (both sides are 6)
    r3 = C.subgroup_image("R", 3, level)
    rep = G.semidirect_rank_identity(r3, P.image_at_level(E.Word("b"), level))
    if not rep.holds:
        failures.append(f"R3 by b: {rep.lhs}!={rep.rhs}")
    # extension of K x R_2 by x0 gives the rank-7 group: both sides 7
    kr2 = [P.image_at_level(C.nested_element("0", g), level)
           for g in C.subgroup_generators("K")]
    kr2 += [P.image_at_level(E.Pair(E.IDENTITY, g, _trusted=True), level)
            for g in C.subgroup_generators("R", 2)]
    rep = G.semidirect_rank_identity(P.subgroup(level, kr2),
                                     P.image_at_level(C.X0, level))
    if not (rep.holds and rep.lhs == 7):
        failures.append(f"KxR2 by x0: {rep.lhs}/{rep.rhs}")
    _report(9, "semidirect rank identity", failures,
            "values 5, 6, 7 and the order-8 toy")


def test_criterion_10_word_problem_soundness():
    rng = Lcg(1234)
    failures = []
    trivial = 0
    for i in range(1000):
        length = 1 + rng.next_below(30)
        letters = "".join("abcd"[rng.next_below(4)] for _ in range(length))
        w = E.Word(letters)
        if E.is_identity(w):
            trivial += 1
            if not P.image_at_level(w, 10).is_identity():
                failures.append(f"false trivial: {letters}")
        else:
            if all(P.image_at_level(w, k).is_identity()
                   for k in range(1, 11)):
                failures.append(f"no witness level: {letters}")
    _report(10, "word problem soundness", failures,
            f"{trivial} trivial among 1000 words")
