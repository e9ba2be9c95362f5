"""Verification suites: each bundles checks from the computational modules
into a VerificationReport with one entry per checked fact.

These are the machine-checkable statements the toolkit exists to verify:
the conjugation tables, the branching decompositions, the quotient order
formula, the certified subgroup ranks, the stabilizer sandwich around a
normal subgroup, and the nilpotent rank bound on random subgroups.
"""

from __future__ import annotations

from grig import catalog, permgroup, rigidity
from grig.catalog import VerificationReport
from grig.config import raised_level, require_level
from grig.pgroup import (Lcg, frattini_rank, lower_central_series,
                         random_subgroup)

SANDWICH_TARGETS = ("K", "K2", "K3")


def conjugation_suite(max_m=8):
    report = catalog.verify_conjugation_tables(max_m)
    report.extend(catalog.verify_generator_redundancies())
    return report


def branching_suite(levels=(4, 5, 6)):
    report = VerificationReport("branching")
    for level in levels:
        report.extend(catalog.verify_branching(level))
    return report


def orders_suite(n_max=8):
    """Chain orders of the level quotients against the closed form
    2^(5 * 2^(n-3) + 2) for n >= 3 (2 and 8 at n = 1, 2), with a
    brute-force enumeration cross-check where it is feasible."""
    require_level(n_max)
    report = VerificationReport("orders")
    for n in range(1, n_max + 1):
        q = permgroup.level_quotient(n)
        expected = (2 if n == 1 else 8 if n == 2
                    else rigidity.quotient_order_formula(n))
        report.add(f"order(level {n})", "order-formula",
                   {"n": n, "expected": str(expected)}, q.order == expected)
        if q.order <= permgroup.BFS_GUARD:
            count = len(permgroup.enumerate_elements(q))
            report.add(f"bfs-count(level {n})", "order-oracle",
                       {"n": n}, count == q.order)
    return report


# certified ranks of the catalog subgroups
RANK_EXPECTATIONS = (
    [("K", None, 3), ("P", 1, 4), ("Q", 1, 4), ("R", 2, 5), ("Q", 2, 5)]
    + [("P", n, n + 4) for n in range(2, 6)]
    + [("R", n, n + 4) for n in range(3, 6)]
    + [("Q", n, n + 4) for n in range(4, 6)]
)


def ranks_suite(expectations=RANK_EXPECTATIONS):
    report = VerificationReport("ranks")
    for name, n, expected in expectations:
        w = rigidity.rank_witness(name, n)
        label = name if n is None else f"{name}{n}"
        report.add(f"d({label})={expected}", "rank-witness",
                   {"subgroup": label, "expected": expected,
                    "witness_level": w.witness_level},
                   w.certified and w.lower_bound == expected)
    # Q3's 7-element list is redundant: its Frattini quotient has dimension
    # 6, and u_2 = [v_1, x_1 b] (the q3-trim entry of the conjugation suite),
    # so the list without u_2 generates Q3 and d(Q3) = 6.  The witness
    # still reports lower bound 6, uncertified against the 7-element list;
    # the suite checks those computed facts.
    w = rigidity.rank_witness("Q", 3)
    report.add("d(Q3): image rank 6, list redundant", "rank-witness",
               {"subgroup": "Q3", "lower_bound": w.lower_bound,
                "certified": w.certified},
               w.lower_bound == 6 and not w.certified)
    return report


def sandwich_suite(targets=SANDWICH_TARGETS, expected_n0=(1, 3, 4)):
    """Sandwich checks at level n0 + 7 for the catalog normal subgroups;
    the K3 case needs a level-11 quotient, so the level guard is raised for
    its duration."""
    report = VerificationReport("sandwich")
    for target, n0_expected in zip(targets, expected_n0):
        level = n0_expected + 7
        try:
            with raised_level(level):
                result = rigidity.normal_sandwich_check(target, level)
        except ValueError as exc:
            report.add(f"n0({target})={n0_expected}", "sandwich-depth",
                       {"target": target, "level": level,
                        "error": str(exc)}, False)
            continue
        report.add(f"n0({target})={n0_expected}", "sandwich-depth",
                   {"target": target, "level": level,
                    "computed": result.n0}, result.n0 == n0_expected)
        report.extend(result.report)
    return report


def nilpotent_bound_suite(cases=((4, 100), (5, 20)), seed=2024):
    """d(H) <= d(G)^c for seeded random subgroups of level quotients."""
    report = VerificationReport("nilpotent-bound")
    rng = Lcg(seed)
    for level, count in cases:
        q = permgroup.level_quotient(level)
        d_q = frattini_rank(q)
        c = lower_central_series(q).nilpotency_class
        bound = d_q ** c
        for i in range(count):
            k = 1 + rng.next_below(4)
            h = random_subgroup(q, k, rng.next_below(1 << 32))
            d_h = frattini_rank(h) if not h.is_trivial() else 0
            report.add(f"rank-bound[level={level},i={i}]", "nilpotent-bound",
                       {"level": level, "k": k, "d_H": d_h, "bound": bound},
                       d_h <= bound)
    return report


SUITES = {
    "conjugation": lambda args: conjugation_suite(args.get("max_m", 8)),
    "branching": lambda args: branching_suite(),
    "orders": lambda args: orders_suite(args.get("level", 8)),
    "ranks": lambda args: ranks_suite(),
    "sandwich": lambda args: sandwich_suite(),
    "nilpotent-bound": lambda args: nilpotent_bound_suite(
        seed=args.get("seed", 2024)),
}


def run_suite(name, **args):
    if name == "all":
        require_level(args.get("level", 8))  # before any suite starts work
        report = VerificationReport("all")
        for key in SUITES:
            report.extend(SUITES[key](args))
        return report
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](args)
