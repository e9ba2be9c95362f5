"""Rank witnesses, indexes, rank-gradient tables, and the rigidity
relationship between log(rank) and log log(index) along subgroup chains.

A rank witness certifies d(H) for a catalog subgroup by squeezing it between
a lower bound (the Frattini rank of the image of H in a deep enough level
quotient, which can only grow with the level) and an upper bound (the length
of H's generator list).  When they meet, the rank is exact.

Gradient rows are exact rationals (d - 1) / index; logs are base-2 doubles
used only in the rigidity ratios, which never feed back into an exact value.
The vertex-stabilizer chain P_n has index 2^n and rank n + 4 for n >= 2, so
its rows are (n + 3) / 2^n.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from grig import catalog, permgroup
from grig.catalog import VerificationReport
from grig.config import max_level
from grig.pgroup import Lcg, frattini_rank, random_subgroup

STABILIZER_RANK_DEPTH = 3  # st-chain ranks probed this many levels down


def quotient_order_formula(n):
    """Closed form for the order of the level-n quotient; n >= 3."""
    if n < 3:
        raise ValueError("the closed form applies for n >= 3")
    return 1 << (5 * (1 << (n - 3)) + 2)


def index_of(name, n=None):
    """Exact index of a catalog subgroup, with the stated verification:
    P_n by the orbit of the vertex 1^n, st(n) by the chain order against the
    closed form, K and K_n by the index of their images in a quotient deep
    enough to be faithful (they contain the corresponding level stabilizer).
    """
    if name == "P":
        q = permgroup.level_quotient(n)
        leaf = (1 << n) - 1
        orbit = q.orbit(leaf)
        if len(orbit) != 1 << n:
            raise AssertionError("level transitivity failed")
        return 1 << n
    if name == "st":
        order = permgroup.level_quotient(n).order
        if n >= 3 and order != quotient_order_formula(n):
            raise AssertionError(
                f"chain order of level quotient {n} deviates from the "
                f"closed form")
        return order
    if name == "K":
        q3 = permgroup.level_quotient(3)
        return q3.order // catalog.k_image(3).order
    if name in ("Kn", "K1"):
        nn = 1 if name == "K1" else n
        level = nn + 3
        q = permgroup.level_quotient(level)
        return q.order // catalog.kn_image(nn, level).order
    raise ValueError(f"index_of does not support {name!r}")


@dataclass
class RankWitness:
    name: str
    n: int | None
    lower_bound: int
    upper_bound: int
    witness_level: int
    certified: bool
    history: list = field(default_factory=list)

    def to_json(self):
        return {
            "subgroup": self.name, "n": self.n,
            "lower_bound": self.lower_bound, "upper_bound": self.upper_bound,
            "witness_level": self.witness_level, "certified": self.certified,
            "history": self.history,
        }


def default_budget(name, n):
    if name == "K":
        return 6
    if name in ("P", "R", "Q"):
        return (n or 1) + 5
    return max_level()


def rank_witness(name, n=None, level_budget=None):
    """Certify the rank of a catalog subgroup with a generator list.

    Climbs level quotients until the Frattini rank of the image reaches the
    generator count (then the rank is exactly that) or the budget runs out
    (then only the best lower bound is reported, flagged uncertified).
    """
    gens = catalog.subgroup_generators(name, n)
    upper = len(gens)
    budget = min(level_budget or default_budget(name, n), max_level())
    lower = 0
    witness_level = 0
    history = []
    for m in range(1, budget + 1):
        d = frattini_rank(catalog.subgroup_image(name, n, m))
        history.append((m, d))
        if d < lower:
            raise AssertionError(
                "rank lower bound decreased with the level; the quotient "
                "tower is inconsistent")
        if d > lower:
            lower, witness_level = d, m
        if lower == upper:
            return RankWitness(name, n, lower, upper, witness_level, True,
                               history)
    return RankWitness(name, n, lower, upper, witness_level, False, history)


@dataclass
class RankGradientRow:
    n: int
    d: int
    index: int
    rg: Fraction
    certified: bool
    source: str = "chain"

    @property
    def log2_d(self):
        return math.log2(self.d)

    @property
    def loglog2_index(self):
        return math.log2(math.log2(self.index))

    @property
    def admissible(self):
        """Rows feeding rigidity ratios need log log(index) and log(d) to be
        positive, i.e. index >= 4 and d >= 2."""
        return self.index >= 4 and self.d >= 2

    @property
    def ratio(self):
        if not self.admissible:
            return None
        return self.loglog2_index / self.log2_d

    def to_json(self):
        return {
            "n": self.n, "d": self.d, "index": str(self.index),
            "rg_num": self.rg.numerator, "rg_den": self.rg.denominator,
            "log2_d": self.log2_d if self.d >= 1 else None,
            "loglog2_index": self.loglog2_index if self.index >= 2 else None,
            "ratio": self.ratio,
            "certified": self.certified,
        }


def _row(n, d, index, certified, source="chain"):
    return RankGradientRow(n, d, index, Fraction(d - 1, index), certified,
                           source)


def rank_gradient_table(chain="P", n_max=8, level_budget=None):
    """Gradient rows along a descending chain of finite-index subgroups.

    chain "P": vertex stabilizers, with certified ranks from rank_witness;
    an uncertified rank raises rather than being used silently.
    chain "st": level stabilizers, whose ranks are reported as image lower
    bounds only (they have no finite generator list here) and flagged as
    uncertified.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    if chain == "P":
        for n in range(1, n_max + 1):
            w = rank_witness("P", n, level_budget)
            if not w.certified:
                raise RuntimeError(
                    f"rank of the level-{n} vertex stabilizer did not "
                    f"certify within the level budget; deepest bound "
                    f"{w.lower_bound} at level {w.witness_level}")
            rows.append(_row(n, w.lower_bound, index_of("P", n), True))
        return rows
    if chain == "st":
        for n in range(1, n_max + 1):
            probe_level = min(n + STABILIZER_RANK_DEPTH, max_level())
            if probe_level <= n:
                break
            q = permgroup.level_quotient(probe_level)
            d = frattini_rank(permgroup.level_stabilizer_image(q, n))
            rows.append(_row(n, d, index_of("st", n), False, source="st"))
        return rows
    raise ValueError(f"unknown chain {chain!r}")


@dataclass
class RigidityReport:
    rows: list
    ratios: list
    d_min: float

    def to_json(self):
        return {
            "rows": [r.to_json() for r in self.rows],
            "ratios": self.ratios,
            "D_min": self.d_min,
        }


def rigidity_report(rows):
    """Smallest D with 1/D * log(d) <= log log(index) <= D * log(d) across
    the rows; base-2 logs.  Rows must be admissible (index >= 4, d >= 2)."""
    if not rows:
        raise ValueError("no rows")
    ratios = []
    for row in rows:
        if not row.admissible:
            raise ValueError(
                f"row n={row.n} has index {row.index} or rank {row.d} too "
                f"small for the double-log ratio")
        ratios.append(row.ratio)
    d_min = max(max(r, 1.0 / r) for r in ratios)
    return RigidityReport(list(rows), ratios, d_min)


# --- normal-subgroup sandwich checks -----------------------------------------

@dataclass
class SandwichReport:
    target: str
    level: int
    n0: int
    report: VerificationReport
    note: str = ("all containments are certified modulo the stabilizer of "
                 "the stated level only")

    @property
    def all_pass(self):
        return self.report.all_pass

    def to_json(self):
        return {"target": self.target, "level": self.level, "n0": self.n0,
                "note": self.note, "checks": self.report.to_json()}


def _target_image(target, level):
    if isinstance(target, str):
        if target == "K":
            return catalog.k_image(level), "K"
        if target == "B":
            return catalog.subgroup_image("B", None, level), "B"
        m = target
        if m.startswith("K") and m[1:].isdigit():
            nn = int(m[1:])
            return catalog.kn_image(nn, level), target
        raise ValueError(f"unsupported sandwich target {target!r}")
    q = permgroup.level_quotient(level)
    img = permgroup.image_at_level(target, level)
    return permgroup.normal_closure(q, [img]), "normal-closure"


def fixed_level_depth(group):
    """Largest k such that the group fixes every level-k vertex (modulo the
    ambient level): min over generators of the first level they act on,
    minus one."""
    n0 = group.level
    for g in group.generators:
        for k in range(1, group.level + 1):
            if not permgroup.collapse_to_level(g, k).is_identity():
                n0 = min(n0, k - 1)
                break
    return n0


def normal_sandwich_check(target, level):
    """Locate a normal subgroup N between level stabilizers and rigid level
    stabilizers, working modulo the level-``level`` stabilizer:

    * n0 = the largest n with N <= st(n) (N is not inside st(n0 + 1));
    * part (a): the image of st(n0 + 6) is contained in the image of N;
    * part (b), when n0 >= 4: the K_{n0+3}-image is contained in N's image,
      which is contained in the K_{n0-3}-image.
    """
    n_img, label = _target_image(target, level)
    if n_img.is_trivial():
        raise ValueError("target is trivial modulo the chosen level")
    n0 = fixed_level_depth(n_img)
    if level <= n0 + 6:
        raise ValueError(
            f"level {level} too shallow: need level > n0 + 6 = {n0 + 6}")
    report = VerificationReport("sandwich")
    q = permgroup.level_quotient(level)

    st_deep = permgroup.level_stabilizer_image(q, n0 + 6)
    report.add(f"st({n0 + 6})<=N [{label}]", "sandwich-a",
               {"n0": n0, "level": level}, n_img.contains_group(st_deep))

    if n0 >= 4:
        lower = catalog.kn_image(n0 + 3, level)
        upper = catalog.kn_image(n0 - 3, level)
        report.add(f"K{n0 + 3}<=N [{label}]", "sandwich-b-lower",
                   {"n0": n0, "level": level}, n_img.contains_group(lower))
        report.add(f"N<=K{n0 - 3} [{label}]", "sandwich-b-upper",
                   {"n0": n0, "level": level}, upper.contains_group(n_img))

    return SandwichReport(label, level, n0, report)


# --- vertex stabilizers --------------------------------------------------------

def vertex_stabilizer_image(n, level):
    """Image of the full stabilizer of the vertex 1^n in a level quotient,
    by Schreier's lemma over the 2^n-point orbit of 1^n.  This is the
    subgroup of index exactly 2^n whose rank the toolkit can probe
    independently of any generator list."""
    if level < n:
        raise ValueError("level must be at least n")
    q = permgroup.level_quotient(level)
    img = permgroup.vertex_stabilizer(q, n, (1 << n) - 1)
    if q.order != img.order * (1 << n):
        raise AssertionError("vertex stabilizer has unexpected index")
    return img


# --- conjecture probe ---------------------------------------------------------

def conjecture_probe(level, samples, seed):
    """Sample subgroups of a level quotient and record (rank of the image,
    index in the quotient).  Each sampled subgroup pulls back to a
    finite-index subgroup containing the level stabilizer, whose true rank
    is at least the recorded one, so the rows are lower-bound evidence only
    and are flagged as uncertified."""
    if not 3 <= level <= 6:
        raise ValueError("probe levels 3..6 are supported")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    q = permgroup.level_quotient(level)
    rng = Lcg(seed)
    rows = []
    for i in range(samples):
        k = 1 + rng.next_below(4)
        sub_seed = rng.next_below(1 << 32)
        h = random_subgroup(q, k, sub_seed)
        d = frattini_rank(h)
        index = q.order // h.order
        if d >= 2:  # rows carry rg > 0; d <= 1 samples cannot form a row
            rows.append(_row(level, d, index, False, source="probe"))
    return rows


# --- emission -----------------------------------------------------------------

CSV_HEADER = ["n", "d", "index", "rg_num", "rg_den", "log2_d",
              "loglog2_index", "ratio", "certified"]


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _cells(row):
    """The CSV_HEADER columns of a row, formatted for CSV and Markdown."""
    return [
        _fmt(row.n), _fmt(row.d), _fmt(row.index), _fmt(row.rg.numerator),
        _fmt(row.rg.denominator),
        _fmt(row.log2_d if row.d >= 1 else None),
        _fmt(row.loglog2_index if row.index >= 2 else None),
        _fmt(row.ratio), _fmt(row.certified),
    ]


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(_cells(r))
    return buf.getvalue()


def rows_to_json(rows):
    return json.dumps([r.to_json() for r in rows], sort_keys=True)


def rows_to_markdown(rows):
    lines = ["| " + " | ".join(CSV_HEADER) + " |",
             "|" + "---|" * len(CSV_HEADER)]
    for r in rows:
        lines.append("| " + " | ".join(_cells(r)) + " |")
    return "\n".join(lines) + "\n"
