"""Named elements and subgroups of the tree group, with verifiers for their
conjugation rules and for the branching decompositions of the level and
rigid stabilizers.

The named elements:

* t = (ab)^2, u = (bada)^2 = (t, 1), v = (abad)^2 = (1, t), x0 = (ac)^4;
* x_m = (1, x_{m-1}), u_m = (1, u_{m-1}), v_m = (1, v_{m-1}) for m >= 1
  (u_0 = u, v_0 = v), each supported on the subtree at the vertex 1^m;
* the pair (u, u).

All of these lie in K = <t, u, v>, the normal closure of t, which makes the
nested pair constructions legal: membership in K is decidable on the level-3
quotient because K contains the level-3 stabilizer.

Conjugation rules for the shifted families repeat with period 3 in the index
(conjugating by a generator changes the section one level down by the next
generator in the cycle b -> c -> d).  The v_m rules also hold at m = 0 under
the convention v_{-1} = t; the u_m rule for dd^a needs m >= 1, since
u^(dd^a) = u^-1, not u.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from grig import permgroup
from grig.config import max_level
from grig.elements import (IDENTITY, K_GENERATORS, Pair, Word, conjugate,
                           commutator, invert, is_identity, mul)

T, U, V = K_GENERATORS
X0 = Word("acacacac")
DDA = Word("dada")  # d * d^a

_A, _B, _C, _D = Word("a"), Word("b"), Word("c"), Word("d")


# --- membership in K ---------------------------------------------------------

_K3 = None
_MEMBER_CACHE = {}


def _k3_image():
    """Image of K in the level-3 quotient.  Built once."""
    global _K3
    if _K3 is None:
        _K3 = k_image(3)
    return _K3


def member_of_K(g):
    """Exact membership test for K: since K contains the level-3 stabilizer,
    an element lies in K iff its level-3 image lies in the image of K."""
    key = g.key()
    cached = _MEMBER_CACHE.get(key)
    if cached is None:
        cached = _k3_image().contains(permgroup.image_at_level(g, 3))
        _MEMBER_CACHE[key] = cached
    return cached


# --- named element families --------------------------------------------------

_FAMILY_BASE = {"x": X0, "u": U, "v": V}
_FAMILY_CACHE = {}


def family_element(family, m):
    """x_m, u_m or v_m; index 0 gives the base element, index m >= 1 the
    element acting as the base on the subtree at 1^m and trivially
    elsewhere."""
    if family not in _FAMILY_BASE:
        raise ValueError(f"unknown family {family!r}")
    if not 0 <= m <= max_level():
        raise ValueError(f"family index {m} outside 0..{max_level()}")
    key = (family, m)
    e = _FAMILY_CACHE.get(key)
    if e is None:
        e = _FAMILY_BASE[family] if m == 0 else \
            Pair(IDENTITY, family_element(family, m - 1))
        _FAMILY_CACHE[key] = e
    return e


def pair_uu():
    """The element (u, u)."""
    return Pair(U, U)


def nested_element(vertex, g):
    """Element acting as g on the subtree at ``vertex``, trivially elsewhere;
    g must lie in K (nested pairs certify this on construction)."""
    for ch in reversed(vertex):
        g = Pair(g, IDENTITY) if ch == "0" else Pair(IDENTITY, g)
    return g


_NAME_RE = re.compile(r"^([xuv])([0-9]+)$")


def lookup_name(name):
    """Catalog names for the expression parser; None if unknown."""
    fixed = {"1": IDENTITY, "t": T, "u": U, "v": V, "uu": pair_uu()}
    if name in fixed:
        return fixed[name]
    m = _NAME_RE.match(name)
    if m:
        return family_element(m.group(1), int(m.group(2)))
    return None


# --- subgroup generator lists --------------------------------------------------

def _x_range(n):
    return [family_element("x", i) for i in range(n - 1)]


def subgroup_generators(name, n=None):
    """Exact generator lists of the catalog subgroups.

    K = <t, u, v>; B = Q_1 = <b, t, u, v>; K_n = the 3 * 2^n nested copies of
    t, u, v at the level-n vertices; R_n / Q_n / P_n as recorded, each of
    length n + 4 for n >= 2 (P_1 = <d, c, d^a, c^a>).  The Q_3 list is
    redundant: u_2 = [v_1, x_1 b], so d(Q_3) = 6, not 7.  K, B and K1 take
    no parameter n.  st_n carries no element-level list; reason about it
    through quotients.
    """
    if name in ("K", "B", "K1") and n is not None:
        raise ValueError(f"{name} takes no parameter n, got n = {n}")
    if name == "K":
        return [T, U, V]
    if name == "B":
        return [_B, T, U, V]
    if name == "K1":
        return subgroup_generators("Kn", 1)
    if name == "Kn":
        # the nesting range of family_element, checked before the
        # 3 * 2^n generators are built
        if n is None or not 1 <= n <= max_level():
            raise ValueError(
                f"Kn requires n in 1..{max_level()}, got n = {n}")
        gens = []
        for w in range(1 << n):
            vertex = format(w, f"0{n}b")
            gens.extend(nested_element(vertex, g) for g in (T, U, V))
        return gens
    if name == "st":
        raise ValueError(
            "st(n) has no element-level generator list; use "
            "level_stabilizer_image on a quotient")
    if n is None:
        raise ValueError(f"{name} requires the parameter n")
    if name in ("R", "Q", "P"):
        # the lists use x_i and v_i up to i = n - 2
        top = max_level() + 2
        if not 1 <= n <= top:
            raise ValueError(f"{name} requires n in 1..{top}, got n = {n}")
    if name == "R":
        if n == 1:
            return [T, U, V]
        if n == 2:
            return [X0, U, family_element("u", 1), V, pair_uu()]
        return (_x_range(n)
                + [U, family_element("u", 1), family_element("u", 2)]
                + [family_element("v", n - 2), pair_uu()])
    if name == "Q":
        if n == 1:
            return [_B, T, U, V]
        if n == 2:
            return [_B, X0, U, V, pair_uu()]
        return ([_B] + _x_range(n)
                + [U, family_element("u", 2)]
                + [family_element("v", n - 2), pair_uu()])
    if name == "P":
        if n == 1:
            return [_D, _C, Word("ada"), Word("aca")]
        return ([_C, _D] + _x_range(n)
                + [U, family_element("v", n - 2), pair_uu()])
    raise ValueError(f"unknown subgroup {name!r}")


# --- verification reports ------------------------------------------------------

@dataclass
class CheckEntry:
    id: str
    rule: str
    instantiation: dict
    passed: bool

    def to_json(self):
        return {"id": self.id, "rule": self.rule,
                "instantiation": self.instantiation, "pass": self.passed}


@dataclass
class VerificationReport:
    name: str
    entries: list = field(default_factory=list)

    def add(self, id_, rule, instantiation, passed):
        self.entries.append(CheckEntry(id_, rule, dict(instantiation), passed))

    @property
    def all_pass(self):
        return all(e.passed for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if not e.passed]

    def extend(self, other):
        self.entries.extend(other.entries)

    def to_json(self):
        return [e.to_json() for e in self.entries]

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


# --- conjugation verifier --------------------------------------------------------

def _equal(lhs, rhs):
    return is_identity(mul(lhs, invert(rhs)))


def conjugation_identities(max_m):
    """All conjugation rules as (id, rule, instantiation, lhs, rhs) tuples,
    instantiated for shift indices up to max_m."""
    t, u, v, x0 = T, U, V, X0
    x = lambda m: family_element("x", m)
    uf = lambda m: family_element("u", m)
    vf = lambda m: family_element("v", m)
    ids = []

    def add(id_, rule, inst, lhs, rhs):
        ids.append((id_, rule, inst, lhs, rhs))

    for elem, name, table in (
        (t, "t", [("a", invert(t)), ("b", invert(t)),
                  ("c", mul(invert(t), v)), ("d", mul(invert(v), t)),
                  ("dda", mul(invert(v), t, u))]),
        (u, "u", [("a", v), ("b", invert(u)), ("c", invert(u)),
                  ("d", u), ("dda", invert(u))]),
        (v, "v", [("a", u), ("b", mul(invert(t), invert(v), t)),
                  ("c", mul(invert(t), v, t)), ("d", invert(v)),
                  ("dda", invert(v))]),
        (x0, "x0", [("a", x0), ("b", mul(uf(1), x0)), ("c", x0),
                    ("d", mul(uf(1), x0)), ("dda", mul(pair_uu(), x0))]),
    ):
        for by, rhs in table:
            conj = DDA if by == "dda" else Word(by)
            add(f"{name}^{by}", name, {}, conjugate(elem, conj), rhs)

    def shifted(m, plain, cases):
        """Pick plain x_m or u_{m+1} x_m according to m mod 3 membership."""
        return plain if m % 3 in cases else mul(uf(m + 1), plain)

    for m in range(max_m + 1):
        add(f"x{m}^b", "xm-by-b", {"m": m},
            conjugate(x(m), _B), shifted(m, x(m), {1}))
        add(f"x{m}^c", "xm-by-c", {"m": m},
            conjugate(x(m), _C), shifted(m, x(m), {0}))
        add(f"x{m}^d", "xm-by-d", {"m": m},
            conjugate(x(m), _D), shifted(m, x(m), {2}))

    for m in range(1, max_m + 1):
        lhs = conjugate(x(m), DDA)
        add(f"x{m}^dda", "xm-by-dda", {"m": m},
            lhs, shifted(m, x(m), {2}))
        add(f"x{m}^dda=(1,x{m - 1}^b)", "xm-by-dda-section", {"m": m},
            lhs, Pair(IDENTITY, conjugate(x(m - 1), _B)))

    lhs = conjugate(x(1), x0)
    add("x1^x0=(1,x0^dda)", "x1-by-x0", {},
        lhs, Pair(IDENTITY, conjugate(x0, DDA)))
    add("x1^x0=(1,1,u,u)x1", "x1-by-x0", {},
        lhs, mul(Pair(IDENTITY, pair_uu()), x(1)))

    for mm in range(2, max_m + 1):
        for nn in range(0, mm - 1):
            rhs = x(mm) if (mm - nn) % 3 == 0 else mul(uf(mm + 1), x(mm))
            add(f"x{mm}^x{nn}", "xm-by-xn", {"m": mm, "n": nn},
                conjugate(x(mm), x(nn)), rhs)

    for m in range(max_m + 1):
        rhs = uf(m) if m % 3 == 2 else invert(uf(m))
        add(f"u{m}^b", "um-by-b", {"m": m}, conjugate(uf(m), _B), rhs)

    # the dd^a rule for u_m needs m >= 1: u^(dd^a) = u^-1 at m = 0
    for m in range(1, max_m + 1):
        rhs = uf(m) if m % 3 == 0 else invert(uf(m))
        add(f"u{m}^dda", "um-by-dda", {"m": m}, conjugate(uf(m), DDA), rhs)

    for m in range(max_m + 1):
        prev = vf(m - 1) if m >= 1 else t  # v_{-1} = t
        cases_b = {0: mul(invert(prev), invert(vf(m)), prev),
                   1: mul(invert(prev), vf(m), prev),
                   2: invert(vf(m))}
        add(f"v{m}^b", "vm-by-b", {"m": m},
            conjugate(vf(m), _B), cases_b[m % 3])
        cases_dda = {0: invert(vf(m)),
                     1: mul(invert(prev), invert(vf(m)), prev),
                     2: mul(invert(prev), vf(m), prev)}
        add(f"v{m}^dda", "vm-by-dda", {"m": m},
            conjugate(vf(m), DDA), cases_dda[m % 3])

    return ids


def verify_conjugation_tables(max_m):
    """Check every conjugation rule by forming lhs * rhs^-1 and deciding
    identity; failures become report entries, never exceptions.  The rules
    reach the family index max_m + 1, so max_m stops one short of the level
    guard."""
    top = max_level() - 1
    if not 2 <= max_m <= top:
        raise ValueError(f"--max-m must be in 2..{top}, got {max_m}")
    report = VerificationReport("conjugation")
    for id_, rule, inst, lhs, rhs in conjugation_identities(max_m):
        report.add(id_, rule, inst, _equal(lhs, rhs))
    return report


def verify_generator_redundancies():
    """The discards used when trimming generator lists: u_1 = x0^b x0,
    u_3 = [x0, x2], and u_2 = [v_1, x_1 b], which drops u_2 from the Q_3
    list (so d(Q_3) = 6)."""
    report = VerificationReport("redundancies")
    report.add("u1=x0^b*x0", "q-trim", {},
               _equal(family_element("u", 1), mul(conjugate(X0, _B), X0)))
    report.add("u3=[x0,x2]", "r-trim", {},
               _equal(family_element("u", 3),
                      commutator(X0, family_element("x", 2))))
    report.add("u2=[v1,x1*b]", "q3-trim", {},
               _equal(family_element("u", 2),
                      commutator(family_element("v", 1),
                                 mul(family_element("x", 1), _B))))
    return report


# --- subgroup images and the branching verifier -----------------------------------

def k_image(level):
    """Image of K = <t, u, v> in the level quotient, built by branch
    recursion on the K image at level - 1 (``permgroup.branch_image``)."""
    return permgroup.branch_image(K_GENERATORS, level)


def kn_image(n, level):
    """Image of K_n at the given level, assembled as the direct product of
    the nested K-images (their supports are disjoint)."""
    if level <= n:
        raise ValueError("level must exceed n")
    return permgroup.nested_copies_group(k_image(level - n), n, level)


def subgroup_image(name, n, level):
    gens = subgroup_generators(name, n)
    return permgroup.subgroup(
        level, [permgroup.image_at_level(g, level) for g in gens])


def verify_branching(level):
    """Branching checks inside the level quotient (everything is modulo the
    level stabilizer):

    * the section pairs (k, 1) and (1, k) of K-generators one level up lie
      in the image of K, i.e. psi(K) contains K x K;
    * the image of K_n equals the direct product of the vertex-wise
      K-images, for n = 2, 3;
    * the image of st(n) equals the product of the level-(n - 3) nested
      copies of the st(3)-image, for n = 4, 5.
    """
    if level < 4:
        raise ValueError("level must be at least 4")
    report = VerificationReport("branching")
    q = permgroup.level_quotient(level)

    # by Schreier closure: the branch-built k_image adopts K x K as its
    # seed, so every pair checked here would lie in it by construction
    k_here = subgroup_image("K", None, level)
    ok = True
    identity = permgroup.Permutation.identity(1 << (level - 1))
    for g in (T, U, V):
        img = permgroup.image_at_level(g, level - 1)
        ok = ok and k_here.contains(permgroup.block_pair(img, identity))
        ok = ok and k_here.contains(permgroup.block_pair(identity, img))
    report.add(f"KxK<=psi(K) [level={level}]", "branch-pairs",
               {"level": level}, ok)

    k1 = subgroup_image("K1", None, level)
    st1 = permgroup.level_stabilizer_image(q, 1)
    report.add(f"K1<=st(1) [level={level}]", "branch-sanity",
               {"level": level}, st1.contains_group(k1))

    for n in (2, 3):
        if level - n < 1:
            continue
        direct = kn_image(n, level)
        generated = subgroup_image("Kn", n, level)
        ok = (direct.order == generated.order
              and direct.contains_group(generated))
        report.add(f"Kn-product [n={n}, level={level}]", "branch-rist",
                   {"n": n, "level": level}, ok)

    for n in (4, 5):
        if n > level:
            continue
        st_n = permgroup.level_stabilizer_image(q, n)
        sub_level = level - (n - 3)
        st3_below = permgroup.level_stabilizer_image(
            permgroup.level_quotient(sub_level), 3)
        product = permgroup.nested_copies_group(st3_below, n - 3, level)
        ok = (st_n.order == product.order
              and st_n.contains_group(product))
        report.add(f"st-product [n={n}, level={level}]", "branch-levels",
                   {"n": n, "level": level}, ok)

    return report
