"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each grig module from outside
the package: every call becomes a span (name, start, end, parent) kept in
flat in-memory arrays and summarised once, when the timed phase ends.  A
span's self time is its duration minus the time its child spans cover; the
self times of all spans of one module add up to that module's layer time.

Functions are replaced wherever a grig module bound them by name
(``from grig._kernel import compose`` makes a binding per importer), so
``patch_function`` scans every loaded ``grig.*`` module for the original
object.  Targets that no longer exist are skipped and listed in
``missing``.
"""

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("kernel", "permgroup", "pgroup", "catalog", "rigidity", "elements")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counters = {}
        self.missing = []
        self._restore = []

    # --- recording -----------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    @contextmanager
    def span(self, name):
        """Span opened by the benchmark itself around a call into a layer."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """Span-recording stand-in for ``fn``.  ``before(args)`` returns a
        token handed to ``after(args, result, token)``; both run outside the
        timed interval of the span."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result, token)
            return result

        return traced

    # --- patching ------------------------------------------------------------

    def patch_function(self, module_name, attr, name, before=None, after=None):
        """Replace ``module.attr`` in every grig module that bound it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        traced = self.wrap(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "grig"
                                   or mod_name.startswith("grig.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def patch_method(self, module_name, cls_name, attr, name, before=None,
                     after=None):
        module = sys.modules.get(module_name)
        cls = getattr(module, cls_name, None) if module else None
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None or not callable(original):
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, self.wrap(original, name, before, after))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- summary -------------------------------------------------------------

    def summary(self, root):
        """Per-name calls, inclusive seconds (outermost spans of a name only)
        and self seconds, plus self seconds per layer, over the spans under
        the top-level span named ``root``."""
        n = len(self.span_start)
        name, parent = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        top = list(range(n))  # parents are recorded before their children
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                top[i] = top[p]
        root_id = self._name_ids.get(root)
        per_name = {}
        spans = 0
        for i in range(n):
            if name[top[i]] != root_id:
                continue
            spans += 1
            nid = name[i]
            row = per_name.setdefault(self.names[nid],
                                      {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:  # not nested inside a span of the same name
                row["s"] += dur[i]
        layers = {}
        for nm, row in per_name.items():
            layer = nm.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return per_name, layers, spans


def install_grig_probes(tracer):
    """Wrap the module entry points the per-layer metrics are read from."""
    count = tracer.count

    # kernel: the names as imported by permgroup, pgroup and grig._kernel
    def after_compose(args, result, token):
        count("kernel.compose.bytes_computed", 12 * len(args[0]))

    def after_strip(args, result, token):
        start = args[6] if len(args) > 6 else 0
        if start > 0:  # sifting a Schreier candidate during closure
            count("permgroup.schreier.strips")
            if result < len(args[1]):
                count("permgroup.schreier.new")

    tracer.patch_function("grig._kernel", "compose", "kernel.compose",
                          after=after_compose)
    tracer.patch_function("grig._kernel", "inverse", "kernel.inverse")
    tracer.patch_function("grig._kernel", "strip", "kernel.strip",
                          after=after_strip)

    # permgroup: chain writes and reads, closures, images
    def before_pivots(args):
        return args[0].npivots

    def after_insert(args, result, token):
        if result:
            count("permgroup.insert.new")
        after_pivots(args, result, token)

    def after_pivots(args, result, token):
        chain = args[0]
        added = chain.npivots - token
        count("permgroup.pivots", added)
        count("permgroup.pivot_bytes_computed", added * chain.degree * 8)

    pg = "grig.permgroup"
    tracer.patch_method(pg, "PivotChain", "insert", "permgroup.insert",
                        before=before_pivots, after=after_insert)
    tracer.patch_method(pg, "PivotChain", "adopt", "permgroup.adopt",
                        before=before_pivots, after=after_pivots)
    tracer.patch_method(pg, "PermGroup", "__init__", "permgroup.group_init")
    tracer.patch_method(pg, "PermGroup", "contains", "permgroup.contains")
    for fn in ("normal_closure", "image_at_level", "level_stabilizer_image",
               "nested_copies_group"):
        tracer.patch_function(pg, fn, f"permgroup.{fn}")

    tracer.patch_function("grig.pgroup", "frattini_rank",
                          "pgroup.frattini_rank")
    tracer.patch_function("grig.pgroup", "frattini_subgroup",
                          "pgroup.frattini_subgroup")

    for fn in ("subgroup_image", "kn_image", "k_image", "member_of_K",
               "subgroup_generators"):
        tracer.patch_function("grig.catalog", fn, f"catalog.{fn}")

    def after_witness(args, result, token):
        count("rigidity.rank_witness.levels", len(result.history))

    tracer.patch_function("grig.rigidity", "rank_witness",
                          "rigidity.rank_witness", after=after_witness)
    tracer.patch_function("grig.rigidity", "index_of", "rigidity.index_of")
    tracer.patch_function("grig.rigidity", "rank_gradient_table",
                          "rigidity.rank_gradient_table")

    tracer.patch_function("grig.elements", "is_identity",
                          "elements.is_identity")
    tracer.patch_function("grig.elements", "equal_elements",
                          "elements.equal_elements")


def layer_metrics(tracer, root, counters, traced_wall):
    """The per-layer block of one traced phase (the spans under ``root``,
    with the counters taken during it), and the per-name span summary it is
    read from."""
    per_name, layers, nspans = tracer.summary(root)
    c = counters

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def secs(name):
        return per_name.get(name, {}).get("s", 0.0)

    strips = c.get("permgroup.schreier.strips", 0)
    out = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "kernel.strip.calls": calls("kernel.strip"),
        "kernel.strip.s": secs("kernel.strip"),
        "kernel.compose.calls": calls("kernel.compose"),
        "kernel.compose.s": secs("kernel.compose"),
        "kernel.inverse.calls": calls("kernel.inverse"),
        "kernel.compose.bytes_computed":
            c.get("kernel.compose.bytes_computed", 0),
        "permgroup.insert.calls": calls("permgroup.insert"),
        "permgroup.insert.new": c.get("permgroup.insert.new", 0),
        "permgroup.insert.s": secs("permgroup.insert"),
        "permgroup.pivots": c.get("permgroup.pivots", 0),
        "permgroup.pivot_bytes_computed":
            c.get("permgroup.pivot_bytes_computed", 0),
        "permgroup.schreier.strips": strips,
        "permgroup.schreier.yield":
            c.get("permgroup.schreier.new", 0) / strips if strips else 0.0,
        "permgroup.contains.calls": calls("permgroup.contains"),
        "permgroup.contains.s": secs("permgroup.contains"),
        "permgroup.normal_closure.calls": calls("permgroup.normal_closure"),
        "permgroup.normal_closure.s": secs("permgroup.normal_closure"),
        "permgroup.image_at_level.calls": calls("permgroup.image_at_level"),
        "permgroup.image_at_level.s": secs("permgroup.image_at_level"),
        "pgroup.frattini_rank.calls": calls("pgroup.frattini_rank"),
        "pgroup.frattini_rank.s": secs("pgroup.frattini_rank"),
        "catalog.subgroup_image.s": secs("catalog.subgroup_image"),
        "rigidity.rank_witness.calls": calls("rigidity.rank_witness"),
        "rigidity.rank_witness.levels":
            c.get("rigidity.rank_witness.levels", 0),
        "rigidity.index_of.s": secs("rigidity.index_of"),
        "elements.is_identity.calls": calls("elements.is_identity"),
        "elements.is_identity.s": secs("elements.is_identity"),
        "elements.equal_elements.s": secs("elements.equal_elements"),
        "bench.self_s": layers.get("bench", 0.0),
        "trace.wall_s": traced_wall,
        "trace.spans": nspans,
        "trace.accounted_frac":
            sum(layers.get(layer, 0.0) for layer in LAYERS) / traced_wall,
    })
    for n in (8, 9, 10):
        out[f"permgroup.level_quotient.L{n}_s"] = \
            secs(f"permgroup.level_quotient.L{n}")
    return out, per_name
