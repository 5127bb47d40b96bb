"""Per-layer tracing of shufflealg from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer, in
every module namespace that holds them by name, so that a call from any
layer into another opens a span.  A span knows its parent (the span that
was open when it started).  As spans close, the tracer keeps the call count
per function and per (parent, child) pair, and the self time per layer: a
span's duration minus the time its child spans cover.  It aggregates rather
than storing spans, because a round opens millions.

Install only in a process that runs one traced workload: nothing is undone.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> (module, names of the wrapped callables).  Dotted names are
# methods; `mono_mult_table` and `partitions_of` are lru_cache objects.
LAYERS = {
    "kernel": ("K", ["p_add", "p_sub", "p_neg", "p_mul", "p_mul_mono", "p_scale",
                     "p_divexact"]),
    "scalars": ("scalars", [
        "_normalize", "_sympy_gcd",
        "CoefRat.__add__", "CoefRat.__sub__", "CoefRat.__neg__", "CoefRat.__mul__",
        "CoefRat.__truediv__", "CoefRat.__pow__", "CoefRat.__eq__",
        "CoefRat.eval_at", "CoefRat.has_integer_q_degree",
        "CoefRat.from_int", "CoefRat.from_fraction", "CoefRat.monomial",
        "ExactDomain.monomial", "ExactDomain.from_int", "ExactDomain.from_fraction",
        "ExactDomain.q_power"]),
    "symfunc": ("symfunc", [
        "partitions_of", "mono_to_p", "p_to_mono", "mono_mult_table", "basis_convert",
        "m_expand_one_var", "plethystic_substitute", "pexp_coefficients",
        "from_word_multiset",
        "SymFunc.__add__", "SymFunc.__sub__", "SymFunc.__neg__", "SymFunc.__mul__",
        "SymFunc.scale", "SymFunc.__eq__", "SymFunc.h", "SymFunc.e", "SymFunc.from_terms"]),
    "vkspace": ("vkspace", [
        "act_T", "act_dminus", "act_dplus", "act_dplus_star", "act_y",
        "act_y1_from_commutator", "act_z", "act_ytilde", "apply_gen", "apply_word",
        "apply_expr", "spanning_set", "relation_check", "standard_relations",
        "VElem.__add__", "VElem.__sub__", "VElem.__neg__", "VElem.scale", "VElem.__eq__",
        "VElem.one", "VElem.from_symfunc", "VElem.as_symfunc"]),
    "actions": ("actions", [
        "mediant_decompose", "build_action", "lhs_compositional", "op_C", "op_D",
        "c_alpha_constant_term", "c_alpha_identity_check", "nabla_conjugation_check",
        "ActionHandle.dplus", "ActionHandle.dminus", "ActionHandle.T", "ActionHandle.y1",
        "ActionHandle.y", "ActionHandle.word", "ActionTower.handle"]),
    "combinat": ("combinat", [
        "line_height", "enumerate_paths", "touch_composition", "reading_order",
        "attacks", "attack_structure", "area", "dinv", "dinv_geometric", "maxtdinv",
        "statistics", "char_function", "word_enumeration_size", "path_weight",
        "rhs_compositional"]),
    "sweep": ("sweep", [
        "event_sequence", "apply_event", "sweep_path", "dp_events", "recursion_dp",
        "composition_coloring", "assemble_composition", "DpResult.stratum_bounds",
        "DpResult.complete_state"]),
    "braid": ("braid", [
        "make_config", "opnext", "train_up", "train_down", "star", "evaluate",
        "elementary_step", "trajectories", "special_braid", "rule_instance",
        "rewrite_trains", "creation_hom", "safe_height", "coloring_geometry",
        "braid_of_coloring", "braid_of_dp_coloring", "braid_coloring_value",
        "single_strand_braid", "single_strand_family"]),
    "verify": ("verify", [
        "compositions_of", "relations_suite", "sweep_suite", "coloring_suite",
        "braid_formula_suite", "braid_transition_suite", "specialbraids_suite",
        "trains_suite", "braid_presentation_suite", "braid_suite", "creation_suite",
        "run_suite", "verify_shuffle", "_random_admissible_config", "_creation_checks",
        "_dplus_power", "_load_dp_cache", "_compare_entry"]),
}

# Braid geometry: exact strand positions, the special braid and its moves.
GEOMETRY = {"braid.make_config", "braid.opnext", "braid.elementary_step",
            "braid.trajectories", "braid.special_braid", "braid.safe_height",
            "braid.coloring_geometry", "braid.braid_of_coloring",
            "braid.braid_of_dp_coloring"}

VK_OPS = ("act_T", "act_dminus", "act_dplus", "act_dplus_star", "act_y",
          "act_y1_from_commutator", "act_z", "act_ytilde")


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self):
        self.stack: list = []            # open spans: [name, layer, child seconds]
        self.calls: Counter = Counter()  # span name -> calls
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.self_s: defaultdict = defaultdict(float)   # layer -> self seconds
        self.group_s: defaultdict = defaultdict(float)  # group -> outermost span seconds
        self.depth: Counter = Counter()  # group -> open spans of that group
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.mono_mult_table = None

    # -------------------------------------------------------------- wrapping
    def _wrap(self, name, layer, fn, group=None, post=None, pre=None):
        stack = self.stack
        calls = self.calls
        edges = self.edges
        self_s = self.self_s
        group_s = self.group_s
        depth = self.depth

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, layer, 0.0]
            stack.append(span)
            if group is not None:
                depth[group] += 1
            if pre is not None:
                pre(args)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                edges[(parent[0] if parent else None, name)] += 1
                self_s[layer] += dt - span[2]
                if parent is not None:
                    parent[2] += dt
                if group is not None:
                    depth[group] -= 1
                    if not depth[group]:
                        group_s[group] += dt
            if post is not None:
                post(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @staticmethod
    def _counting_init(cls, post):
        orig = cls.__init__

        def __init__(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            post(obj)

        cls.__init__ = __init__

    def install(self) -> None:
        """Wrap every listed callable of the imported shufflealg package.

        A listed name the package no longer has is skipped, so its figures
        read 0 (a deleted layer does no work) and the run still completes.
        """
        pkg = importlib.import_module("shufflealg")
        mods = {name: importlib.import_module(f"shufflealg.{name}")
                for name in ("scalars", "symfunc", "vkspace", "actions", "combinat",
                             "sweep", "braid", "verify")}
        mods["K"] = getattr(mods["scalars"], "K", None)
        holders = [pkg] + [m for key, m in sys.modules.items()
                           if key.startswith("shufflealg.") and m is not None]
        self.mono_mult_table = getattr(mods["symfunc"], "mono_mult_table", None)
        posts = self._posts()
        pres = {"kernel.p_mul": self._pre_p_mul}
        for layer, (modname, names) in LAYERS.items():
            mod = mods[modname]
            for qual in names:
                span = f"{layer}.{qual}"
                group = "braid.geometry" if span in GEOMETRY else \
                    "braid.evaluate" if span == "braid.evaluate" else None
                hooks = (group, posts.get(span), pres.get(span))
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    raw = getattr(getattr(mod, cls_name, None), "__dict__", {}).get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(span, layer, raw.__func__, *hooks))
                    else:
                        wrapped = self._wrap(span, layer, raw, *hooks)
                    setattr(getattr(mod, cls_name), attr, wrapped)
                    continue
                orig = getattr(mod, qual, None)
                if orig is None:
                    continue
                wrapped = self._wrap(span, layer, orig, *hooks)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, attr, wrapped)
        self._install_counters(mods)

    def _install_counters(self, mods) -> None:
        counts, maxima, stack = self.counts, self.maxima, self.stack

        def coefrat(obj):
            counts["scalars.coefrat.created"] += 1
            if len(obj.den) > maxima["scalars.den_terms.max"]:
                maxima["scalars.den_terms.max"] = len(obj.den)

        def dyckpath(obj):
            if stack and stack[-1][0] == "combinat.enumerate_paths":
                counts["combinat.paths.built"] += 1

        def epsrat(obj):
            counts["braid.epsrat.created"] += 1

        def handle(obj):
            counts["actions.handles"] += 1

        for modname, cls_name, post in (("scalars", "CoefRat", coefrat),
                                        ("combinat", "DyckPath", dyckpath),
                                        ("braid", "EpsRat", epsrat),
                                        ("actions", "ActionHandle", handle)):
            cls = getattr(mods[modname], cls_name, None)
            if cls is not None:
                self._counting_init(cls, post)

    def _pre_p_mul(self, args):
        self.counts["kernel.p_mul.term_products"] += len(args[0]) * len(args[1])

    def _posts(self) -> dict:
        counts, maxima = self.counts, self.maxima

        def gcd_post(args, out):
            if out != {0: 1}:
                counts["scalars.gcd.useful"] += 1

        def dp_post(args, out):
            counts["sweep.colorings.final"] += len(out.state)

        def paths_post(args, out):
            counts["combinat.paths.kept"] += len(out)

        def terms_post(args, out):
            if len(out.terms) > maxima["vkspace.terms.peak"]:
                maxima["vkspace.terms.peak"] = len(out.terms)

        posts = {"scalars._sympy_gcd": gcd_post, "sweep.recursion_dp": dp_post,
                 "combinat.enumerate_paths": paths_post}
        for op in VK_OPS:
            posts[f"vkspace.{op}"] = terms_post
        return posts

    # --------------------------------------------------------------- results
    def metrics(self) -> dict:
        """The per-layer figures, as {name: (value, unit)}."""
        c, n = self.calls, self.counts
        gcd_calls = c["scalars._sympy_gcd"]
        built = n["combinat.paths.built"]
        info = getattr(self.mono_mult_table, "cache_info", None)
        # without its lru table every call of mono_mult_table is a miss
        misses = info().misses if info else c["symfunc.mono_mult_table"]
        out = {
            "kernel.p_mul.calls": (c["kernel.p_mul"], "count"),
            "kernel.p_mul.term_products": (n["kernel.p_mul.term_products"], "count"),
            "kernel.p_add.calls": (c["kernel.p_add"], "count"),
            "kernel.p_divexact.calls": (c["kernel.p_divexact"], "count"),
            "scalars.coefrat.created": (n["scalars.coefrat.created"], "count"),
            "scalars.normalize.calls": (c["scalars._normalize"], "count"),
            "scalars.gcd.calls": (gcd_calls, "count"),
            "scalars.gcd.useful_ratio": (n["scalars.gcd.useful"] / gcd_calls
                                         if gcd_calls else 0.0, "ratio"),
            "scalars.den_terms.max": (self.maxima["scalars.den_terms.max"], "count"),
            "symfunc.m_expand_one_var.calls": (c["symfunc.m_expand_one_var"], "count"),
            "symfunc.mono_mult_table.misses": (misses, "count"),
            "symfunc.plethysm.calls": (c["symfunc.plethystic_substitute"], "count"),
            "vkspace.dplus.calls": (c["vkspace.act_dplus"], "count"),
            "vkspace.dminus.calls": (c["vkspace.act_dminus"], "count"),
            "vkspace.T.calls": (c["vkspace.act_T"], "count"),
            "vkspace.dplus_star.calls": (c["vkspace.act_dplus_star"], "count"),
            "vkspace.y.calls": (c["vkspace.act_y"], "count"),
            "vkspace.z.calls": (c["vkspace.act_z"], "count"),
            "vkspace.ytilde.calls": (c["vkspace.act_ytilde"], "count"),
            "vkspace.terms.peak": (self.maxima["vkspace.terms.peak"], "count"),
            "actions.y1.calls": (c["actions.ActionHandle.y1"], "count"),
            "actions.handles": (n["actions.handles"], "count"),
            "combinat.paths.built": (built, "count"),
            "combinat.paths.kept_ratio": (n["combinat.paths.kept"] / built if built else 0.0,
                                          "ratio"),
            "combinat.char_function.calls": (c["combinat.char_function"], "count"),
            "sweep.recursion_dp.calls": (c["sweep.recursion_dp"], "count"),
            "sweep.colorings.final": (n["sweep.colorings.final"], "count"),
            "braid.epsrat.created": (n["braid.epsrat.created"], "count"),
            "braid.geometry_s": (self.group_s["braid.geometry"], "s"),
            "braid.evaluate.calls": (c["braid.evaluate"], "count"),
            "braid.evaluate_s": (self.group_s["braid.evaluate"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def top_edges(self, limit: int = 25) -> list:
        """The most frequent (parent span, span) pairs."""
        return [[parent, name, k] for (parent, name), k in self.edges.most_common(limit)]
