"""Per-layer call tracing (spans) for the kernel benchmark.

`Tracer.install` replaces chosen kernel functions and methods with
counting and timing wrappers: methods are replaced on their class, and a
module function is rebound in every loaded kernel module that holds it
(``sqrt_nonneg`` is imported by name into four modules, for example).
Nothing under ``src/`` changes.  Each wrapper opens a span on one stack,
so a span's self time is its duration minus the time of the spans it
opened directly.  Spans are folded into per-function totals as they
close, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("nafield", "field", "geometry", "constructions", "audit", "kripke")

# What each layer exposes to the tracer: (class name or None, attribute).
_NAFIELD = (
    [("Poly", m) for m in ("__add__", "__neg__", "__sub__", "__mul__",
                           "scale", "divmod")]
    + [("RatFunc", m) for m in ("__init__", "__eq__", "__add__", "__radd__",
                                "__neg__", "__sub__", "__rsub__", "__mul__",
                                "__rmul__", "__truediv__", "__rtruediv__",
                                "sign", "valuation", "sqrt_exact", "shadow")]
    + [(None, f) for f in ("poly_gcd", "poly_sqrt", "frac_sqrt")]
)
_FIELD = (
    [("FieldElement", m) for m in ("_binop", "__neg__", "__rsub__",
                                   "__rtruediv__", "__pow__", "__eq__",
                                   "__lt__", "__le__", "__gt__", "__ge__",
                                   "is_zero", "sign", "valuation")]
    + [(None, f) for f in ("sqrt_nonneg", "inv_positive", "compare",
                           "render_element", "approx")]
)
_GEOMETRY = (
    [("Point", "__eq__")]
    + [(None, f) for f in (
        "pt", "vsub", "dot", "cross", "sqdist", "padd", "pscale", "midpoint",
        "reflect_in_point", "rot90", "positive", "collinear", "between",
        "nonstrict_between", "congruent", "distinct", "on_ray", "right_angle",
        "pos_angle", "angle_lt_pi", "angle_cong", "distinct_witness",
        "apex_witness", "angle_witness", "verify_witness", "predicate_eval")]
)
CONSTRUCTION_PRIMITIVES = (
    "ext", "ext_strict", "inner_pasch", "outer_pasch", "euclid5",
    "line_circle", "circle_circle", "lay_off", "line_intersect",
    "crossbar_point", "angle_bisect",
)
_CONSTRUCTIONS = (
    [("CircleSpec", "sq_radius")]
    + [(None, f) for f in CONSTRUCTION_PRIMITIVES + (
        "_project", "_angle_guard", "_post", "_record", "equilateral",
        "midpoint_gupta", "named_angle_tiling", "perpendicular", "reflect",
        "angle_copy")]
)
_AUDIT = [(None, f) for f in ("gen_instance", "check_axiom",
                              "gen_theorem_instance", "check_theorem",
                              "_verdict", "_refused", "_mk_off")]
_KRIPKE = [(None, f) for f in ("forces", "teval", "na_classify",
                               "node0_positive", "in_domain",
                               "check_ef_axioms", "mp_counterexample",
                               "_sample_element", "_unbounded_probe")]
TARGETS = {"nafield": _NAFIELD, "field": _FIELD, "geometry": _GEOMETRY,
           "constructions": _CONSTRUCTIONS, "audit": _AUDIT,
           "kripke": _KRIPKE}

_WITNESS_FNS = ("distinct_witness", "apex_witness", "angle_witness",
                "verify_witness")


class Tracer:
    """Span stack plus per-function totals for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, name, child_s]
        # (layer, name) -> [calls, self_s, inclusive_s]
        self.totals: dict[tuple[str, str], list] = {}
        self.count = {k: 0 for k in (
            "binop.d0", "binop.d1", "binop.d2", "binop.mixed", "sqrt.new",
            "ratfunc.unit_den", "refusals", "constructions.entries",
            "domain_rejections")}
        self.binop_s = [0.0, 0.0, 0.0]
        self.max_depth = 0
        self.max_degree = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, on_enter=None, on_result=None,
             on_error=None):
        """A stand-in for `fn` that records one span per call."""
        total = self.totals.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def close(frame, t0) -> float:
            dur = clock() - t0
            stack.pop()
            total[0] += 1
            total[1] += dur - frame[2]
            total[2] += dur
            if stack:
                stack[-1][2] += dur
            return dur

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                close(frame, t0)
                if on_error is not None:
                    on_error(err)
                raise
            dur = close(frame, t0)
            if on_result is not None:
                on_result(args, result, dur)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, kernel: dict) -> None:
        """Wrap the targets of every layer in `kernel` (name -> module)."""
        for layer in LAYERS:
            mod = kernel[layer]
            for owner_name, attr in TARGETS[layer]:
                hooks = self._hooks(kernel, layer, owner_name, attr)
                if owner_name is None:
                    fn = getattr(mod, attr)
                    wrapped = self.wrap(layer, attr, fn, **hooks)
                    for other in kernel.values():
                        for key, val in list(vars(other).items()):
                            if val is fn:
                                self._set(other, key, wrapped)
                else:
                    cls = getattr(mod, owner_name)
                    fn = cls.__dict__[attr]
                    self._set(cls, attr, self.wrap(
                        layer, f"{owner_name}.{attr}", fn, **hooks))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    def _set(self, owner, key, val) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, val)

    def _hooks(self, kernel: dict, layer: str, owner: str | None,
               attr: str) -> dict:
        """Extra counting for the few spans that feed a named metric."""
        count = self.count
        if (owner, attr) == ("FieldElement", "_binop"):
            field_element = kernel["field"].FieldElement

            def binop_done(args, result, dur):
                da = len(args[0].tower)
                other = args[1]
                db = len(other.tower) if isinstance(other, field_element) else 0
                bucket = min(max(da, db), 2)
                count[f"binop.d{bucket}"] += 1
                self.binop_s[bucket] += dur
                if da != db:
                    count["binop.mixed"] += 1
                if isinstance(result, field_element):
                    self.max_depth = max(self.max_depth, len(result.tower))
            return {"on_result": binop_done}
        if (owner, attr) == (None, "sqrt_nonneg"):
            def sqrt_done(args, result, dur):
                depth = len(result.tower)
                if depth > len(args[0].tower):
                    count["sqrt.new"] += 1
                self.max_depth = max(self.max_depth, depth)
            return {"on_result": sqrt_done}
        if (owner, attr) == ("RatFunc", "__init__"):
            def ratfunc_new(args):
                den = args[2] if len(args) > 2 else None
                if den is None or den.c == (1,):
                    count["ratfunc.unit_den"] += 1

            def ratfunc_done(args, result, dur):
                rf = args[0]
                self.max_degree = max(self.max_degree, rf.num.degree(),
                                      rf.den.degree())
            return {"on_enter": ratfunc_new, "on_result": ratfunc_done}
        if layer == "constructions":
            # a refusal is a guard exception that leaves the layer
            refusal = (kernel["constructions"].ConstructionError,
                       kernel["geometry"].NotPositiveAngle)

            def entered(args):
                if not self.stack or self.stack[-1][0] != "constructions":
                    count["constructions.entries"] += 1

            def refused(err):
                if isinstance(err, refusal) and (
                        not self.stack or self.stack[-1][0] != "constructions"):
                    count["refusals"] += 1
            return {"on_enter": entered, "on_error": refused}
        if (owner, attr) == (None, "forces"):
            violation = kernel["kripke"].DomainViolation

            def rejected(err):
                if isinstance(err, violation) and (
                        not self.stack or self.stack[-1][1] != "forces"):
                    count["domain_rejections"] += 1
            return {"on_error": rejected}
        return {}

    # -- results --------------------------------------------------------------

    def _sum(self, layer: str, names=None, index: int = 0):
        return sum(t[index] for (ly, nm), t in self.totals.items()
                   if ly == layer and (names is None or nm in names))

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (name -> number), as listed in BENCHMARK.json."""
        c = self.count
        m: dict[str, float] = {}
        # nafield
        ratfunc_new = self.totals[("nafield", "RatFunc.__init__")][0]
        m["nafield.calls"] = self._sum("nafield")
        m["nafield.self_s"] = self._sum("nafield", index=1)
        m["nafield.ratfunc_new"] = ratfunc_new
        m["nafield.unit_den_ratio"] = _ratio(c["ratfunc.unit_den"], ratfunc_new)
        m["nafield.poly_gcd_calls"] = self.totals[("nafield", "poly_gcd")][0]
        m["nafield.max_degree"] = self.max_degree
        # field
        binops = [c["binop.d0"], c["binop.d1"], c["binop.d2"]]
        m["field.calls"] = self._sum("field")
        m["field.self_s"] = self._sum("field", index=1)
        for d in range(3):
            m[f"field.binop.d{d}.calls"] = binops[d]
        for d in range(3):
            m[f"field.binop.d{d}.us"] = _ratio(1e6 * self.binop_s[d], binops[d])
        m["field.mixed_depth_ratio"] = _ratio(c["binop.mixed"], sum(binops))
        for fn in ("sign", "valuation"):
            calls, self_s, _ = self.totals[("field", f"FieldElement.{fn}")]
            m[f"field.{fn}.calls"] = calls
            m[f"field.{fn}.self_s"] = self_s
        m["field.valuation.incl_s"] = self.totals[
            ("field", "FieldElement.valuation")][2]
        sqrt_calls = self.totals[("field", "sqrt_nonneg")][0]
        m["field.sqrt_nonneg.calls"] = sqrt_calls
        m["field.sqrt_nonneg.new_node_ratio"] = _ratio(c["sqrt.new"], sqrt_calls)
        m["field.max_depth"] = self.max_depth
        # geometry
        m["geometry.calls"] = self._sum("geometry")
        m["geometry.self_s"] = self._sum("geometry", index=1)
        m["geometry.witness.calls"] = self._sum("geometry", _WITNESS_FNS)
        # constructions
        m["constructions.calls"] = self._sum("constructions")
        m["constructions.self_s"] = self._sum("constructions", index=1)
        m["constructions.refusals"] = c["refusals"]
        m["constructions.refusal_ratio"] = _ratio(
            c["refusals"], c["constructions.entries"])
        for fn in CONSTRUCTION_PRIMITIVES:
            m[f"constructions.{fn}.self_s"] = self.totals[("constructions", fn)][1]
        # audit
        m["audit.gen.self_s"] = self._sum(
            "audit", ("gen_instance", "gen_theorem_instance"), 1)
        m["audit.check.self_s"] = self._sum(
            "audit", ("check_axiom", "check_theorem"), 1)
        # kripke
        m["kripke.forces.calls"] = self.totals[("kripke", "forces")][0]
        m["kripke.forces.self_s"] = self.totals[("kripke", "forces")][1]
        m["kripke.teval.self_s"] = self.totals[("kripke", "teval")][1]
        m["kripke.domain_rejections"] = c["domain_rejections"]
        return m

    def table(self) -> list[dict]:
        """Per-function totals, busiest first, for the trace file."""
        rows = [{"layer": ly, "fn": nm, "calls": t[0], "self_s": t[1]}
                for (ly, nm), t in self.totals.items() if t[0]]
        rows.sort(key=lambda r: -r["self_s"])
        return rows


def _ratio(num, den) -> float:
    return num / den if den else 0.0
