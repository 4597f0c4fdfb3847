"""Tracer for the benchmark's traced run.

It wraps the public functions and methods of each layer module from outside
(src/ is not touched) and records, per wrapped call:

- a count under the target's key;
- inclusive time under the key, and self time under the target's layer
  (duration minus the time spent in nested wrapped calls), so helpers that
  are not wrapped (intpoly, fixtures, errors) count inside their callers;
- for coarse targets only, a span (id, name, start, end, parent id, query id).
  Hot element operations keep aggregated counters and timers instead, so
  memory stays bounded.  Spans stay in memory until the run ends.

A few counters are measured where the work happens: divisor_candidates is
the number of right_divmod calls made directly by monic_right_divisors, and
pairs_evaluated the number of norm_det calls made directly by
min_det_sample.  dual_candidates is the search space |R|^n of each
brute_force_dual call, and *_found the length of the results.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("number_ring", "skew", "codes", "lattice", "spacetime", "cli")


def _targets():
    """(layer, module, qualified name, counter key, span) of every wrapped name."""
    out = []

    def add(layer, module, names, span=False):
        for name, key in names.items():
            out.append((layer, module, name, f"{layer}.{key}", span))

    add("number_ring", "number_ring", {
        "QuotientRing.__init__": "build",
        "QuotientRing.coerce": "coerce",
        "QuotientRing.sigma": "sigma",
        "QuotientRing.inverse": "inverse",
        "QuotientRing.element": "element",
        "QuotientRing.from_int": "from_int",
        "QuotientRing.zero": "const",
        "QuotientRing.one": "const",
        "QuotientRing.gen": "const",
        "QuotientRing.u": "const",
        "QuotientRing.__eq__": "ring_eq",
        "RingElement.__add__": "add",
        "RingElement.__radd__": "add",
        "RingElement.__sub__": "sub",
        "RingElement.__rsub__": "sub",
        "RingElement.__neg__": "neg",
        "RingElement.__mul__": "mul",
        "RingElement.__rmul__": "mul",
        "RingElement.__pow__": "pow",
        "RingElement.__eq__": "eq",
        "RingElement.__bool__": "bool",
        "RingElement.to_list": "to_list",
    })
    add("skew", "skew", {
        "SkewPoly.__init__": "build",
        "SkewPoly.__add__": "add",
        "SkewPoly.__radd__": "add",
        "SkewPoly.__sub__": "sub",
        "SkewPoly.__rsub__": "sub",
        "SkewPoly.__neg__": "neg",
        "SkewPoly.__mul__": "mul",
        "SkewPoly.__rmul__": "mul",
        "SkewPoly.__eq__": "eq",
        "SkewPoly.right_divmod": "right_divmod",
        "SkewPoly.left_divmod": "left_divmod",
        "SkewPoly.mod_central": "mod_central",
        "SkewPoly.padded_coeffs": "padded_coeffs",
        "SkewPoly.to_lists": "to_lists",
        "central_poly": "central_poly",
        "opposite": "opposite",
    })
    add("skew", "skew", {"monic_right_divisors": "monic_right_divisors"}, span=True)
    add("codes", "codes", {
        "ConstacyclicCode.encode": "encode",
        "ConstacyclicCode.is_codeword": "is_codeword",
        "ConstacyclicCode.to_poly": "to_poly",
        "ConstacyclicCode.to_codeword": "to_codeword",
        "ConstacyclicCode.shift": "shift",
        "ConstacyclicCode.dual_generator": "dual_generator",
        "ConstacyclicCode.__eq__": "eq",
        "ConstacyclicCode.to_dict": "to_dict",
        "inner_product": "inner_product",
    })
    add("codes", "codes", {
        "ConstacyclicCode.from_generator": "from_generator",
        "ConstacyclicCode.dual_code": "dual_code",
        "ConstacyclicCode.is_self_dual": "is_self_dual",
        "brute_force_dual": "brute_force_dual",
    }, span=True)
    add("lattice", "lattice", {
        "NaturalOrder.__init__": "order_build",
        "NaturalOrder.ok_mul": "ok_mul",
        "NaturalOrder.ok_sigma": "ok_sigma",
        "NaturalOrder.ok_trace": "ok_trace",
        "NaturalOrder.ok_conj": "ok_conj",
        "NaturalOrder.ok_norm": "ok_norm",
        "NaturalOrder.element": "element",
        "NaturalOrder.from_flat": "from_flat",
        "NaturalOrder.basis_element": "basis_element",
        "OrderElement.__add__": "add",
        "OrderElement.__radd__": "add",
        "OrderElement.__sub__": "sub",
        "OrderElement.__neg__": "neg",
        "OrderElement.__mul__": "mul",
        "OrderElement.__rmul__": "mul",
        "OrderElement.__eq__": "eq",
        "OrderElement.flatten": "flatten",
        "OrderElement.to_lists": "to_lists",
        "lift_codeword": "lift_codeword",
        "reduce_element": "reduce_element",
        "det_int": "det_int",
        "lattice_contains": "lattice_contains",
    })
    add("lattice", "lattice", {
        "hnf": "hnf",
        "gram_matrix": "gram_matrix",
        "construction_a_basis": "construction_a_basis",
        "dual_lattice_basis": "dual_lattice_basis",
    }, span=True)
    add("spacetime", "spacetime", {
        "SpaceTimeMatrix.__init__": "build",
        "SpaceTimeMatrix.__add__": "add",
        "SpaceTimeMatrix.__sub__": "sub",
        "SpaceTimeMatrix.__mul__": "mul",
        "SpaceTimeMatrix.__eq__": "eq",
        "SpaceTimeMatrix.det": "det",
        "SpaceTimeMatrix.norm_det": "norm_det",
        "matrix_rep": "matrix_rep",
        "right_multiplication_det": "right_multiplication_det",
        "sample_offsets": "sample_offsets",
    })
    add("spacetime", "spacetime", {
        "min_det_sample": "min_det_sample",
        "coset_encode": "coset_encode",
        "coset_decode_label": "coset_decode_label",
    }, span=True)
    add("cli", "cli", {"load_config": "load_config"}, span=True)
    add("cli", "cli", {
        f"cmd_{c}": "handler"
        for c in ("divisors", "code", "dual", "lattice", "stmatrix", "mindet",
                  "coset_encode", "coset_decode", "verify_examples")
    }, span=True)
    return out


TARGETS = _targets()

# (callee key, immediate caller key) -> counter
CALLER_COUNTS = {
    ("skew.right_divmod", "skew.monic_right_divisors"): "divisor_candidates",
    ("spacetime.norm_det", "spacetime.min_det_sample"): "pairs_evaluated",
}


# key -> counters from the call's arguments and result
RESULT_COUNTS = {
    "skew.monic_right_divisors": lambda args, result: {"divisors_found": len(result)},
    "codes.brute_force_dual": lambda args, result: {
        "dual_candidates": args[0].ring.size ** args[0].n,
        "dual_found": len(result),
    },
}


class TraceError(RuntimeError):
    """The traced run is not valid: a wrapped name the workload uses saw no call."""


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.counts = {}
        self.total_s = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = []  # (id, name, start, end, parent id, query id)
        self.cli_samples = {"import_ms": [], "load_config_ms": [], "handler_ms": []}
        self.query = None
        self._stack = []  # frames: [key, child time]
        self._span_stack = []
        self._patches = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, layer, key, span):
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        counts, total_s, self_s = self.counts, self.total_s, self.self_s
        clock = time.perf_counter
        tracer = self
        counts.setdefault(key, 0)
        total_s.setdefault(key, 0.0)
        by_caller = {caller: c for (callee, caller), c in CALLER_COUNTS.items() if callee == key}
        result_counts = RESULT_COUNTS.get(key)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if by_caller and parent is not None and parent[0] in by_caller:
                name = by_caller[parent[0]]
                counts[name] = counts.get(name, 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            if span:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled on exit
                parent_span = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                counts[key] += 1
                total_s[key] += elapsed
                self_s[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if span:
                    span_stack.pop()
                    spans[span_id] = (span_id, key, start, end, parent_span, tracer.query)
            if result_counts:
                for name, value in result_counts(args, result).items():
                    counts[name] = counts.get(name, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target, in its class or in every skewlat module holding it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "skewlat"]
        for layer, module_name, qualname, key, span in TARGETS:
            module = sys.modules.get(f"skewlat.{module_name}")
            if module is None:  # not imported by this workload (cli in-process)
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, key, span))
                elif isinstance(raw, property):
                    new = property(self._wrap(raw.fget, layer, key, span))
                else:
                    new = self._wrap(raw, layer, key, span)
                setattr(owner, attr, new)
                self._patches.append((owner, attr, raw))
                continue
            raw = getattr(module, qualname)
            new = self._wrap(raw, layer, key, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, new)
                        self._patches.append((mod, name, raw))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is raw:
                                value[k] = new
                                self._patches.append((value, k, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # -- queries -------------------------------------------------------

    def begin_query(self, query_id, label):
        """Open the benchmark's own span around one query."""
        self.query = query_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(span_id)
        self._stack.append([f"query:{label}", 0.0])
        return span_id

    def end_query(self, span_id, label, start, end):
        self._stack.pop()
        self._span_stack.pop()
        self.spans[span_id] = (span_id, f"query:{label}", start, end, None, self.query)
        self.query = None

    def check_uses(self, keys):
        missing = [k for k in keys if not self.counts.get(k)]
        if missing:
            raise TraceError("wrapped names recorded no calls: " + ", ".join(missing))

    # -- traced command-line children ----------------------------------

    def child_dump_path(self):
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        return self.trace_dir / f"child-{os.getpid()}-{len(self.spans)}.json"

    def dump(self, path, import_s):
        data = {
            "counts": self.counts,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "spans": self.spans,
            "import_s": import_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def merge_child(self, path):
        """Fold a traced child's dump into this tracer, under the open query span."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in data["total_s"].items():
            self.total_s[key] = self.total_s.get(key, 0.0) + value
        for layer, value in data["self_s"].items():
            self.self_s[layer] += value
        base = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        for sid, name, start, end, sparent, _ in data["spans"]:
            self.spans.append(
                (base + sid, name, start, end, parent if sparent is None else base + sparent, self.query)
            )
        total = data["total_s"]
        handler = total.get("cli.handler", 0.0)
        samples = self.cli_samples
        samples["import_ms"].append(data["import_s"] * 1000)
        if "cli.load_config" in total:
            samples["load_config_ms"].append(total["cli.load_config"] * 1000)
        samples["handler_ms"].append(handler * 1000)

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)

    # -- per-layer metrics ---------------------------------------------

    def layer_metrics(self, overhead_ratio):
        """Every per-layer metric as (value, unit)."""
        c = self.counts.get
        t = self.total_s.get

        def ratio(hits, tries):
            return hits / tries if tries else 0.0

        def med(name):
            values = self.cli_samples[name]
            return statistics.median(values) if values else 0.0

        def count(key):
            return (c(key, 0), "count")

        return {
            "number_ring.mul_calls": count("number_ring.mul"),
            "number_ring.sigma_calls": count("number_ring.sigma"),
            "number_ring.inverse_calls": count("number_ring.inverse"),
            "number_ring.coerce_calls": count("number_ring.coerce"),
            "number_ring.ring_builds": count("number_ring.build"),
            "number_ring.self_s": (self.self_s["number_ring"], "s"),
            "skew.mul_calls": count("skew.mul"),
            "skew.right_divmod_calls": count("skew.right_divmod"),
            "skew.divisor_candidates": count("divisor_candidates"),
            "skew.divisors_found": count("divisors_found"),
            "skew.divisor_hit_ratio": (
                ratio(c("divisors_found", 0), c("divisor_candidates", 0)), "ratio"),
            "skew.self_s": (self.self_s["skew"], "s"),
            "codes.from_generator_calls": count("codes.from_generator"),
            "codes.encode_calls": count("codes.encode"),
            "codes.is_codeword_calls": count("codes.is_codeword"),
            "codes.inner_product_calls": count("codes.inner_product"),
            "codes.dual_candidates": count("dual_candidates"),
            "codes.dual_hit_ratio": (
                ratio(c("dual_found", 0), c("dual_candidates", 0)), "ratio"),
            "codes.self_s": (self.self_s["codes"], "s"),
            "lattice.order_builds": count("lattice.order_build"),
            "lattice.ok_mul_calls": count("lattice.ok_mul"),
            "lattice.hnf_calls": count("lattice.hnf"),
            "lattice.hnf_s": (t("lattice.hnf", 0.0), "s"),
            "lattice.det_int_calls": count("lattice.det_int"),
            "lattice.det_int_s": (t("lattice.det_int", 0.0), "s"),
            "lattice.gram_s": (t("lattice.gram_matrix", 0.0), "s"),
            "lattice.self_s": (self.self_s["lattice"], "s"),
            "spacetime.matrix_rep_calls": count("spacetime.matrix_rep"),
            "spacetime.pairs_evaluated": count("pairs_evaluated"),
            "spacetime.det_s": (t("spacetime.det", 0.0), "s"),
            "spacetime.coset_encode_calls": count("spacetime.coset_encode"),
            "spacetime.coset_decode_calls": count("spacetime.coset_decode_label"),
            "spacetime.self_s": (self.self_s["spacetime"], "s"),
            "cli.import_ms": (med("import_ms"), "ms"),
            "cli.load_config_ms": (med("load_config_ms"), "ms"),
            "cli.handler_ms": (med("handler_ms"), "ms"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
