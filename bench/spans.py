"""Span tracing at the layer boundaries, from wrappers installed at run time.

Every public function of the seven layer modules is wrapped, in every
diagminors.* namespace that binds it (cli and bases import names with
`from ... import`, and a module calls its own functions through its
globals). A span records its name, its parent, its first start and last
end relative to the op, its call count, its errors and its summed time.

Calls of one function under one parent span share a single span record:
a Buchberger run calls `leading` and `monomial_lcm` hundreds of thousands
of times, and one record per call would not fit in memory. Self time stays
exact under this merge, since a span's self time is its summed duration
minus the summed durations of its children.

Boundary counts are taken from arguments and results as calls return. The
count of column subsets a circuit scan visits is computed after the op,
outside its time, from the matrices matrix_circuits was given.
"""

import functools
import importlib
import inspect
import sys
import time
from math import comb

import checks

LAYERS = ("graphs", "intmat", "binomials", "encoding", "constructions",
          "bases", "cli")

FOCUS = ("graphs.enumerate_cycles", "graphs.classify",
         "graphs.parse_edge_list", "intmat.kernel_lattice_basis",
         "intmat.matrix_circuits", "intmat.is_totally_unimodular",
         "binomials.buchberger", "binomials.toric_gb", "encoding.build_AG",
         "encoding.verify_extreme_rays", "constructions.build_H",
         "constructions.verify_PG_equals_IH", "bases.circuits",
         "bases.graver", "bases.ugb")

COUNTS = ("graphs.cycles_enumerated", "intmat.kernel_dim",
          "intmat.circuit_subsets", "intmat.circuits_found",
          "binomials.gb_elements", "bases.graver_elements",
          "bases.sandwich_gap")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = "s"
        out[layer + ".calls"] = "count"
        out[layer + ".errors"] = "count"
    for name in FOCUS:
        out[name + ".self_s"] = "s"
    for name in COUNTS:
        out[name] = "count"
    out["intmat.circuit_subsets"] = "count-computed"
    out["intmat.circuit_yield"] = "ratio"
    out["bases.ugb_exact_ratio"] = "ratio"
    for outcome in ("timeout", "error", "wrong"):
        out["ops." + outcome] = "count"
    out["trace_overhead_ratio"] = "ratio"
    return out


class Span:
    __slots__ = ("name", "children", "calls", "errors", "total", "first",
                 "last")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = 0
        self.errors = 0
        self.total = 0.0
        self.first = None
        self.last = None


def circuit_subsets(rows, cols):
    """C(cols, k-1) with k = cols - rank: the subsets a scan of the kernel's
    column matroid visits."""
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]}
               for c in range(cols)]
    k = cols - checks.rank(columns)
    return comb(cols, k - 1) if k >= 1 else 0


class Tracer:
    """Wraps the layers, builds one span tree per op and sums the metrics."""

    def __init__(self):
        self.stack = [Span("idle")]
        self.totals = {name: 0 for name in metric_units()}
        self._matrices = []
        self._yield_found = 0
        self._yield_subsets = 0
        self._ugb = [0, 0]
        self._clock = time.perf_counter

    # -------------------------------------------------------- installing
    def install(self):
        importlib.import_module("diagminors.cli")
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("diagminors." + layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(layer + "." + attr, obj))
        for name, mod in list(sys.modules.items()):
            if name != "diagminors" and not name.startswith("diagminors."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name, fn):
        stack = self.stack
        clock = self._clock
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = Span(name)
            if before is not None:
                before(args)
            stack.append(span)
            start = clock()
            if span.first is None:
                span.first = start
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                end = clock()
                span.total += end - start
                span.calls += 1
                span.last = end
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _hooks(self, name):
        totals = self.totals

        def add(metric):
            def after(result):
                totals[metric] += len(result)
            return after

        if name == "graphs.enumerate_cycles":
            return None, add("graphs.cycles_enumerated")
        if name == "intmat.kernel_lattice_basis":
            return None, add("intmat.kernel_dim")
        if name == "binomials.buchberger":
            return None, add("binomials.gb_elements")
        if name == "bases.graver":
            return None, add("bases.graver_elements")
        if name == "intmat.matrix_circuits":
            def before(args):
                self._matrices.append([args[0], None])

            def after(result):
                # The innermost call still open is the one returning.
                for entry in reversed(self._matrices):
                    if entry[1] is None:
                        entry[1] = len(result)
                        break
            return before, after
        if name == "bases.ugb":
            def after(result):
                self._ugb[0] += 1
                if result.status == "exact":
                    self._ugb[1] += 1
                else:
                    totals["bases.sandwich_gap"] += (len(result.upper)
                                                     - len(result.lower))
            return None, after
        return None, None

    # -------------------------------------------------------- per op
    def begin_op(self):
        root = Span("op")
        root.first = self._clock()
        del self.stack[:]
        self.stack.append(root)

    def end_op(self):
        """Close the op's tree, fold it into the totals and return it as a
        flat list of spans, each naming its parent by index."""
        root = self.stack[0]
        root.last = self._clock()
        root.total = root.last - root.first
        root.calls = 1
        del self.stack[:]
        self.stack.append(Span("idle"))
        for matrix, found in self._matrices:
            subsets = circuit_subsets(matrix.entries, matrix.cols)
            self.totals["intmat.circuit_subsets"] += subsets
            if found is not None:
                self.totals["intmat.circuits_found"] += found
                self._yield_found += found
                self._yield_subsets += subsets
        self._matrices = []
        flat = []
        self._fold(root, None, root.first, flat)
        return flat

    def _fold(self, span, parent, origin, flat):
        me = len(flat)
        child_total = sum(c.total for c in span.children.values())
        self_s = span.total - child_total
        # A limit can interrupt a wrapper before it stamps its span.
        first = origin if span.first is None else span.first
        last = first if span.last is None else span.last
        flat.append({"name": span.name, "parent": parent,
                     "start": first - origin, "end": last - origin,
                     "calls": span.calls, "errors": span.errors,
                     "total_s": span.total, "self_s": self_s})
        if parent is not None:
            layer, _, _ = span.name.partition(".")
            self.totals[layer + ".self_s"] += self_s
            self.totals[layer + ".calls"] += span.calls
            self.totals[layer + ".errors"] += span.errors
            if span.name + ".self_s" in self.totals:
                self.totals[span.name + ".self_s"] += self_s
        for child in span.children.values():
            self._fold(child, me, origin, flat)

    def metrics(self, records):
        """Every per-layer metric; trace_overhead_ratio stays 0 here, since
        it needs the untraced run as well."""
        out = dict(self.totals)
        out["intmat.circuit_yield"] = (self._yield_found / self._yield_subsets
                                       if self._yield_subsets else 0.0)
        out["bases.ugb_exact_ratio"] = (self._ugb[1] / self._ugb[0]
                                        if self._ugb[0] else 0.0)
        for outcome in ("timeout", "error", "wrong"):
            out["ops." + outcome] = sum(1 for r in records
                                        if r["status"] == outcome)
        return out
