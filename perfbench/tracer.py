"""In-memory span tracer that wraps homlab's public functions from outside.

`Tracer.install()` replaces each traced function at every place it is
bound by name: the defining module and every `homlab.*` module that
imported it (for example `homlab.inequalities.hom` and
`homlab.scan.check_bst`), plus class attributes for `RadicalSum` methods.
`Tracer.uninstall()` puts every original back.  Spans are plain tuples
kept in a list and written out only by the caller, at the end of a run.

A span is (name, start, end, parent, cell, attrs): `parent` is the index of
the enclosing span or -1, `cell` the id of the scan cell or lemma instance
being decided (None outside one), `attrs` a small dict or None.
"""

import sys
import time
from math import lcm

# (module, attribute, span name); a class attribute is "Class.method".
SPAN_TARGETS = (
    ("homlab.counting", "hom", "counting.hom"),
    ("homlab.counting", "biclique_kernel_sum", "counting.biclique_kernel_sum"),
    ("homlab.counting", "hom_clique", "counting.hom_clique"),
    ("homlab.power", "compare_power_products", "power.compare_power_products"),
    ("homlab.power", "compare_radical_products", "power.compare_radical_products"),
    ("homlab.power", "RadicalSum.sign", "power.RadicalSum.sign"),
    ("homlab.ratmath", "factorize", "ratmath.factorize"),
    ("homlab.inequalities", "check_reverse_sidorenko", "inequalities.check_reverse_sidorenko"),
    ("homlab.inequalities", "check_clique_max", "inequalities.check_clique_max"),
    ("homlab.inequalities", "check_bst", "inequalities.check_bst"),
    ("homlab.lemmas", "check_local_lemma", "lemmas.check_local_lemma"),
    ("homlab.lemmas", "random_lemma_instance", "lemmas.random_lemma_instance"),
    ("homlab.scan", "run_scan", "scan.run_scan"),
    ("homlab.scan", "check_instance", "scan.check_instance"),
    ("homlab.scan", "emit_report", "scan.emit_report"),
    ("homlab.scan", "materialize_models", "scan.materialize_models"),
    ("homlab.fileio", "report_to_dict", "fileio.report_to_dict"),
    ("homlab.graphs", "enumerate_graphs", "graphs.enumerate_graphs"),
)
# Called too often for a span each; only counted.
COUNT_TARGETS = (("homlab.power", "RadicalSum.__mul__", "power.RadicalSum.mul"),)

# Spans that open a new cell: one scan cell or one lemma instance each.
CELL_SPANS = ("scan.check_instance", "lemmas.check_local_lemma")


def power_product_bits(lhs, rhs) -> int:
    """Bit-size estimate of clearing lhs / rhs into integers: the exponent
    lcm times each base's size, as the comparator's exact path pays it."""
    merged = {}
    for base, exponent in lhs.factors:
        merged[base] = merged.get(base, 0) + exponent
    for base, exponent in rhs.factors:
        merged[base] = merged.get(base, 0) - exponent
    diff = [(b, e) for b, e in merged.items() if e != 0 and b != 1]
    if not diff:
        return 0
    scale = lcm(*(e.denominator for _, e in diff))
    return sum(abs(int(e * scale)) * max(b.numerator.bit_length(), b.denominator.bit_length()) for b, e in diff)


def kernel_key(args):
    """Distinctness key of a biclique_kernel_sum call: the kernel's values,
    the sizes and exponents, and the two measures."""
    f, size1, size2, a, b = args[:5]
    w1 = args[5] if len(args) > 5 else None
    w2 = args[6] if len(args) > 6 else None
    table = tuple(tuple(f(x, y) for y in range(size2)) for x in range(size1))
    return (table, a, b, None if w1 is None else tuple(w1), None if w2 is None else tuple(w2))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._cell = None
        self._next_cell = 0
        self._scan = None  # index of the open run_scan span
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _attrs(self, name, args, result):
        if name == "power.compare_power_products":
            return {"exact": bool(result.exact), "bits": power_product_bits(args[0], args[1])}
        if name == "counting.biclique_kernel_sum":
            return {"key": (self._scan,) + kernel_key(args)}
        if name == "lemmas.check_local_lemma":
            return {"id": args[0].lemma_id}
        if name == "inequalities.check_clique_max":
            return {"n": args[0].n}
        if name == "graphs.enumerate_graphs":
            return {"out": len(result)}
        return None

    def _span_wrapper(self, name, original):
        tracer = self
        eager = name == "graphs.enumerate_graphs"  # a generator: consume it inside the span
        opens_cell = name in CELL_SPANS

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)  # direct recursion: one span
            parent = stack[-1] if stack else -1
            outer_cell = tracer._cell
            if opens_cell:
                tracer._cell = tracer._next_cell
                tracer._next_cell += 1
            index = len(tracer.spans)
            tracer.spans.append((name,))  # completed when the call returns
            stack.append(index)
            outer_scan = tracer._scan
            if name == "scan.run_scan":
                tracer._scan = index
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._scan = outer_scan
                tracer.spans[index] = (name, start, end, parent, tracer._cell, None)
                tracer._cell = outer_cell
            attrs = tracer._attrs(name, args, result)
            if attrs is not None:
                tracer.spans[index] = tracer.spans[index][:5] + (attrs,)
            return iter(result) if eager else result

        return wrapper

    def _count_wrapper(self, name, original):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, attr, name in SPAN_TARGETS:
                self._patch(module_name, attr, lambda orig, name=name: self._span_wrapper(name, orig))
            for module_name, attr, name in COUNT_TARGETS:
                self._patch(module_name, attr, lambda orig, name=name: self._count_wrapper(name, orig))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            self._patches.append((cls, method, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "homlab" or mod_name.startswith("homlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# -- span arithmetic ------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def covered_time(spans, start: float, end: float) -> float:
    """Length of [start, end] covered by at least one top-level span."""
    intervals = sorted((max(s[1], start), min(s[2], end)) for s in spans if s[3] < 0)
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
