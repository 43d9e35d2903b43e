"""Outside-in tracer: spans around steinervn's layer functions.

The tracer replaces each layer function by a timing wrapper at the module
attribute its callers look up (``steinervn.defect.<name>`` and
``steinervn.norms.<name>``), so nothing under ``src/`` changes.  Every call
becomes a span with its parent, kept in memory in flat arrays; self time is
the span's duration minus the durations of its child spans.  A metric whose
functions were never called is reported as ABSENT, never as 0, so a refactor
that stops calling a layer cannot read as an infinite speed-up.  ABSENT is a
marker, not a measurement: a comparison of two runs must treat a metric that
is ABSENT in either of them as missing (for a lower-is-better time, -1 would
otherwise read as the best value yet).  ``trace.absent``, the count of wrapped
functions never called, is the guard a comparison can check.

Importing this module imports no numpy, so the parent process can import it
without paying for numpy.
"""

import logging
import time
from array import array
from contextlib import contextmanager

ABSENT = -1.0  # marks a per-layer metric whose functions never ran; never compare it

ROOT = "bench.rep"
DESIGNS = ("skolem_construct", "bose_construct", "greedy_construct")

# (module, attribute) pairs wrapped, with the work each span records as
# (items, monomials): blocks built, sign rounds, tuple dimension, or points
# evaluated with the monomials they cost.
PATCHES = (
    ("defect", "skolem_construct", lambda a, kw, out: (out.num_blocks, 0)),
    ("defect", "bose_construct", lambda a, kw, out: (out.num_blocks, 0)),
    ("defect", "greedy_construct", lambda a, kw, out: (out.num_blocks, 0)),
    ("defect", "best_of_signs", lambda a, kw, out: (kw["rounds"] if "rounds" in kw else a[2], 0)),
    ("defect", "build_operators", lambda a, kw, out: (out.dim, 0)),
    ("defect", "contraction_normalize", None),
    ("defect", "polynomial_operator_norm", None),
    ("defect", "linear_combination_sup", None),
    ("defect", "ratio_point", None),
    ("defect", "d32_experiment", None),
    ("defect", "sweep", None),
    ("norms", "estimate_norm", None),
    ("norms", "evaluate_many", lambda a, kw, out: (len(out), len(out) * a[0].num_terms)),
    ("norms", "value_and_partials", lambda a, kw, out: (1, a[0].num_terms)),
    ("norms", "evaluate_compensated", None),
)
CELL_SPANS = ("ratio_point", "d32_experiment")

class _DiscardCounter(logging.Handler):
    """Counts the 'start %d discarded' warnings steinervn.norms logs."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if "discarded" in record.getMessage():
            self.count += 1


class Tracer:
    """Spans of one traced repetition, with the estimates they returned."""

    def __init__(self):
        self.names = [ROOT] + [attr for _, attr, _ in PATCHES]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("d")
        self.monomials = array("d")
        self.estimates = []  # (span index, polynomial, NormEstimate)
        self.discards = _DiscardCounter()
        self._stack = [-1]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.items.append(0.0)
        self.monomials.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, attr, fn, work):
        name_id = self.name_id[attr]
        record_estimate = attr == "estimate_norm"

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                self.items[idx], self.monomials[idx] = work(args, kwargs, out)
            if record_estimate:
                self.estimates.append((idx, args[0], out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Patch every layer function and count discarded starts; undo both on exit."""
        from steinervn import defect, norms

        modules = {"defect": defect, "norms": norms}
        saved = []
        norms_logger = logging.getLogger(norms.__name__)
        try:
            for mod_name, attr, work in PATCHES:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(attr, getattr(mod, attr), work))
            norms_logger.addHandler(self.discards)
            yield self
        finally:
            norms_logger.removeHandler(self.discards)
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def root(self):
        """The root span: the timed region of one repetition."""
        idx = self._open(self.name_id[ROOT])
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- analysis --------------------------------------------------------

    def cell_of(self, idx: int) -> int:
        """Execution-order index of the cell span enclosing span ``idx`` (-1 if none)."""
        cell_ids = {self.name_id[name] for name in CELL_SPANS}
        while idx >= 0 and self.span_name[idx] not in cell_ids:
            idx = self.parent[idx]
        if idx < 0:
            return -1
        return sum(1 for j in range(idx) if self.span_name[j] in cell_ids)

    def metrics(self) -> dict:
        """Per-layer metrics of this repetition (all but trace.overhead_s)."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=names.size)
        items = np.frombuffer(self.items)
        monomials = np.frombuffer(self.monomials)
        ones = np.ones(names.size)

        def spans(*attrs):
            return np.isin(names, [self.name_id[a] for a in attrs])

        def total(values, sel):
            return float(values[sel].sum()) if sel.any() else ABSENT

        def ratio(numer, denom, sel):
            return float(numer[sel].sum()) / float(denom[sel].sum()) if sel.any() else ABSENT

        # The last estimate_norm inside each best_of_signs call is the final tier.
        estimates = spans("estimate_norm")
        in_bos = estimates & nested
        in_bos[in_bos] = names[parent[in_bos]] == self.name_id["best_of_signs"]
        last_child = {parent[idx]: idx for idx in np.flatnonzero(in_bos)}
        final = np.zeros(names.size, dtype=bool)
        final[list(last_child.values())] = True
        iters = np.zeros(names.size)
        for idx, _, est in self.estimates:
            iters[idx] = est.iterations
        starts = sum(est.starts for _, _, est in self.estimates)
        kept = starts - self.discards.count

        designs, ev, vp = spans(*DESIGNS), spans("evaluate_many"), spans("value_and_partials")
        bos, build = spans("best_of_signs"), spans("build_operators")
        out = {
            "designs.construct_s": total(self_s, designs),
            "designs.blocks": total(items, designs),
            "polynomials.evaluate_many.calls": total(ones, ev),
            "polynomials.evaluate_many.s": total(dur, ev),
            "polynomials.evaluate_many.points_per_call": ratio(items, ones, ev),
            "polynomials.evaluate_many.ns_per_monomial": ratio(1e9 * dur, monomials, ev),
            "polynomials.value_and_partials.calls": total(ones, vp),
            "polynomials.value_and_partials.s": total(dur, vp),
            "polynomials.value_and_partials.ns_per_monomial": ratio(1e9 * dur, monomials, vp),
            "polynomials.evaluate_compensated.s": total(dur, spans("evaluate_compensated")),
            "polynomials.best_of_signs.self_s": total(self_s, bos),
            "polynomials.sign_rounds": total(items, bos),
        }
        for tier, sel in (("search", estimates & ~final), ("final", final)):
            out[f"norms.{tier}.calls"] = total(ones, sel)
            out[f"norms.{tier}.self_s"] = total(self_s, sel)
            out[f"norms.{tier}.iters"] = total(iters, sel)
        out["norms.iters_per_start"] = float(iters.sum()) / kept if kept else ABSENT
        out["norms.start_yield"] = kept / starts if starts else ABSENT
        out.update({
            "operators.build_s": total(self_s, build),
            "operators.dim": total(items, build),
            "operators.normalize_s": total(self_s, spans("contraction_normalize")),
            "operators.op_norm_s": total(self_s, spans("polynomial_operator_norm")),
            "operators.lincomb_s": total(self_s, spans("linear_combination_sup")),
            "defect.ratio_point.self_s": total(self_s, spans("ratio_point")),
            "defect.d32.self_s": total(self_s, spans("d32_experiment")),
            "defect.sweep.self_s": total(self_s, spans("sweep")),
        })
        root = spans(ROOT)
        out["trace.coverage"] = float(self_s[~root].sum()) / float(dur[root].sum())
        out["trace.absent"] = len(self.absent())
        return out

    def absent(self) -> list:
        """Wrapped functions that were never called."""
        called = set(self.span_name)
        return [attr for _, attr, _ in PATCHES if self.name_id[attr] not in called]
