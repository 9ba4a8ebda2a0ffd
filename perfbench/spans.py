"""Span tracing from outside the package.

`install(tracer)` rebinds, in each module, the name its callers actually
use to a wrapper that records a span (name, start, end, parent, operation
id) or bumps a counter.  Spans stay in memory until `write_spans`; self time
is a span's duration minus the part of it its child spans cover.
`uninstall(tracer)` restores every original binding.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import oracles


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._saved = []           # (owner, attribute, original binding)

    def span(self, name: str, fn, on_result=None, on_args=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, out)
            return out
        return wrapper

    def counter(self, name: str, fn, raises=None):
        """Count calls, and separately calls that raise `raises`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except raises or ():
                self.counts[name + ".raised"] += 1
                raise
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def self_ms(self) -> dict:
        """Total self time per span name, in milliseconds."""
        child_cover = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                # children run inside their parent on one thread and never
                # overlap each other, so their durations add up
                child_cover[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child_cover[i]) * 1e3
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def _patch(tr: Tracer, owner, attr: str, wrapper) -> None:
    tr._saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def _span_all(tr: Tracer, name: str, owners, attr: str, **hooks) -> None:
    """One wrapper around the shared original, bound under every owner."""
    wrapped = tr.span(name, getattr(owners[0], attr), **hooks)
    for owner in owners:
        _patch(tr, owner, attr, wrapped)


def install(tr: Tracer) -> None:
    import scipy.optimize
    from stratdef import (capacity, cli, constructions, families, intervals,
                          learn, solve, transform)
    from stratdef import formula as fm

    _span_all(tr, "formula.parse", [fm], "parse")
    _span_all(tr, "formula.to_graph_form", [fm], "to_graph_form")
    _span_all(tr, "formula.classify_fragment", [fm], "classify_fragment")

    def sqrt2_bits(t, args, kwargs):
        key = "intervals.sqrt2_enclosure.max_bits"
        t.counts[key] = max(t.counts[key], args[0])
        return args, kwargs
    _span_all(tr, "intervals.sqrt2_enclosure", [constructions, intervals],
              "sqrt2_enclosure", on_args=sqrt2_bits)
    _span_all(tr, "intervals.exp_enclosure", [solve, intervals],
              "exp_enclosure")
    # certified decisions: an UndecidedComparison escaping one of them is
    # an undecided comparison at the precision cap
    from stratdef.intervals import UndecidedComparison
    for owner, attr in ((constructions, "in_open_interval"),
                        (constructions, "certified_floor"),
                        (intervals, "in_open_interval"),
                        (intervals, "certified_floor"),
                        (intervals, "certified_sign")):
        _patch(tr, owner, attr,
               tr.counter("intervals.decide", getattr(owner, attr),
                          raises=UndecidedComparison))

    def witness_verdict(t, args, kwargs, out):
        key = oracles.verdict(out.found, out.margin)
        t.counts["solve.witness_search." + key] += 1
    _span_all(tr, "solve.witness_search", [solve], "witness_search",
              on_result=witness_verdict)
    _span_all(tr, "solve.lp_solve", [solve, families], "lp_solve")
    _span_all(tr, "solve.eval_qf", [solve], "eval_qf")

    def nm_outcome(t, args, kwargs, out):
        # witness_search accepts a Nelder-Mead end point at margin <= tol
        if float(out.fun) <= solve.FLOAT_TOL:
            t.counts["solve.nelder_mead.success"] += 1
    _span_all(tr, "solve.nelder_mead", [scipy.optimize], "minimize",
              on_result=nm_outcome)

    def fm_rows(t, args, kwargs, out):
        t.counts["solve.fm_eliminate.rows_in"] += len(args[0].constraints)
        t.counts["solve.fm_eliminate.rows_out"] += len(out.constraints)
    _span_all(tr, "solve.fm_eliminate", [solve], "fm_eliminate",
              on_result=fm_rows)

    _span_all(tr, "transform.strategic_transform", [transform],
              "strategic_transform")
    _span_all(tr, "transform.complexity_report", [transform],
              "complexity_report")

    def label_rows(t, args, kwargs, out):
        t.counts["families.batch_strategic_labels.rows"] += len(args[3])
    _span_all(tr, "families.batch_strategic_labels", [families, learn],
              "batch_strategic_labels", on_result=label_rows)
    _span_all(tr, "families.strategic_label", [families], "strategic_label")
    _span_all(tr, "families.emd_value", [families], "emd_value")
    make_neigh = families.make_neighborhood

    def make_neighborhood(spec):
        # the per-row fallback labels a row by sampling exactly when it
        # calls the neighborhood's sampler
        n = make_neigh(spec)
        if n.sample is not None:
            n.sample = tr.counter("families.sampled_rows", n.sample)
        return n
    _patch(tr, families, "make_neighborhood", make_neighborhood)

    for name in ("build_fixed_blowup", "build_all_radii",
                 "build_partition_pathology", "build_frac_construction"):
        _span_all(tr, "constructions." + name, [constructions], name)

    def count_label_fn(t, args, kwargs):
        args = (t.counter("capacity.label_fn", args[0]),) + tuple(args[1:])
        return args, kwargs
    _span_all(tr, "capacity.growth_estimate", [capacity], "growth_estimate",
              on_args=count_label_fn)

    def erm_budget(t, args, kwargs, out):
        t.counts["learn.erm_fit.candidates"] += out.budget_spent
    _span_all(tr, "learn.erm_fit", [learn], "erm_fit", on_result=erm_budget)
    _span_all(tr, "learn.generate_realizable", [learn], "generate_realizable")
    _span_all(tr, "learn.heldout_error", [learn], "heldout_error")

    _span_all(tr, "cli.main", [cli], "main")
    _span_all(tr, "cli.write_artifact", [cli], "write_artifact")
    _span_all(tr, "cli.write_csv", [cli], "write_csv")


def uninstall(tr: Tracer) -> None:
    while tr._saved:
        owner, attr, original = tr._saved.pop()
        setattr(owner, attr, original)
