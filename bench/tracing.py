"""Per-layer spans and counts, recorded from outside the package.

A Tracer replaces tfsam's public functions and methods with wrappers for
as long as it is installed, and puts the originals back afterwards.
Each wrapped call becomes a span (name, start, end, parent), kept in
arrays until the run ends.  A span's self time is its duration minus the
time its child spans cover, less the wrapper's own cost as measured by
``calibrate`` (the same correction the standard library's ``profile``
module makes).  The hottest methods, ``TypeHierarchy.plan`` and ``lub``,
are only counted, because a span would cost more than the call.

The parser counts come from ``ParseResult`` and from the machine calls
the parser makes: every combine starts with ``restore_regs`` and ends
with ``undo``, and a combine that produced an edge read it back
(``snapshot_regs`` or ``extract_multi``) in between.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter as clock

from tfsam import compiler, grammar, machine, parser, scan, terms, typesys

ISO = ("terms.iso", "terms.iso_roots")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack = []                 # indices of the open spans
        self.counts = Counter()
        self.heap_peak = 0
        self.trail_peak = 0
        self._combine = None             # None, "open" or "ok"
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, hook=None, pre=None):
        """*fn* recording a span per call.  *pre* sees the arguments
        before the call, *hook* the arguments and result after it; both
        run outside the span."""
        nid = self._id(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack

        def wrapped(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapped

    # -- installing wrappers ------------------------------------------------------

    def _wrap(self, owner, attr, name, hook=None, pre=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, hook, pre))

    def _count(self, owner, attr, name):
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def __enter__(self):
        MS = machine.MachineState
        self._wrap(scan, "tokenize", "scan.tokenize")
        self._wrap(typesys, "validate", "typesys.validate", hook=self._after_validate)
        self._wrap(typesys, "load_hierarchy", "typesys.load_hierarchy")
        self._wrap(grammar, "load_grammar", "grammar.load_grammar")
        self._wrap(compiler, "compile_grammar", "compiler.compile_grammar",
                   hook=self._after_compile_grammar)
        self._wrap(compiler, "compile_query", "compiler.compile_query")
        self._wrap(terms, "flatten", "terms.flatten")
        self._wrap(terms, "iso", "terms.iso", hook=self._after_iso)
        self._wrap(terms, "iso_roots", "terms.iso_roots", hook=self._after_iso)
        self._count(typesys.TypeHierarchy, "plan", "typesys.plan")
        self._count(typesys.TypeHierarchy, "lub", "typesys.lub")
        self._wrap(MS, "build", "machine.build")
        self._wrap(MS, "execute", "machine.execute", pre=self._before_execute)
        self._wrap(MS, "unify", "machine.unify", hook=self._after_unify)
        self._wrap(MS, "extract_multi", "machine.extract_multi", hook=self._after_readout)
        self._wrap(MS, "snapshot_regs", "machine.snapshot_regs", hook=self._after_readout)
        self._wrap(MS, "restore_regs", "machine.restore_regs", pre=self._before_restore)
        self._wrap(MS, "checkpoint", "machine.checkpoint")
        self._wrap(MS, "undo", "machine.undo", pre=self._before_undo)
        self._wrap(parser.ChartParser, "parse", "parser.parse", hook=self._after_parse)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- counts ---------------------------------------------------------------------

    def _after_validate(self, args, h):
        self.counts["typesys.n_types"] += h.n_types

    def _after_compile_grammar(self, args, code):
        self.counts["compiler.code_instrs"] += len(code.instrs)

    def _after_iso(self, args, same):
        if not self._stack or self.names[self.span_name[self._stack[-1]]] not in ISO:
            self.counts["terms.iso_calls"] += 1
            self.counts["terms.iso_matches"] += bool(same)

    def _peaks(self, m):
        # the heap and trail only shrink in undo, so looking before every
        # undo and after every unification and readout sees their peaks
        if len(m.heap) > self.heap_peak:
            self.heap_peak = len(m.heap)
        if len(m.trail) > self.trail_peak:
            self.trail_peak = len(m.trail)

    def _before_execute(self, args):
        self.counts["machine.execute_instrs"] += len(args[1])

    def _after_unify(self, args, unified):
        self.counts["machine.unify_fails"] += not unified
        self._peaks(args[0])

    def _after_readout(self, args, result):
        if self._combine == "open":
            self._combine = "ok"
        self._peaks(args[0])

    def _before_restore(self, args):
        self.counts["parser.combines"] += 1
        self._combine = "open"

    def _before_undo(self, args):
        self._peaks(args[0])
        if self._combine is not None:
            self.counts["parser.combine_successes"] += self._combine == "ok"
            self._combine = None

    def _after_parse(self, args, result):
        p, words = args[0], list(args[1])
        code = p.grammar.code
        seeds = sum(len(code.lexicon[w]) for w in words)
        self.counts["parser.items"] += result.items
        self.counts["parser.pops"] += result.pops
        # every item that is neither a lexical seed nor an initial active
        # edge is a combine result that survived the duplicate check
        self.counts["parser.accepted"] += result.items - seeds - len(words) * len(code.rules)

    # -- results ---------------------------------------------------------------------------

    def summarize(self, cost=(0.0, 0.0)):
        """Calls, self time and inclusive time per span name.

        *cost* is the wrapper's (inside, outside) cost per span from
        ``calibrate``: the part inside a span's own interval is taken off
        its self time, the part outside off its parent's.
        """
        c_in, c_out = cost
        n = len(self.span_start)
        parent = self.span_parent
        selft = [self.span_end[i] - self.span_start[i] - c_in for i in range(n)]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                selft[p] -= self.span_end[i] - self.span_start[i] + c_out
        incl = list(selft)
        for i in range(n - 1, -1, -1):
            if parent[i] >= 0:
                incl[parent[i]] += incl[i]
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += selft[i]
            incl_s[name] += incl[i]
        return calls, self_s, incl_s

    def write(self, path, meta):
        """Write every span, plus *meta*, as gzip-compressed JSON; times
        are whole microseconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        spans = [[self.span_name[i], round((self.span_start[i] - t0) * 1e6),
                  round((self.span_end[i] - t0) * 1e6), self.span_parent[i]]
                 for i in range(len(self.span_start))]
        doc = dict(meta, names=self.names, fields=["name", "start_us", "end_us", "parent"],
                   spans=spans)
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))


def calibrate(calls=20000, rounds=5):
    """Median (inside, outside) wrapper cost per span, in seconds."""
    def noop():
        return None

    inside, outside = [], []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = (clock() - t0) / calls
        tr = Tracer()
        wrapped = tr.wrap(noop, "noop")

        def loop():
            for _ in range(calls):
                wrapped()

        tr.wrap(loop, "loop")()
        _, self_s, incl_s = tr.summarize()
        inside.append(self_s["noop"] / calls - bare)
        outside.append(self_s["loop"] / calls - bare)
    return max(0.0, statistics.median(inside)), max(0.0, statistics.median(outside))


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, setup_summary, ops, ops_summary):
    """Per-layer metrics from a traced set-up (*setup*, under a root span
    named ``setup``) and a traced pass (*ops*), with their summaries.
    Times are seconds per pass."""
    _, s_self, s_incl = setup_summary
    calls, self_s, incl_s = ops_summary
    c = ops.counts
    successes = c["parser.combine_successes"]
    iso_self = sum(self_s[n] for n in ISO)
    return {
        "typesys.build_s": (s_incl["typesys.validate"], "s"),
        "typesys.n_types": (setup.counts["typesys.n_types"], "count"),
        "typesys.setup_share": (ratio(s_incl["typesys.validate"], s_incl["setup"]), "ratio"),
        "typesys.plan_calls": (c["typesys.plan"], "count"),
        "typesys.lub_calls": (c["typesys.lub"], "count"),
        "scan.tokenize_s": (s_incl["scan.tokenize"], "s"),
        "grammar.load_self_s": (s_self["grammar.load_grammar"], "s"),
        "compiler.compile_grammar_s": (s_incl["compiler.compile_grammar"], "s"),
        "compiler.code_instrs": (setup.counts["compiler.code_instrs"], "count"),
        "compiler.compile_query_calls": (calls["compiler.compile_query"], "count"),
        "compiler.compile_query_self_s": (self_s["compiler.compile_query"], "s"),
        "terms.flatten_calls": (calls["terms.flatten"], "count"),
        "terms.flatten_self_s": (self_s["terms.flatten"], "s"),
        "machine.build_calls": (calls["machine.build"], "count"),
        "machine.build_self_s": (self_s["machine.build"], "s"),
        "terms.iso_calls": (c["terms.iso_calls"], "count"),
        "terms.iso_self_s": (iso_self, "s"),
        "terms.iso_match_ratio": (ratio(c["terms.iso_matches"], c["terms.iso_calls"]), "ratio"),
        "terms.iso_parse_share": (ratio(iso_self, incl_s["parser.parse"]), "ratio"),
        "parser.dup_ratio": (ratio(successes - c["parser.accepted"], successes), "ratio"),
        "machine.execute_instrs": (c["machine.execute_instrs"], "count"),
        "machine.execute_self_s": (self_s["machine.execute"], "s"),
        "parser.combines": (c["parser.combines"], "count"),
        "parser.combine_success_ratio": (ratio(successes, c["parser.combines"]), "ratio"),
        "machine.unify_calls": (calls["machine.unify"], "count"),
        "machine.unify_self_s": (self_s["machine.unify"], "s"),
        "machine.unify_fail_ratio": (ratio(c["machine.unify_fails"], calls["machine.unify"]), "ratio"),
        "machine.extract_self_s": (self_s["machine.extract_multi"], "s"),
        "machine.snapshot_regs_self_s": (self_s["machine.snapshot_regs"], "s"),
        "machine.restore_regs_self_s": (self_s["machine.restore_regs"], "s"),
        "machine.heap_peak_cells": (ops.heap_peak, "cells"),
        "machine.trail_peak_entries": (ops.trail_peak, "entries"),
        "parser.parse_self_s": (self_s["parser.parse"], "s"),
        "parser.items": (c["parser.items"], "count"),
        "parser.pops": (c["parser.pops"], "count"),
    }


def top_self(summary, exclude=("op",)):
    """(self seconds, span name) for every wrapped layer, largest first."""
    _, self_s, _ = summary
    return sorted(((s, n) for n, s in self_s.items() if n not in exclude), reverse=True)
