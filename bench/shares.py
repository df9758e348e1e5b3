#!/usr/bin/env python3
"""Reproduce the ROADMAP's baseline observations with the benchmark's code.

    python3 bench/shares.py

Prints parse time and chart items of uniform parse-ambig sentences of 10,
20 and 30 words, the traced shares of parse time at 20 words, and the
type-table build time of parse-deep's semantic tree at 50 to 400 types.
NOTES.md compares these with the ROADMAP's figures.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tfsam import grammar, parser, typesys  # noqa: E402

REPEATS = 3


def best_time(fn):
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def parse_table(g):
    print("words  parse_s  items")
    for n in (10, 20, 30):
        t, result = best_time(lambda: parser.ChartParser(g).parse(["w"] * n))
        print(f"{n:5d}  {t:7.3f}  {result.items:5d}")


def parse_shares(g, n=20):
    cost = tracing.calibrate()
    tr = tracing.Tracer()
    with tr:
        parser.ChartParser(g).parse(["w"] * n)
    calls, self_s, incl_s = tr.summarize(cost)
    total = incl_s["parser.parse"]
    combine = total - self_s["parser.parse"]
    rows = [
        ("build (inclusive) / combine time", incl_s["machine.build"] / combine),
        ("flatten / parse time", self_s["terms.flatten"] / total),
        ("compile_query / parse time", self_s["compiler.compile_query"] / total),
        ("extract (inclusive) / parse time", incl_s["machine.extract_multi"] / total),
        ("iso / parse time", sum(self_s[k] for k in tracing.ISO) / total),
        ("execute outside build / parse time",
         (incl_s["machine.execute"] - _nested(tr, cost, "machine.execute", "machine.build")) / total),
        ("parser self / parse time", self_s["parser.parse"] / total),
    ]
    print(f"traced shares at {n} words (parse {total:.3f} s traced, combine {combine:.3f} s)")
    for label, share in rows:
        print(f"  {label:38s} {share:6.1%}")


def _nested(tr, cost, name, under):
    """Inclusive time of *name* spans that sit below an *under* span."""
    c_in, c_out = cost
    nid, uid = tr.names.index(name), tr.names.index(under)
    total = 0.0
    for i in range(len(tr.span_start)):
        if tr.span_name[i] != nid:
            continue
        p = tr.span_parent[i]
        while p >= 0 and tr.span_name[p] != uid:
            p = tr.span_parent[p]
        if p >= 0:
            total += tr.span_end[i] - tr.span_start[i] - c_in
    return total


def type_tables():
    print("types  build_s")
    points = []
    for n in (50, 100, 200, 400):
        tree = workloads.SemTree(random.Random(n), n_types=n, n_features=4)
        text = "bot sub [sem].\n" + tree.spec()
        t, h = best_time(lambda: typesys.load_hierarchy(text))
        points.append((h.n_types, t))
        print(f"{h.n_types:5d}  {t:7.3f}")
    (n0, t0), (n1, t1) = points[0], points[-1]
    print(f"growth exponent {math.log(t1 / t0) / math.log(n1 / n0):.2f}")


def main():
    g = grammar.load_grammar(workloads.AMBIG_GRAMMAR)
    parse_table(g)
    parse_shares(g)
    type_tables()


if __name__ == "__main__":
    main()
