#!/usr/bin/env python3
"""tfsam benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload parse-ambig --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; tfsam is imported from ``src/``.
One client runs a closed loop in a single thread: each operation starts
after the previous one finished.  The timed phase repeats whole passes
over the workload's generated inputs for at least ``--seconds`` of busy
time (and at least MIN_OPS operations).  Answers are checked against the
workload's reference after each pass, with the clock stopped.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it times a traced set-up and one traced pass, runs
``tfsam parse`` through ``cli.main`` once per parse workload, and
compares traced with untraced throughput.  Details and a human-readable
summary go to standard output and to ``.bench_out/``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 110                 # leaves at least 10 latency samples above p90
SETUP_SHARE = 0.2             # set-up sampling adds at most this share to a run
SETUP_MIN_POINTS = 5
SETUP_MAX_POINTS = 200
CLI_REPEATS = 3
WORKLOAD_NAMES = ("parse-ambig", "parse-deep", "unify-pairs")


def check_pass(wl, answers) -> int:
    """Number of answers in a pass that raised or differ from the reference;
    the first of them is reported on standard error."""
    bad = [(i, ans) for i, ans in enumerate(answers)
           if isinstance(ans, Exception) or not wl.check(i, ans)]
    if bad:
        i, ans = bad[0]
        why = f"raised {ans!r}" if isinstance(ans, Exception) else "gave a wrong answer"
        print(f"{len(bad)} of {len(answers)} ops failed in a pass; op {i} {why}",
              file=sys.stderr)
    return len(bad)


def run_pass(wl, latencies, run, between=None):
    """One pass over the workload's ops, timing each into *latencies*;
    returns the answers.  *between*, if given, is called after every op
    with its latency, outside the timed region."""
    answers = []
    for i in range(len(wl.ops)):
        t0 = time.perf_counter()
        try:
            ans = run(i)
        except Exception as e:      # an op that raises is a failed op, not the end of the run
            ans = e
        latencies.append(time.perf_counter() - t0)
        answers.append(ans)
        if between is not None:
            between(latencies[-1])
    return answers


def timed_phase(wl, seconds, min_ops, between=None):
    """Whole passes until *seconds* of busy time and *min_ops* ops."""
    latencies = []
    busy = 0.0
    failed = 0
    while busy < seconds or len(latencies) < min_ops:
        done = len(latencies)
        answers = run_pass(wl, latencies, wl.run, between)
        busy += math.fsum(latencies[done:])
        failed += check_pass(wl, answers)
    return latencies, busy, failed


def fresh_setup(wl):
    """Drop the workload's set-up state and collect it, so a set-up pays
    only for its own garbage, as in a fresh tfsam process.  (Loaded
    hierarchies hold reference cycles, so only the collector frees them.)"""
    wl.reset()
    gc.collect()


class SetupTimer:
    """Set-up times sampled evenly over the run's busy time, between ops,
    so that their median covers the same spells of machine speed as the
    ops do.  One set-up runs before the first op; later ones are spaced so
    that set-up adds at most SETUP_SHARE to the run, with between
    SETUP_MIN_POINTS and SETUP_MAX_POINTS of them."""

    def __init__(self, wl, seconds):
        self.wl = wl
        self.times = []
        self.sample()
        points = SETUP_SHARE * seconds / self.times[0]
        self.points = int(min(SETUP_MAX_POINTS, max(SETUP_MIN_POINTS, points)))
        self.step = seconds / self.points
        self.busy = 0.0
        self.next = self.step

    def sample(self):
        fresh_setup(self.wl)
        t0 = time.perf_counter()
        self.wl.setup()
        self.times.append(time.perf_counter() - t0)

    def __call__(self, latency):
        self.busy += latency
        if self.busy >= self.next and len(self.times) <= self.points:
            self.next += self.step
            self.sample()


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(wl, seconds):
    setups = SetupTimer(wl, seconds)
    latencies, busy, failed = timed_phase(wl, seconds, MIN_OPS, between=setups)
    lat = sorted(latencies)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups.times), "s"),
        "throughput_ops_s": (n / busy, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (failed / n, "ratio"),
    }
    info = {"latency_samples": n, "above_p90": n - math.ceil(0.9 * n),
            "setup_samples": len(setups.times), "busy_s": busy}
    return metrics, n, failed, info


def cli_parse(wl, seed):
    """Median wall time of ``tfsam parse`` on one sentence, and whether its
    output lines match the library's heads (which must match the reference)."""
    from tfsam import cli, terms

    i = wl.cli_sentence()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-{seed}.grammar"
    path.write_text(wl.grammar_text)
    heads = wl.run(i)
    want = [terms.print_term(h) for h in heads] or ["no parse"]
    times = []
    ok = wl.check(i, heads)
    try:
        for _ in range(CLI_REPEATS):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["parse", str(path), " ".join(wl.ops[i])])
            times.append(time.perf_counter() - t0)
            ok = ok and code == 0 and buf.getvalue().splitlines() == want
    finally:
        path.unlink()
    return statistics.median(times), ok


def traced(wl, seconds, seed):
    import tracing

    wl.setup()                                   # warm caches outside the trace
    fresh_setup(wl)
    setup_tr = tracing.Tracer()
    with setup_tr:
        setup_tr.wrap(wl.setup, "setup")()

    latencies, busy, failed = timed_phase(wl, seconds / 2, len(wl.ops))
    untraced_tput = len(latencies) / busy

    tr = tracing.Tracer()
    traced_lat = []
    with tr:
        answers = run_pass(wl, traced_lat, tr.wrap(wl.run, "op"))
    took = math.fsum(traced_lat)
    failed += check_pass(wl, answers)
    attempted = len(latencies) + len(answers)

    cost = tracing.calibrate()
    summary = tr.summarize(cost)
    metrics = tracing.layer_metrics(setup_tr, setup_tr.summarize(cost), tr, summary)
    cli_s = 0.0
    if hasattr(wl, "cli_sentence"):
        cli_s, cli_ok = cli_parse(wl, seed)
        attempted += 1
        failed += not cli_ok
    metrics["cli.parse_s"] = (cli_s, "s")
    metrics["trace.overhead_ratio"] = ((len(answers) / took) / untraced_tput, "ratio")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{wl.name}-seed{seed}.json.gz"
    tr.write(span_file, {"workload": wl.name, "seed": seed, "inputs": wl.digest,
                         "ops": len(answers), "wrapper_cost_s": cost})
    top = [(n, round(s, 4)) for s, n in tracing.top_self(summary)[:6]]
    info = {"spans": len(tr.span_start), "span_file": str(span_file.relative_to(ROOT)),
            "wrapper_cost_us": [round(c * 1e6, 3) for c in cost],
            "top_self_s": top, "pass_ops": len(answers)}
    return metrics, attempted, failed, info


def report(wl, seed, seconds, trace):
    """Measure *wl*, print the summary and the JSON result line, and keep
    a full record under ``.bench_out/``."""
    name = wl.name
    # the generated inputs and references live for the whole run; keep the
    # collector from traversing them again and again during the ops
    gc.collect()
    gc.freeze()
    if trace:
        metrics, attempted, failed, info = traced(wl, seconds, seed)
    else:
        metrics, attempted, failed, info = end_to_end(wl, seconds)
    info["inputs"] = wl.digest

    print(f"workload {name}  seed {seed}  trace {trace}")
    for k, v in info.items():
        print(f"  {k}: {v}")
    for k, (value, unit) in metrics.items():
        print(f"  {k:32s} {value:14.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": attempted, "failed": failed, "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))

    # error_rate is shown above; the result line carries it as attempted/failed
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k != "error_rate"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))


def run_all(seed, seconds):
    """Every workload, each in its own process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout, end="")
        rows[name] = json.loads((OUT / f"result-{name}-seed{seed}-trace0.json").read_text())
    metric_names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':18s}" + "".join(f"{n:>16s}" for n in rows) + "  unit")
    for m in metric_names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][m]["unit"]
        print(f"{m:18s}" + "".join(f"{r['metrics'][m]['value']:16.5g}" for r in rows.values())
              + f"  {unit}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "tfsam" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: no tfsam source tree (src/tfsam, tests/oracle.py) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tfsam
    if not Path(tfsam.__file__).resolve().is_relative_to(src):
        print(f"error: imported tfsam from {tfsam.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads
    report(workloads.WORKLOADS[args.workload](args.seed), args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
