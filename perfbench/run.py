#!/usr/bin/env python3
"""Pipeline benchmark for xlingua: the matrix, stream and dedupe workloads.

Run from anywhere in a checkout; the package is imported from ``src/`` next
to this directory:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

The run repeats passes over the workload's fixed operations for
``--seconds`` of pass time (starting no pass that would end after that),
sets the workload up afresh several times spread over the run, and times
each operation as its fastest untraced repeat.  It prints a readable
report and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
alternates untraced and traced set-ups and passes, so that it also reports
the tracing overhead.

Exit status: 0 when every output check passes, 1 when one fails or the
package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

N_SETUPS = 5
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "op_ms": "ms"}
LANGS = ("en", "es")
LAYERS = ("synthesis", "normalize", "profiles", "assign", "harness", "similarity")
PER_LAYER_UNITS = {
    "synthesis.generate_s": "s",
    "normalize.s": "s",
    "normalize.docs": "count",
    **{f"profiles.train_s.{lang}": "s" for lang in LANGS},
    "profiles.trained": "count",
    "profiles.skipped": "count",
    "assign.s": "s",
    "assign.calls": "count",
    "assign.empty": "count",
    "assign.oov_share": "share",
    "assign.nnz_mean": "count",
    "harness.build_pipeline_s": "s",
    **{f"harness.mode.{m}_s": "s" for m in ("T1ES", "T1ESLF", "BILW", "THBILW")},
    "harness.pairs": "count",
    "similarity.search_s": "s",
    "similarity.candidates_scored": "count",
    "similarity.attempts": "count",
    "similarity.hits": "count",
    "similarity.hit_share": "share",
    "similarity.hits_correct": "count",
    "similarity.dedupe_s": "s",
    "similarity.dedupe.pairs": "count",
    "similarity.dedupe.removed": "count",
    "similarity.dedupe.planted": "count",
    "similarity.dedupe.removed_share": "share",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_share": "share",
    "trace.setup_overhead_share": "share",
    "trace.spans": "count",
}


def import_package():
    """Import xlingua from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "xlingua", "__init__.py")):
        sys.exit(f"perfbench: no xlingua package under {SRC}")
    sys.path.insert(0, SRC)
    import xlingua

    if os.path.dirname(os.path.dirname(os.path.abspath(xlingua.__file__))) != SRC:
        sys.exit(f"perfbench: imported xlingua from {xlingua.__file__}, not {SRC}")
    return xlingua


def provenance(args, workload) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        from xlingua import kernels

        has_numba = getattr(kernels, "HAS_NUMBA", False)
    except ImportError:
        has_numba = False
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **workload.provenance(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "has_numba": has_numba,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def layer_metrics(wl, rec, units, overhead, setup_overhead) -> dict[str, float]:
    pu = rec.per_unit(units)
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    m.update(
        {
            "synthesis.generate_s": pu["call.synthesis.generate_synthetic"],
            "normalize.s": pu["self.normalize"],
            "normalize.docs": pu["normalize.docs"],
            "profiles.trained": pu["profiles.trained"],
            "profiles.skipped": pu["profiles.skipped"],
            "assign.s": pu["self.assign"],
            "assign.calls": pu["assign.calls"],
            "assign.empty": pu["assign.empty"],
            "assign.oov_share": pu["assign.oov_tokens"] / pu["assign.tokens"] if pu["assign.tokens"] else 0.0,
            "assign.nnz_mean": pu["assign.nnz"] / pu["assign.calls"] if pu["assign.calls"] else 0.0,
            "harness.build_pipeline_s": pu["call.harness.build_pipeline"],
            "trace.overhead_share": overhead,
            "trace.setup_overhead_share": setup_overhead,
            "trace.spans": len(rec.spans),
        }
    )
    for lang in LANGS:
        m[f"profiles.train_s.{lang}"] = pu[f"profiles.train_s.{lang}"]
    for layer in LAYERS:
        m[f"{layer}.errors"] = pu[f"{layer}.errors"]
    m.update(wl.layers(rec, units))
    unknown = set(m) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"per-layer metrics not declared: {sorted(unknown)}")
    return m


def self_time_table(rec, units) -> list[str]:
    st = rec.self_times()
    layers = sorted({layer for _, layer in st})
    total_run = sum(v for (phase, _), v in st.items() if phase == "run") / units["run"]
    lines = [f"{'layer':<12} {'setup_s':>10} {'run_s/pass':>11} {'run_share':>9}"]
    for layer in layers:
        setup = st.get(("setup", layer), 0.0) / units["setup"]
        run = st.get(("run", layer), 0.0) / units["run"]
        share = run / total_run if total_run else 0.0
        lines.append(f"{layer:<12} {setup:>10.4f} {run:>11.4f} {share:>9.1%}")
    return lines


def run(args) -> int:
    import_package()
    import tracing
    import workloads

    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed, args.smoke)
    print("provenance " + json.dumps(provenance(args, wl), sort_keys=True))
    rec = tracing.Recorder()

    # A pass replays the workload's fixed operations, so operation i of one
    # pass repeats operation i of every other.  Each operation is timed as
    # its fastest untraced repeat (best of passes, as timeit does): time that
    # other tenants of a shared host take from this process only ever adds.
    # The set-ups are spread over the run, one at the start of each
    # N_SETUPS-th of its pass time, so that their median samples the host's
    # load over the whole run.  Each starts from a fresh workload, keeping
    # only the tallies, and a collected heap, so the previous set-up's
    # objects do not slow its garbage collections.
    setup_s = {False: [], True: []}
    passes = {False: [], True: []}
    pass_wall: list[float] = []
    k = 0
    # start no pass that would end after --seconds of passes, once every
    # set-up and every kind of pass ran
    while (
        len(setup_s[False]) + len(setup_s[True]) < N_SETUPS
        or k < 2 + args.trace
        or sum(pass_wall) + statistics.median(pass_wall) < args.seconds
    ):
        i = len(setup_s[False]) + len(setup_s[True])
        if i < N_SETUPS and sum(pass_wall) >= i * args.seconds / N_SETUPS:
            tallies = wl.attempted, wl.failed, wl.problems
            wl = None
            gc.collect()
            wl = make(args.seed, args.smoke)
            wl.attempted, wl.failed, wl.problems = tallies
            rec.enabled = bool(args.trace) and i % 2 == 1
            rec.phase, rec.op = "setup", f"setup{i}"
            setup_s[rec.enabled].append(wl.setup(rec))
            rec.phase = "run"
        gc.collect()
        t0 = time.perf_counter()
        rec.enabled = bool(args.trace) and k % 2 == 1
        passes[rec.enabled].append(wl.run_pass(rec, k))
        pass_wall.append(time.perf_counter() - t0)
        k += 1
    rec.enabled = False
    best = [min(repeats) for repeats in zip(*passes[False])]

    correct = wl.failed == 0
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(f"check failed: {problem}")
    busy = sum(best)
    if not busy:
        print("no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        units = {"setup": len(setup_s[True]), "run": len(passes[True])}
        traced_best = [min(repeats) for repeats in zip(*passes[True])]
        overhead = sum(traced_best) / busy - 1
        setup_overhead = statistics.median(setup_s[True]) / statistics.median(setup_s[False]) - 1
        print(f"self time per layer ({len(rec.spans)} spans; traced pass overhead {overhead:+.1%},"
              f" traced set-up overhead {setup_overhead:+.1%}):")
        for line in self_time_table(rec, units):
            print("  " + line)
        values = layer_metrics(wl, rec, units, overhead, setup_overhead)
        metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput_per_s": wl.work / busy,
            "op_ms": 1000 * wl.op_s(best),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        print(f"{args.workload}: {len(best)} operations, best of {len(passes[False])} passes,"
              f" {busy:.3f} s busy per pass")
        rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
        rows += wl.figures(best)
        rows.append(("error_rate", wl.failed / max(wl.attempted, 1), "share"))
        for name, value, unit in rows:
            print(f"  {name:<22} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("matrix", "stream", "dedupe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpora, for the benchmark's own tests")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
