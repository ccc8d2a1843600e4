#!/usr/bin/env python3
"""asrlm benchmark: one seeded workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload lm_build --seed 1 --seconds 30 --trace 0

Run from the repository root. Set-up (input generation, plus the model
build for `rescore`) runs several times in a child process; the timed
repetitions then run in this process for `--seconds`.
A fixed pure-Python reference loop is timed between repetitions; the gated
times are repetition times in units of that loop ("ref"), which cancels the
drift of a shared machine's speed (see bench/README.md, Bounds). Peak memory
comes from one more child process that runs a single repetition.
With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` half the time runs
untraced and half traced, and the object carries the per-layer metrics and
the tracing overhead. Spans go to `.bench_out/traces/`. The lines before the
last one are a human-readable report, including metrics BENCHMARK.json does
not gate (see bench/README.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Set-up repeats until both minimums are met (or the cap), so that a short
# set-up is timed over a few seconds rather than one burst.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 200
# The set-up child times the reference loop for this long before and after
# its set-ups; `setup_s` is reported in seconds of a machine on which the
# loop takes REFERENCE_NOMINAL_S (its typical time on the 2-vCPU VM the
# bounds were set on), so that the machine's drift between runs cancels.
SETUP_REFERENCE_S = 1.0
REFERENCE_NOMINAL_S = 0.02
# Two children and the timed part must end within the 180 s a run may take.
CHILD_TIMEOUT_S = 60
# Artifact hashes are compared across repetitions, so there must be two.
MIN_REPS = 2
# Between two repetitions the reference loop runs at least this many times,
# and for at least this share of the previous repetition's wall time: a long
# repetition averages the machine's speed over a long stretch, so its
# reference has to as well.
REFERENCE_RUNS = 3
REFERENCE_SHARE = 0.1
# Entries of the reference loop's table: about 12 MB, well beyond the CPU
# caches, like the toolkit's n-gram tables.
REFERENCE_TABLE_SIZE = 60_000
REFERENCE_LOOKUPS = 20_000

# Per-layer metrics that are not a span total, a call count or a fact under
# their own name: the flat trace key they read, or a ratio of two keys.
LAYER_KEYS = {
    "model.rebuild_backoffs.merge.s": "model.rebuild_backoffs.s@mixture.interpolate_static",
    "model.rebuild_backoffs.prune.s": "model.rebuild_backoffs.s@pruner.prune_entropy",
    **{f"model.log_prob.calls.{parent.split('.')[1]}": f"model.log_prob.calls@{parent}"
       for parent in ("mixture.interpolate_static", "model.rebuild_backoffs",
                      "pruner.prune_entropy", "mixture.em_weights",
                      "evaluate.perplexity", "mixture.perplexity_mixture")},
}
LAYER_RATIOS = {
    "pruner.kept_ratio": ("pruner.ngrams_after", ("pruner.ngrams_before",)),
    "lexg2p.graphones_used_ratio": ("lexg2p.graphones_used", ("lexg2p.graphones",)),
    "lexg2p.failed_ratio": ("lexg2p.failed", ("lexg2p.added", "lexg2p.failed")),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check of the output shape")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe-rss", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_setup(args, workloads, inputs) -> None:
    """Child process: set up several times into a fresh directory; print the
    set-up times, the reference timings around them and the input sizes of
    the last set-up as JSON."""
    workload = workloads.WORKLOADS[args.workload]
    scale = inputs.SCALES["tiny" if args.tiny else "full"]
    ref_before = reference_s(SETUP_REFERENCE_S)
    times = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        workloads.fresh_dir(args.setup_into)
        start = time.perf_counter()
        sizes = workload.setup(args.setup_into, args.seed, scale)
        times.append(time.perf_counter() - start)
    (args.setup_into / "sizes.json").write_text(json.dumps(sizes), encoding="utf-8")
    ref = (ref_before + reference_s(SETUP_REFERENCE_S)) / 2
    print(json.dumps({"setup_s": times, "setup_ref_s": ref, "sizes": sizes}))


def run_probe(args, workloads, tracing) -> None:
    """Child process: one untimed repetition on the inputs set up in
    `args.probe_rss`; print the process's peak RSS as JSON."""
    sizes = json.loads((args.probe_rss / "sizes.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](
        args.probe_rss, args.probe_rss.parent / "probe", args.seed, sizes)
    tracer = tracing.Tracer()
    workload.instrument(tracer, full=False)
    workload.rep(0, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": rss_mb}))


def child(args, flag: str, path: Path) -> dict:
    """Run this script in a child process with `flag path`; its last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", flag, str(path)]
        + (["--tiny"] if args.tiny else []),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def reference_table() -> tuple[dict, list]:
    """A tuple-keyed table and a fixed random order of lookups into it."""
    table = {(i, i * 7919 % 100_003): float(i) for i in range(REFERENCE_TABLE_SIZE)}
    keys = random.Random(0).sample(list(table), REFERENCE_LOOKUPS)
    return table, keys


def _backoff(table: dict, ctx: tuple, word: int) -> float:
    """A back-off walk: drop the oldest context word until the n-gram is found."""
    value = table.get(ctx + (word,))
    if value is not None or not ctx:
        return value or 0.0
    return table.get(ctx[:1] * 3, 0.0) + _backoff(table, ctx[1:], word)


def reference_loop() -> float:
    """Seconds taken by a fixed amount of interpreter work of the kinds the
    toolkit does: tuple-keyed counting, log10 sums and recursive back-off
    walks within the CPU caches, then lookups scattered over a table that
    does not fit in them."""
    table, keys = reference_table()
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    total = 0.0
    for i in range(1, 12001):
        key = (i % 101, i % 7, i % 3)
        counts[key] = counts.get(key, 0) + 1
        total += math.log10(i)
        if not i % 8:
            " ".join(("w", str(i % 97), str(key[1])))
    for i in range(4000):
        total += _backoff(counts, (i % 89 + 50, i % 5 + 4), i % 3)
    for key in keys:
        total += table[key]
    return time.perf_counter() - start


def reference_s(budget_s: float) -> float:
    """The median of reference-loop timings taken back to back, at least
    REFERENCE_RUNS of them and at least `budget_s` seconds of them."""
    times = []
    while len(times) < REFERENCE_RUNS or sum(times) < budget_s:
        times.append(reference_loop())
    return statistics.median(times)


def measure(workload, tracer, seconds: float, first: int, min_reps: int, tally: dict) -> list:
    """Repeat the workload for `seconds` of wall time; check each repetition's
    outputs right after it, outside its timed region.

    The reference loop is timed before the first repetition and after each
    one; a repetition's `ref` is the mean of the timings on either side.
    """
    results = []
    ref_before = reference_s(0.0)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < min_reps:
        i = first + len(results)
        tally["attempted"] += workload.ops_per_rep
        try:
            result = workload.rep(i, tracer)
            ref_after = reference_s(REFERENCE_SHARE * result["wall"])
            result["ref"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            tracer.set_run("check")
            failures = workload.check(result)
        except Exception:
            traceback.print_exc()
            tally["failed"] += workload.ops_per_rep
            results.append(None)
            continue
        for failure in failures:
            print(f"check failed ({workload.name} rep {i}): {failure}", file=sys.stderr)
        tally["failed"] += min(len(failures), workload.ops_per_rep)
        results.append(result)
    return [r for r in results if r is not None]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The 99th percentile, or the highest whole percentile that leaves at
    least ten samples above it; returns (percentile, value)."""
    ordered = sorted(samples)
    pct = min(99, int(100 * (1 - 10 / len(ordered)))) if len(ordered) > 10 else 50
    return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def wall_ref(results) -> float:
    """Median over reps of rep wall time in reference-loop units."""
    return statistics.median(r["wall"] / r["ref"] for r in results)


def end_to_end(workload, results, setup) -> tuple[dict, dict]:
    """Gated metrics, and the ones the report prints as (value, unit).

    Gated times are medians over reps of each rep's time divided by its
    reference-loop time: other tenants of a shared machine change its speed
    by tens of per cent within seconds, and the ratio cancels most of that.
    The report prints the same figures in seconds as well.
    """
    def median(values):
        return statistics.median(list(values))

    item_s = median(r["item_s"] for r in results)
    values = {
        "setup_s": median(setup["setup_s"]) * REFERENCE_NOMINAL_S / setup["setup_ref_s"],
        "wall_ref": wall_ref(results),
        "peak_rss_mb": setup["peak_rss_mb"],
        "items_per_ref": median(r["items"] * r["ref"] / r["item_s"] for r in results),
    }
    extra = {
        "wall_s": (median(r["wall"] for r in results), "s"),
        "wall_min_s": (min(r["wall"] for r in results), "s"),
        "ref_s": (median(r["ref"] for r in results), "s"),
        "setup_wall_s": (median(setup["setup_s"]), "s"),
        "setup_ref_s": (setup["setup_ref_s"], "s"),
    }
    throughput = results[0]["items"] / item_s
    if workload.name == "lm_build":
        extra["train_tokens_per_s"] = (throughput, "1/s")
    elif workload.name == "rescore":
        pct, tail = tail_percentile(workload.latencies)
        extra["load_s"] = (median(r["load"] for r in results), "s")
        extra["requests_per_s"] = (throughput, "1/s")
        extra["request_p50_ms"] = (1000 * statistics.median(workload.latencies), "ms")
        extra[f"request_p{pct}_ms"] = (1000 * tail, f"ms (n={len(workload.latencies)})")
    else:
        extra["g2p_train_s"] = (median(r["train"] for r in results), "s")
        extra["g2p_words_per_s"] = (throughput, "1/s")
    return values, extra


def traced_reps(tracer) -> list[dict]:
    """Flat trace totals per traced repetition (checks run under run id "check")."""
    groups = tracer.aggregate(lambda run_id: run_id.split("/")[0])
    return [totals for run_id, totals in groups.items() if run_id.isdigit()]


def per_layer(reps, traced, untraced, spec) -> dict:
    """Median over traced repetitions of each per-layer metric."""
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            # Median traced minus median untraced rep, each in reference
            # units so that drift between the two halves cancels, in seconds.
            ref = statistics.median(r["ref"] for r in traced + untraced)
            values[name] = (wall_ref(traced) - wall_ref(untraced)) * ref
            continue
        per_rep = []
        for totals in reps:
            if name in LAYER_RATIOS:
                num, dens = LAYER_RATIOS[name]
                den = sum(totals.get(d, 0.0) for d in dens)
                per_rep.append(totals.get(num, 0.0) / den if den else 0.0)
            else:
                per_rep.append(totals.get(LAYER_KEYS.get(name, name), 0.0))
        values[name] = statistics.median(per_rep)
    return values


def print_self_time_shares(reps, traced, top: int = 6) -> None:
    """The spans with the most self time, as shares of traced wall time."""
    wall = sum(r["wall"] for r in traced)
    self_s: dict[str, float] = {}
    for totals in reps:
        for key, value in totals.items():
            name, _, kind = key.rpartition(".")
            if kind == "self_s":
                self_s[name] = self_s.get(name, 0.0) + value
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:top]:
        print(f"self time share {name} {value / wall:.3f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "asrlm").is_dir():
        print(f"error: no asrlm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_into:
        run_setup(args, workloads, inputs)
        return 0
    if args.probe_rss:
        run_probe(args, workloads, tracing)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = child(args, "--setup-into", work / "setup")
        setup.update(child(args, "--probe-rss", work / "setup"))
        workload = workloads.WORKLOADS[args.workload](
            work / "setup", work, args.seed, setup["sizes"])
        tally = {"attempted": 0, "failed": 0}
        coarse = tracing.Tracer()
        workload.instrument(coarse, full=False)
        try:
            if args.trace:
                untraced = measure(workload, coarse, args.seconds / 2, 0, 1, tally)
                coarse.restore()
                tracer = tracing.Tracer()
                workload.instrument(tracer, full=True)
                try:
                    traced = measure(workload, tracer, args.seconds / 2, len(untraced), 1, tally)
                finally:
                    tracer.restore()
            else:
                untraced = measure(workload, coarse, args.seconds, 0, MIN_REPS, tally)
        finally:
            coarse.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        print("error: every repetition failed", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(), "nproc": os.cpu_count(),
                      "setup_reps": len(setup["setup_s"]), "inputs": setup["sizes"]}))
    print(f"failed_ratio {tally['failed'] / tally['attempted']!r} "
          f"({tally['failed']} of {tally['attempted']} operations)")
    if args.trace:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        reps = traced_reps(tracer)
        values = per_layer(reps, traced, untraced, spec)
        metrics = spec["per_layer"]
        print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced")
        print_self_time_shares(reps, traced)
    else:
        values, extra = end_to_end(workload, untraced, setup)
        metrics = spec["end_to_end"]
        print(f"repetitions: {len(untraced)}")
        for name, (value, unit) in extra.items():
            print(f"{name} {value!r} {unit}")
    for metric in metrics:
        print(f"{metric['name']} {values[metric['name']]!r} {metric['unit']}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
