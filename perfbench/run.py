#!/usr/bin/env python3
"""Benchmark of anglemerge: one workload, one closed-loop run, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload seeded-normal-4000 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
The run prints informational lines, then as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer ones, and every span is written to
``perfbench/out/<workload>.trace.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One call at a time, with no more BLAS threads than the cores we may use.
# Set before numpy is imported, which is when OpenBLAS reads it.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import anglemerge  # noqa: E402
import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import READS_DURING_MERGE, Tracer  # noqa: E402

# Inputs of every workload are hashed at this seed and compared with
# fingerprints.json before each run.
REFERENCE_SEED = 0
SETUP_REPEATS = 3
SWEEP_N = (600, 2000, 4000)
# Threshold tables tabulated during set-up: the `anglemerge bounds` defaults.
BOUND_T_LIST = (11, 51, 101, 151)
BOUND_PARAMS = dict(mean_sep=0.0, var_ratio_sum=10.0)
# Per-layer metrics read straight off the traced calls (median per call).
SPAN_METRICS = (
    "geometry.normalize_rows.s", "geometry.compute_angles.s", "geometry.compute_angles.peak_mb",
    "geometry.acute_square.s", "geometry.acute_square.calls", "geometry.grouped_sums.s",
    "geometry.grouped_sums.peak_mb", "geometry.load_points_csv.s",
    "engine.initial_clustering.s", "engine.initial_clustering.self_s",
    "engine.initial_clustering.peak_mb", "engine.from_labels.s", "engine.run_merging.s",
    "engine.run_merging.self_s", "engine.run_merging.peak_mb", "engine.merge.s",
    "engine.merge.calls", "engine.compute_scores.s", "engine.select_clustering.s",
    "pipeline.cluster_dataset.s", "pipeline.cluster_dataset.self_s", "cli.main.s",
    "cli.main.self_s", "metrics.clustering_error.s", "metrics.nmi.s",
)
SCALING = (  # (metric, span, size it is fitted against)
    ("scaling.compute_angles.slope_N", "geometry.compute_angles.s", "N"),
    ("scaling.grouped_sums.slope_N", "geometry.grouped_sums.s", "N"),
    ("scaling.initial_clustering.slope_N", "engine.initial_clustering.s", "N"),
    ("scaling.run_merging.slope_P", "engine.run_merging.s", "P"),
)


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def import_seconds() -> float:
    """Time to import anglemerge in a fresh interpreter, as a user pays it."""
    code = "import time; t = time.perf_counter(); import anglemerge; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def check_fingerprint(w: workloads.Workload) -> str:
    recorded = json.loads(FINGERPRINTS.read_text())
    actual = workloads.fingerprint(workloads.generate(w, REFERENCE_SEED))
    if recorded.get(w.name) != actual:
        raise BenchmarkError(
            f"inputs of {w.name} at seed {REFERENCE_SEED} hash to {actual}, but "
            f"fingerprints.json records {recorded.get(w.name)}: the workload changed")
    return actual


def tabulate_bounds() -> None:
    params = anglemerge.SeparationParams(**BOUND_PARAMS)
    for t in BOUND_T_LIST:
        report = anglemerge.bound_report(t, params)
        if not (0.0 <= report.eps_t <= 1.0 and 0.0 <= report.delta_t <= 1.0):
            raise BenchmarkError(f"bound_report({t}) is outside [0, 1]: {report}")


def set_up(w, seed, workdir, tracer):
    """Set the workload up SETUP_REPEATS times; return the last cases and the median time.

    One set-up is the import of anglemerge in a fresh interpreter, then in
    this process the input generation, the threshold tables, any CSV writes
    and one warm-up call on a small input of the same workload.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        rep_dir = workdir / f"setup{rep}"
        if tracer is not None:
            tracer.call = f"setup{rep}"
        with tracer.installed() if tracer is not None else nullcontext():
            started = perf_counter()
            datasets = workloads.generate(w, seed)
            tabulate_bounds()
            cases = workloads.prepare(w, datasets, seed, rep_dir)
            warm = workloads.warmup_case(w, seed, rep_dir / "warmup")
            returned = workloads.call(w, warm)
            times.append(imported + perf_counter() - started)
        found = checker.problems(workloads.observe(w, warm, returned)[0])
        if found:
            raise BenchmarkError(f"warm-up call failed the output check: {found}")
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir, ignore_errors=True)
    return cases, statistics.median(times), workloads.fingerprint(datasets)


# Call modes. Spans alone cost little; tracemalloc slows every allocation,
# so stage times come from SPANS calls and stage peaks from MEMORY calls.
UNTRACED, SPANS, MEMORY = 0, 1, 2


def one_call(w, case, tracer, memory):
    """Make one call, timed, and check it. Returns (seconds, outcome, quality, problems)."""
    if memory:
        tracemalloc.start()
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            started = perf_counter()
            returned = workloads.call(w, case)
            elapsed = perf_counter() - started
    finally:
        if memory:
            tracemalloc.stop()
    outcome, quality = workloads.observe(w, case, returned)
    del returned  # free the N x N stores before the next call
    expected_k = None if case.initial_labels is None else np.unique(case.initial_labels).size
    found = checker.problems(outcome, expected_initial_k=expected_k)
    return elapsed, outcome, quality, found


def measure(w, cases, seconds, tracer):
    """Closed loop for ``seconds``: one call at a time, cycling through the cases.

    With a tracer, each case is called untraced, then with spans, then with
    spans and tracemalloc, so that all three see the same inputs and drift;
    the first two give the tracing overhead.
    """
    modes = (UNTRACED, SPANS, MEMORY) if tracer is not None else (UNTRACED,)
    times = {mode: [] for mode in modes}
    quality: dict[int, dict[str, float]] = {}
    initial_k = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted < len(modes) or perf_counter() < deadline:
        mode = modes[attempted % len(modes)]
        index = (attempted // len(modes)) % len(cases)
        if mode != UNTRACED:
            tracer.call = f"{'spans' if mode == SPANS else 'memory'}{attempted}"
        attempted += 1
        try:
            elapsed, outcome, qual, found = one_call(
                w, cases[index], tracer if mode != UNTRACED else None, memory=mode == MEMORY)
        except Exception:  # a raising call is a failed operation; keep measuring
            traceback.print_exc()
            failed += 1
            continue
        if mode != UNTRACED and tracer.counts[tracer.call].get(READS_DURING_MERGE, 0):
            found.append("the merge loop read the angle cache")
        if found:
            print(f"call {attempted - 1} on case {index} failed the check: {found}",
                  file=sys.stderr)
            failed += 1
            continue
        times[mode].append(elapsed)
        quality[index] = qual
        if mode != UNTRACED:
            initial_k.append(outcome.initial_k)
    return times, quality, initial_k, attempted, failed


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 calls beyond it, and its level.

    With fewer than 11 calls no percentile qualifies; the slowest call is
    reported then, at level 100.
    """
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def scaling_sweep(seed):
    """Span-traced runs of seeded-normal-4000 at each size in SWEEP_N; log-log slopes."""
    rows = []
    failed = 0
    for size in SWEEP_N:
        w = replace(workloads.WORKLOADS["seeded-normal-4000"], N=size, datasets=1)
        case = workloads.prepare(w, workloads.generate(w, seed), seed, workdir=None)[0]
        tracer = Tracer()
        tracer.call = f"N{size}"
        with tracer.installed():
            returned = workloads.call(w, case)
        outcome = workloads.observe(w, case, returned)[0]
        del returned
        failed += bool(checker.problems(outcome))
        rows.append({"N": size, "P": outcome.initial_k, **tracer.summary()[tracer.call]})
    slopes = {}
    for metric, span, size in SCALING:
        x = np.log([row[size] for row in rows])
        y = np.log([row[span] for row in rows])
        slopes[metric] = float(np.polyfit(x, y, 1)[0])
    return slopes, rows, failed


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(times, quality, setup_s):
    untraced = times[UNTRACED]
    tail_s, level = tail(untraced)
    print(f"# {len(untraced)} calls: fastest {min(untraced):.6g} s, median "
          f"{statistics.median(untraced):.6g} s, p{level:.1f} {tail_s:.6g} s")
    means = {name: statistics.fmean(q[name] for q in quality.values())
             for name in next(iter(quality.values()))}
    return {
        "cluster_s_min": metric(min(untraced), "s"),
        "cluster_s_tail": metric(tail_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        **{name: metric(value, "ratio") for name, value in means.items()},
    }


def per_layer(tracer, times, initial_k, slopes):
    summary = tracer.summary()

    def rows(prefix):
        return [summary[call] for call in summary if call.startswith(prefix)]

    def median_of(rows, key):
        return statistics.median(row.get(key, 0.0) for row in rows)

    spans, memory, setups = rows("spans"), rows("memory"), rows("setup")
    out = {}
    for name in SPAN_METRICS:
        kind = name.rsplit(".", 1)[1]
        unit = {"s": "s", "self_s": "s", "peak_mb": "MB", "calls": "count"}[kind]
        out[name] = metric(median_of(memory if kind == "peak_mb" else spans, name), unit)
    per_merge = [row["engine.run_merging.s"] / row["engine.merge.calls"] * 1e6
                 for row in spans if row.get("engine.merge.calls")]
    out["engine.per_merge_us"] = metric(statistics.median(per_merge) if per_merge else 0.0, "us")
    out["engine.initial_k"] = metric(statistics.median(initial_k), "count")
    out[READS_DURING_MERGE] = metric(
        max(row.get(READS_DURING_MERGE, 0.0) for row in spans + memory), "count")
    out["synthetic.generate.s"] = metric(median_of(setups, "synthetic.generate.s"), "s")
    out["bounds.bound_report.s"] = metric(median_of(setups, "bounds.bound_report.s"), "s")
    out["trace.overhead_frac"] = metric(min(times[SPANS]) / min(times[UNTRACED]) - 1.0, "ratio")
    out.update({name: metric(value, "exponent") for name, value in slopes.items()})
    return out


def check_names(metrics: dict, trace: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        raise BenchmarkError(f"metrics {printed} do not match BENCHMARK.json {declared}")
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchmarkError(f"metrics {bad} are not finite")


def run(w, seed, seconds, trace, workdir) -> dict:
    check_fingerprint(w)
    tracer = Tracer() if trace else None
    cases, setup_s, inputs = set_up(w, seed, workdir, tracer)
    print(f"# {w.name} seed {seed}: {len(cases)} inputs, sha256 {inputs}")
    times, quality, initial_k, attempted, failed = measure(w, cases, seconds, tracer)
    if not all(times.values()):
        raise BenchmarkError("no call of some tracing mode passed the output check")
    if trace:
        slopes, rows, sweep_failed = scaling_sweep(seed)
        attempted += len(rows)
        failed += sweep_failed
        for row in rows:
            print(f"# sweep N={row['N']} P={row['P']} "
                  f"angles={row['geometry.compute_angles.s']:.3f}s "
                  f"grouped_sums={row['geometry.grouped_sums.s']:.3f}s "
                  f"seeding={row['engine.initial_clustering.s']:.3f}s "
                  f"merging={row['engine.run_merging.s']:.3f}s")
        metrics = per_layer(tracer, times, initial_k, slopes)
        span = metrics["pipeline.cluster_dataset.s"]["value"]
        outside = metrics["pipeline.cluster_dataset.self_s"]["value"]
        print(f"# pipeline.cluster_dataset: {span:.4f} s, of which {outside:.4f} s lies outside "
              f"every stage span; span overhead {metrics['trace.overhead_frac']['value']:.1%}")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{w.name}.trace.json")
    else:
        metrics = end_to_end(times, quality, setup_s)
    check_names(metrics, bool(trace))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(anglemerge.__file__).resolve().is_relative_to(SRC):
        print(f"error: anglemerge was imported from {anglemerge.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                     workdir)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
