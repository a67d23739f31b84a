"""Command-line surface.

Subcommands:

* ``cluster`` - cluster a CSV dataset end to end, writing a JSON report and
  a labels file. Exit code 0 when the score crossed its threshold, 2 when
  it never did (the detectable failure mode).
* ``synth``   - generate a synthetic dataset as CSV (points + label column).
* ``eval``    - clustering error and NMI for two label files.
* ``bench``   - seeded multi-trial campaign with per-trial and summary rows.
* ``trace``   - per-K score/threshold trace plus angle histograms.
* ``bounds``  - tabulate the threshold bound quantities.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import SeparationParams, bound_report
from .errors import AngleMergeError, DegenerateInputError
from .geometry import (
    DataSet,
    exact_float_labels,
    integer_labels,
    load_points_csv,
    read_numbers,
    save_points_csv,
)
from .metrics import abs_cluster_count_error, clustering_error, nmi
from .pipeline import ClusterRun, cluster_dataset
from .synthetic import (
    DPSpec,
    SubspaceSpec,
    gen_dp,
    gen_subspace_dependent,
    gen_subspace_normal,
    gen_subspace_uniform,
)

REPORT_SCHEMA = 1
HISTOGRAM_BINS = 50

# The report fields of a bench trial row, in column order after "trial".
_BENCH_FIELDS = ("seed", "l_true", "l_hat", "abs_l_error", "ce", "nmi", "crossed", "elapsed_ms")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CROSSING = 2


def _load_label_file(path) -> np.ndarray:
    """One label per line; a line with more values raises
    DegenerateInputError. Integer literals are read exactly at any int64
    size; a file with a float literal such as ``2.0`` is read as floats,
    checked by ``integer_labels`` and held below 2**53 in magnitude by
    ``exact_float_labels``; write every label as an integer to go past it."""
    try:
        labels = read_numbers(path, "label file", dtype=np.int64, ndmin=2)
    except DegenerateInputError:
        labels = read_numbers(path, "label file", ndmin=2)
    if labels.shape[1] != 1:
        raise DegenerateInputError(
            f"label file {path} has {labels.shape[1]} values on a line, not one label")
    labels = labels[:, 0]
    if labels.dtype == np.int64:
        return labels
    return exact_float_labels(integer_labels(labels, labels.size), f"label file {path}")


def _save_label_file(path, labels: np.ndarray) -> None:
    # The bytes of np.savetxt(path, labels, fmt="%d"), without its Python
    # loop over the rows.
    Path(path).write_text("\n".join(map(str, labels.tolist())) + "\n")


def _make_report(run: ClusterRun, seed: int) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "n_points": run.data.n_points,
        "ambient_dim": run.data.ambient_dim,
        "initial_k": run.initial_k,
        "l_hat": run.selection.l_hat,
        "crossed": run.selection.crossed,
        "under_split": run.under_split,
        "elapsed_ms": run.elapsed_ms,
        "trace": run.trace_rows(),
    }
    if run.data.labels is not None:
        report["ce"] = clustering_error(run.data.labels, run.labels)
        report["nmi"] = nmi(run.data.labels, run.labels)
        report["l_true"] = int(np.unique(run.data.labels).size)
        report["abs_l_error"] = abs_cluster_count_error(report["l_true"], run.selection.l_hat)
    return report


def _run_into(args) -> tuple[ClusterRun, Path]:
    """Cluster the ``--input`` CSV and create the ``--out`` directory."""
    data = load_points_csv(args.input, labeled=args.labeled)
    initial = _load_label_file(args.init_labels) if args.init_labels else None
    run = cluster_dataset(data, seed=args.seed, initial_labels=initial)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return run, out


def _cmd_cluster(args) -> int:
    run, out = _run_into(args)
    report = _make_report(run, args.seed)
    # +inf (zeta at t < 2) as the number 1e999, which strict JSON parsers
    # accept and json.loads reads as inf, not as the token Infinity.
    text = json.dumps(report, indent=2).replace("Infinity", "1e999")
    (out / "report.json").write_text(text + "\n")
    _save_label_file(out / "labels.csv", run.labels)
    print(json.dumps({k: report[k] for k in report if k != "trace"}))
    return EXIT_OK if run.selection.crossed else EXIT_NO_CROSSING


def _build_synthetic(args, seed: int) -> DataSet:
    if args.model == "dp":
        spec = DPSpec(
            n=args.n, N=args.num_points, rho=args.rho, sigma=args.sigma,
            alpha=args.alpha, seed=seed,
        )
        return gen_dp(spec)
    spec = SubspaceSpec(n=args.n, r=args.r, L=args.l, N=args.num_points, seed=seed)
    generator = {
        "normal": gen_subspace_normal,
        "uniform": gen_subspace_uniform,
        "dependent": gen_subspace_dependent,
    }[args.model]
    return generator(spec)


def _cmd_synth(args) -> int:
    data = _build_synthetic(args, args.seed)
    save_points_csv(args.out, data)
    print(json.dumps({"written": str(args.out), "n_points": data.n_points, "model": args.model}))
    return EXIT_OK


def _cmd_eval(args) -> int:
    truth = _load_label_file(args.truth)
    pred = _load_label_file(args.pred)
    print(json.dumps({"ce": clustering_error(truth, pred), "nmi": nmi(truth, pred)}))
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise DegenerateInputError(f"--trials must be >= 1, got {args.trials}")
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        run = cluster_dataset(_build_synthetic(args, seed), seed=seed)
        report = _make_report(run, seed)
        row = {"trial": trial, **{field: report[field] for field in _BENCH_FIELDS}}
        row["crossed"] = int(row["crossed"])
        rows.append(row)
    metrics = ("ce", "nmi", "abs_l_error")
    summary = {
        "mean": {m: float(np.mean([r[m] for r in rows])) for m in metrics},
        "median": {m: float(np.median([r[m] for r in rows])) for m in metrics},
        "std": {m: float(np.std([r[m] for r in rows])) for m in metrics},
    }
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        for stat, values in summary.items():
            writer.writerow({"trial": stat, **{m: values[m] for m in metrics}})
    print(json.dumps({"trials": args.trials, "summary": summary}))
    return EXIT_OK


def _write_histogram(path, values: np.ndarray) -> None:
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([f"{lo:.12g}", f"{hi:.12g}", int(count)])


def _cmd_trace(args) -> int:
    run, out = _run_into(args)
    with open(out / "trace.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "gamma", "zeta", "t"])
        for row in run.trace_rows():
            writer.writerow([row["k"], f"{row['gamma']:.12g}", f"{row['zeta']:.12g}", row["t"]])
    if run.merge_run.steps:
        within, between = run.selected_pair_angle_sets()
        _write_histogram(out / "within_hist.csv", within)
        _write_histogram(out / "between_hist.csv", between)
    print(
        json.dumps(
            {"l_hat": run.selection.l_hat, "crossed": run.selection.crossed, "out": str(out)}
        )
    )
    return EXIT_OK if run.selection.crossed else EXIT_NO_CROSSING


def _cmd_bounds(args) -> int:
    if not args.t_list:
        raise DegenerateInputError("--t-list names no sample count")
    params = SeparationParams(mean_sep=args.mean_sep, var_ratio_sum=args.var_ratio_sum)
    rows = []
    for t in args.t_list:
        report = bound_report(t, params)
        rows.append(
            {
                "t": report.t,
                "eps_t": report.eps_t,
                "one_minus_eps": 1.0 - report.eps_t,
                "delta_t": report.delta_t,
                "one_minus_delta": 1.0 - report.delta_t,
                "t_min": "unbounded" if report.t_min_sufficient is None else report.t_min_sufficient,
                "psi": report.psi,
                "alpha_t": report.alpha_t,
                "c": report.c,
                "delta_applies": report.delta_applies,
            }
        )
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        lines = [",".join(rows[0].keys())]
        for row in rows:
            lines.append(
                ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row.values())
            )
        text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _add_synth_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True, choices=["normal", "uniform", "dependent", "dp"],
        help="data model to sample from",
    )
    parser.add_argument("--n", type=int, default=100, help="ambient dimension")
    parser.add_argument("--r", type=int, default=10, help="subspace dimension")
    parser.add_argument("--l", type=int, default=4, help="number of subspaces")
    parser.add_argument("--num-points", type=int, default=1000, help="total points")
    parser.add_argument("--rho", type=float, default=5.0, help="dp centroid spread")
    parser.add_argument("--sigma", type=float, default=1.0, help="dp within-cluster spread")
    parser.add_argument("--alpha", type=float, default=1.0, help="dp concentration")


class _Parser(argparse.ArgumentParser):
    """Makes a malformed command line a typed error: exit 1, not exit 2 (no crossing)."""

    def error(self, message):
        raise DegenerateInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anglemerge",
        description="Parameter-free subspace clustering by angle-distribution merging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = _Parser(add_help=False)  # shared by cluster and trace
    shared.add_argument("--input", required=True, help="points CSV, one point per row")
    shared.add_argument("--labeled", action="store_true", help="final CSV column is the true label")
    shared.add_argument("--seed", type=_seed, default=0)
    shared.add_argument("--init-labels", help="file with one initial cluster id per point")
    shared.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("cluster", parents=[shared], help="cluster a CSV dataset")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    _add_synth_model_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score predicted labels against true labels")
    p.add_argument("--truth", required=True, help="true labels, one integer per line")
    p.add_argument("--pred", required=True, help="predicted labels, one integer per line")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run a seeded multi-trial campaign")
    _add_synth_model_args(p)
    p.add_argument("--seed", type=_seed, default=0, help="seed of the first trial")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("trace", parents=[shared],
                       help="emit the score/threshold trace and angle histograms")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bounds", help="tabulate threshold bound quantities")
    p.add_argument("--t-list", type=_int_list, default=[11, 51, 101, 151])
    p.add_argument("--mean-sep", type=float, default=0.0, help="mean separation ratio")
    p.add_argument("--var-ratio-sum", type=float, default=10.0, help="variance ratio sum")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AngleMergeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
