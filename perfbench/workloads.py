"""The benchmark's workloads: inputs made from a seed, one clustering call
each, and what the call returned, in the checker's shape.

Every name of the program is looked up at call time (``synthetic.gen_*``,
``anglemerge.cluster_dataset``, ``cli.main``), so that a traced run sees the
spans the tracer installed.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import anglemerge
from anglemerge import cli, geometry, synthetic
from checker import Outcome

# Points per caller-supplied initial cluster on the init-labels path.
CHUNK = 50
# Decimals kept when hashing inputs, so that a last-bit difference between
# BLAS builds does not read as a changed generator.
FINGERPRINT_DECIMALS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # synthetic generator: "normal" or "dependent"
    n: int  # ambient dimension
    r: int  # subspace dimension
    L: int  # number of subspaces (the true cluster count)
    N: int  # points per dataset
    datasets: int  # distinct inputs; calls cycle through them
    path: str  # "ally" (library), "init-labels" (library) or "cli"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("seeded-normal-4000", "normal", n=100, r=10, L=10, N=4000, datasets=4,
                 path="ally"),
        Workload("init-labels-wide", "normal", n=1000, r=20, L=8, N=3000, datasets=4,
                 path="init-labels"),
        Workload("cli-dependent-600", "dependent", n=100, r=10, L=12, N=600, datasets=40,
                 path="cli"),
    )
}
# The warm-up input: the same workload at a size that costs little.
WARMUP_N = 300


@dataclass
class Case:
    """One prepared input: the dataset, its seed, and what its path needs."""

    data: geometry.DataSet
    seed: int
    initial_labels: np.ndarray | None = None
    csv: Path | None = None
    out_dir: Path | None = None


def dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate(w: Workload, seed: int) -> list[geometry.DataSet]:
    """The workload's datasets for one benchmark seed."""
    gen = getattr(synthetic, f"gen_subspace_{w.model}")
    return [
        gen(synthetic.SubspaceSpec(n=w.n, r=w.r, L=w.L, N=w.N, seed=dataset_seed(seed, i)))
        for i in range(w.datasets)
    ]


def fingerprint(datasets: list[geometry.DataSet]) -> str:
    digest = hashlib.sha256()
    for data in datasets:
        digest.update(np.round(data.points, FINGERPRINT_DECIMALS).tobytes())
        digest.update(data.labels.tobytes())
    return digest.hexdigest()


def chunk_labels(truth: np.ndarray) -> np.ndarray:
    """Initial labels: each true cluster cut into pure chunks of about CHUNK points."""
    out = np.empty(truth.size, dtype=np.int64)
    next_id = 0
    for value in np.unique(truth):
        members = np.flatnonzero(truth == value)
        for chunk in np.array_split(members, max(1, round(members.size / CHUNK))):
            out[chunk] = next_id
            next_id += 1
    return out


def prepare(w: Workload, datasets, seed: int, workdir: Path) -> list[Case]:
    """Turn datasets into cases; on the CLI path this writes one labeled CSV each."""
    cases = []
    for i, data in enumerate(datasets):
        case = Case(data=data, seed=dataset_seed(seed, i))
        if w.path == "init-labels":
            case.initial_labels = chunk_labels(data.labels)
        elif w.path == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            case.csv = workdir / f"input{i:02d}.csv"
            case.out_dir = workdir / f"out{i:02d}"
            geometry.save_points_csv(case.csv, data)
        cases.append(case)
    return cases


def warmup_case(w: Workload, seed: int, workdir: Path) -> Case:
    small = replace(w, N=WARMUP_N, datasets=1)
    return prepare(small, generate(small, seed), seed, workdir)[0]


def call(w: Workload, case: Case):
    """The timed part: one clustering call, as a user of this path makes it."""
    if w.path == "cli":
        argv = ["cluster", "--input", str(case.csv), "--labeled", "--seed", str(case.seed),
                "--out", str(case.out_dir)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return anglemerge.cluster_dataset(case.data, seed=case.seed,
                                      initial_labels=case.initial_labels)


def observe(w: Workload, case: Case, returned) -> tuple[Outcome, dict[str, float]]:
    """The call's result for the checker, and its quality against the truth.

    A CLI call is read back from the ``report.json`` and ``labels.csv`` it
    wrote; both are removed afterwards, so a later failing call cannot pass
    on a stale report.
    """
    truth = case.data.labels
    if w.path == "cli":
        report_path = case.out_dir / "report.json"
        labels_path = case.out_dir / "labels.csv"
        try:
            report = json.loads(report_path.read_text())
            labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
        finally:
            report_path.unlink(missing_ok=True)
            labels_path.unlink(missing_ok=True)
        rows = report["trace"]
        outcome = Outcome(
            n_points=case.data.n_points, labels=labels, trace_k=[r["k"] for r in rows],
            gamma=[r["gamma"] for r in rows], zeta=[r["zeta"] for r in rows],
            initial_k=report["initial_k"], l_hat=report["l_hat"], crossed=report["crossed"],
            exit_code=returned,
        )
        ce, nmi = report["ce"], report["nmi"]
    else:
        steps = returned.merge_run.steps if returned.merge_run is not None else []
        outcome = Outcome(
            n_points=case.data.n_points, labels=returned.labels,
            trace_k=[s.k for s in steps], gamma=[s.gamma for s in steps],
            zeta=[s.zeta for s in steps], initial_k=returned.initial_k,
            l_hat=returned.selection.l_hat, crossed=returned.selection.crossed,
        )
        ce = anglemerge.clustering_error(truth, outcome.labels)
        nmi = anglemerge.nmi(truth, outcome.labels)
    quality = {
        "accuracy": 1.0 - ce,
        "nmi": nmi,
        "l_hat_exact_frac": float(outcome.l_hat == np.unique(truth).size),
        "crossed_frac": float(outcome.crossed),
    }
    return outcome, quality
