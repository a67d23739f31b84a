"""Output checker: decides whether one clustering call returned a valid result.

The checks are structural, so they hold for any correct implementation and
do not require a bit-identical merge trace: an optimisation may move the
floating-point scores without being wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXIT_OK = 0
EXIT_NO_CROSSING = 2


@dataclass
class Outcome:
    """What one call returned, in one shape for library and CLI calls."""

    n_points: int
    labels: np.ndarray
    trace_k: list[int]
    gamma: list[float]
    zeta: list[float]
    initial_k: int
    l_hat: int
    crossed: bool
    exit_code: int | None = None  # CLI calls only


def problems(out: Outcome, expected_initial_k: int | None = None) -> list[str]:
    """Every way in which ``out`` is not a valid clustering result; empty if valid."""
    found = []
    labels = np.asarray(out.labels)
    if labels.shape != (out.n_points,) or not np.issubdtype(labels.dtype, np.integer):
        found.append(f"labels have shape {labels.shape} and dtype {labels.dtype}, "
                     f"expected {out.n_points} integers")
        return found
    if expected_initial_k is not None and out.initial_k != expected_initial_k:
        found.append(f"initial_k is {out.initial_k}, expected {expected_initial_k}")
    if list(out.trace_k) != list(range(out.initial_k, 1, -1)):
        found.append(f"trace K values do not run {out.initial_k} .. 2 in descending order")
        return found
    crossings = [k for k, g, z in zip(out.trace_k, out.gamma, out.zeta) if g > z]
    if out.crossed != bool(crossings):
        found.append(f"crossed={out.crossed} but {len(crossings)} trace rows have gamma > zeta")
    if out.crossed:
        if crossings and out.l_hat != max(crossings):
            found.append(f"l_hat={out.l_hat} but the largest crossing K is {max(crossings)}")
        distinct = np.unique(labels).size
        if distinct != out.l_hat:
            found.append(f"labels have {distinct} distinct values, l_hat={out.l_hat}")
    else:
        if out.l_hat != 1:
            found.append(f"no crossing, yet l_hat={out.l_hat}")
        if np.any(labels != 0):
            found.append("no crossing, yet some labels are not 0")
    if out.exit_code is not None:
        expected = EXIT_OK if out.crossed else EXIT_NO_CROSSING
        if out.exit_code != expected:
            found.append(f"exit code {out.exit_code}, expected {expected}")
    return found
