"""File formats for count matrices, distributions, reports, and manifests.

Counts and distributions are CSV with a single header line carrying the
metadata; reports, fit results, and manifests are JSON. All writers are
atomic (temp file + rename) and deterministic: rerunning a command with
the same inputs and seed produces byte-identical data files.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution
from .montecarlo import CountsMatrix

_COUNTS_HEADER = re.compile(
    r"#\s*n_max=(\d+)\s+shots=(\d+)\s+overflow=(\d+)\s*$"
)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def counts_to_text(counts: CountsMatrix) -> str:
    lines = [f"# n_max={counts.n_max} shots={counts.shots} overflow={counts.overflow}"]
    for row in counts.counts:
        lines.append(",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def write_counts(counts: CountsMatrix, path: str) -> None:
    atomic_write_text(path, counts_to_text(counts))


def read_counts(path: str) -> CountsMatrix:
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty counts file")
    match = _COUNTS_HEADER.match(lines[0])
    if match is None:
        raise ValueError(f"{path}: missing '# n_max=.. shots=.. overflow=..' header")
    n_max, shots, overflow = (int(x) for x in match.groups())
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != n_max + 1 or any(len(r) != n_max + 1 for r in rows):
        raise ValueError(f"{path}: expected {n_max + 1} rows of {n_max + 1} values")
    return CountsMatrix(
        n_max=n_max, counts=np.array(rows, dtype=np.int64), shots=shots, overflow=overflow
    )


def distribution_to_text(dist: JointDistribution) -> str:
    lines = [f"# n_max={dist.n_max} tail_mass={dist.tail_mass!r}"]
    for row in dist.probs:
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def write_distribution(dist: JointDistribution, path: str) -> None:
    atomic_write_text(path, distribution_to_text(dist))


@dataclass(frozen=True)
class SumDifferenceRow:
    """One populated cell in total/difference coordinates."""

    total: int
    difference: int
    value: float


def sum_difference_view(matrix: np.ndarray) -> list[SumDifferenceRow]:
    """Nonzero cells as (S, D, value) rows with S = n_h + n_v, D = n_h - n_v.

    Rows are ordered by S then D, matching how curves of constant total
    photon number are plotted against the mode difference.
    """
    matrix = np.asarray(matrix)
    rows = []
    for i, j in zip(*np.nonzero(matrix)):
        rows.append(SumDifferenceRow(int(i + j), int(i - j), float(matrix[i, j])))
    rows.sort(key=lambda r: (r.total, r.difference))
    return rows


def sum_difference_to_text(rows: list[SumDifferenceRow]) -> str:
    lines = ["S,D,value"]
    for row in rows:
        lines.append(f"{row.total},{row.difference},{row.value!r}")
    return "\n".join(lines) + "\n"


def write_json(obj: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
