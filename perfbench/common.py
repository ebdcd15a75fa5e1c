"""Shared pieces of the benchmark workloads: the outcome record and helpers."""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Everything a run writes (scratch data, span files) goes in this directory.
OUT = ROOT / ".perfbench_out"

#: The seven registry families every plane-wide metric is split by.
FAMILIES = ("chen", "bertier", "phi", "quantile", "fixed", "sfd", "ml")

T = TypeVar("T")


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right.

    ``e2e`` holds the end-to-end metrics (tracing off), ``layer`` the
    per-layer metrics of the traced pass, and ``report`` the workload's
    headline figures under their descriptive names for the human summary.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def quantiles_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 99th percentile of durations, in milliseconds."""
    p50, p99 = np.percentile(np.asarray(seconds) * 1e3, [50, 99])
    return float(p50), float(p99)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build: Callable[[int], T], repeats: int = 5) -> tuple[T, float]:
    """Run ``build(i)`` ``repeats`` times; the last result and the median
    wall time of one set-up."""
    times = []
    result = None
    for i in range(repeats):
        start = time.perf_counter()
        result = build(i)
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`OUT`, removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
