"""Shared helpers of the benchmark: statistics, timing, environment record."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np


class CheckFailed(RuntimeError):
    """An output, accounting or workload-shape check failed."""


def percentile(values: "Sequence[float]", q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def mean(values: "Iterable[float]") -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def replay(run_round: Callable, budget: float, min_rounds: int = 3) -> "List":
    """Run ``run_round()`` back to back for ``budget`` seconds, and at
    least ``min_rounds`` times; returns the rounds' results in order."""
    rounds = []
    began = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - began < budget:
        rounds.append(run_round())
    return rounds


def per_item(rounds: "Sequence[Sequence[float]]") -> "List[float]":
    """Each item's figure over rounds that repeat the same items: the
    fastest of its times.

    Every round replays the same deterministic work, so a change to the
    program moves an item in every round, while the host's slow spells
    (other tenants of a shared machine taking the core) only ever make
    some rounds slower.  The minimum is what the item costs on a host
    that runs it undisturbed.
    """
    return [min(values) for values in zip(*rounds)]


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator per (seed, tag...) — every input of a
    run derives from ``--seed`` through here."""
    return np.random.default_rng([int(seed), *(int(t) for t in tags)])


def median_setup(build: Callable, repeats: int, discard: Callable):
    """Run ``build()`` ``repeats`` times; keep the last product.

    ``build`` returns ``(product, parts)`` where ``parts`` maps a
    per-layer name to the seconds that layer took inside this build.
    Each product but the last is passed to ``discard`` and dropped
    before the next build starts.  Returns the kept product, the median
    total set-up time and the median of each part, so one slow
    repetition on a shared host does not set the figure.
    """
    totals: "List[float]" = []
    parts: "Dict[str, List[float]]" = {}
    product = None
    for _ in range(repeats):
        if product is not None:
            discard(product)
            product = None
        start = time.perf_counter()
        product, layer_parts = build()
        totals.append(time.perf_counter() - start)
        for name, value in layer_parts.items():
            parts.setdefault(name, []).append(value)
    return (
        product,
        statistics.median(totals),
        {name: statistics.median(v) for name, v in parts.items()},
    )


def stop_children() -> None:
    """Stop and wait for every process this run started.

    The shared-memory transport forks worker processes, and creating a
    segment starts the ``multiprocessing`` resource tracker, a separate
    interpreter that otherwise outlives this process by a moment.  Any
    segment still registered is destroyed first (destroying one talks to
    the tracker, which would start it again once stopped), then every
    worker is joined, then the tracker is stopped and waited for.
    """
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None:
        shm.cleanup_rings()
    for child in multiprocessing.active_children():
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the tracker's pipe and waits for it; a no-op when none runs.
    resource_tracker._resource_tracker._stop()


def cpu_ticks() -> "Tuple[int, int]":
    """``(all ticks, steal ticks)`` of the host's CPUs so far, from
    ``/proc/stat``; ``(0, 0)`` where it does not exist.  Steal is time
    a virtual CPU was ready to run while the hypervisor ran something
    else."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields[1:9]]
    return sum(ticks), ticks[7]


def environment(
    prefixes: "Tuple[str, ...]", removed: "Sequence[str]"
) -> "Dict[str, object]":
    """Interpreter, numpy/BLAS build, thread variables and core count."""
    blas: "Dict[str, object]" = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "configuration": info.get("openblas configuration"),
        }
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown"}
    threads = {
        key: value for key, value in sorted(os.environ.items())
        if key.startswith(prefixes)
    }
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
        "thread_env_removed": list(removed),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
