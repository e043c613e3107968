"""Child processes measured from their own ``os.wait4`` rusage."""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIB = 1024 * 1024

# Median duration of one ReferenceTask.run() on the baseline machine (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6) in a calm spell. Times scaled
# by reference_scale() are in seconds of that machine at that speed.
REFERENCE_NOMINAL_S = 0.28

_TOKEN = re.compile(r"[a-z_][a-z0-9_]*")


@dataclass
class ChildResult:
    argv: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], *, env: dict[str, str], log_dir: Path, label: str) -> ChildResult:
    """Run ``argv`` to completion and read its CPU time and peak RSS from
    the kernel's accounting of that child alone.

    Output goes to files rather than pipes, so a chatty child cannot block
    on a full pipe while the parent sits in ``wait4``.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / f"{label}.out"
    err_path = log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted: leave no child behind.
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=argv,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class ReferenceTask:
    """A fixed task that tells how fast the machine runs at the moment.

    It does, in small, what a stage child does: start an interpreter that
    imports numpy, count tokens into nested dicts and round-trip them
    through JSON, and sort a numpy array. Its input is fixed and it touches
    no patchrank code, so its duration moves only with the machine. Timed
    right before each stage and trace child of a run, it lets the run's
    times be scaled to a common machine speed (see ``reference_scale``).
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        words = [f"{rng.choice('abcdefgh')}{rng.randrange(400)}" for _ in range(1200)]
        self.lines = [" ".join(rng.choices(words, k=60)) for _ in range(600)]
        self.array = np.random.default_rng(0).random(1_000_000)

    def run(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import json, numpy"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=True,
        )
        postings: dict[str, dict[int, int]] = {}
        for n, line in enumerate(self.lines):
            for token in _TOKEN.findall(line):
                counts = postings.setdefault(token, {})
                counts[n] = counts.get(n, 0) + 1
        json.loads(json.dumps(postings))
        float(np.sort(self.array).sum())
        return time.perf_counter() - start


def reference_scale(reference_s: list[float]) -> float:
    """Factor that turns this run's times into nominal-speed times: the
    nominal reference duration over the median one seen in the run."""
    return REFERENCE_NOMINAL_S / median(reference_s) if reference_s else 1.0


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def faster_half_mean(values: list[float]) -> float:
    """Mean of the smaller half of the values (of the smallest one when
    there are fewer than two). Contention from other tenants only ever
    slows a call down, so the faster calls are closer to the program's own
    cost."""
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, len(ordered) // 2)]) if ordered else 0.0
