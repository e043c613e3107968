import os
import sys

import run
from measure import REFERENCE_NOMINAL_S, ReferenceTask, faster_half_mean, reference_scale, run_child

# Holds ~64 MiB of touched memory, burns ~0.3 s of CPU, then exits 3.
CHILD = """
import sys, time
block = b"x" * (64 * 1024 * 1024)
start = time.process_time()
while time.process_time() - start < 0.3:
    pass
print("done", len(block))
sys.exit(3)
"""


def test_wait4_reads_the_childs_own_cpu_and_rss(tmp_path):
    result = run_child([sys.executable, "-c", CHILD], env=dict(os.environ), log_dir=tmp_path, label="tiny")
    assert result.returncode == 3
    assert result.stdout.strip() == f"done {64 * 1024 * 1024}"
    assert 0.3 <= result.cpu_s <= result.wall_s + 0.05
    assert 64 <= result.peak_rss_mb < 512


def test_a_small_child_reports_a_small_rss(tmp_path):
    result = run_child([sys.executable, "-c", "pass"], env=dict(os.environ), log_dir=tmp_path, label="small")
    assert result.returncode == 0
    assert result.peak_rss_mb < 64
    assert result.cpu_s < 1.0


def test_reference_task_has_fixed_input_and_takes_time():
    first, second = ReferenceTask(), ReferenceTask()
    assert first.lines == second.lines
    assert (first.array == second.array).all()
    assert first.run() > 0


def test_times_scale_to_nominal_speed():
    # A run whose reference took twice the nominal time ran at half speed.
    scale = reference_scale([2 * REFERENCE_NOMINAL_S, 1.5 * REFERENCE_NOMINAL_S, 3 * REFERENCE_NOMINAL_S])
    assert scale == 0.5
    raw = {name: 0.0 for name in run.END_TO_END}
    raw.update(total_s=8.0, setup_s=2.0, trace_s=1.0, cpu_s=9.0, cves_per_s=3.0, mrr=0.9)
    scaled = run.scale_times(raw, {run.STAGE: scale, run.TRACE: 2.0})
    assert (scaled["total_s"], scaled["setup_s"], scaled["cpu_s"]) == (4.0, 1.0, 4.5)
    assert scaled["trace_s"] == 2.0
    assert scaled["cves_per_s"] == 6.0
    assert scaled["mrr"] == 0.9


def test_faster_half_mean_keeps_the_smaller_half():
    assert faster_half_mean([9.0, 1.0, 2.0, 100.0, 3.0, 5.0]) == 2.0
    assert faster_half_mean([2.0, 4.0, 30.0]) == 2.0
    assert faster_half_mean([7.0]) == 7.0
    assert faster_half_mean([]) == 0.0
