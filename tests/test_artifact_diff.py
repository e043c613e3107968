"""The artifact comparison tool, with this checkout on both sides of a small
benchmark-style workload."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "artifact_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_checkout_on_both_sides_differs_nowhere_until_a_byte_flips(tmp_path):
    tool = load_tool()
    workloads = tool.workloads_module()
    spec = workloads.WorkloadSpec(repos=1, commits=80, cves_per_repo=2)
    generated = workloads.generate("small", 1, spec, tmp_path / "input")
    assert tool.compare({"base": ROOT, "change": ROOT}, generated, tmp_path) == []
    outs = {side: tmp_path / side for side in tool.SIDES}
    names = sorted(p.relative_to(outs["base"]).as_posix() for p in outs["base"].rglob("*.bin"))
    assert "model.json" in {p.name for p in outs["change"].rglob("*")} and len(names) > 3
    flipped = outs["change"] / names[0]
    data = bytearray(flipped.read_bytes())
    data[len(data) // 2] ^= 1
    flipped.write_bytes(bytes(data))
    (outs["base"] / "eval" / "report.json").unlink()
    traces = {"base": {"CVE-1": "a\n", "CVE-2": "b\n"}, "change": {"CVE-1": "a\n", "CVE-2": "c\n"}}
    assert tool.differences(outs, traces) == [
        f"differs: {names[0]}",
        "only in change: eval/report.json",
        "trace differs: CVE-2",
    ]


def test_a_directory_that_is_no_checkout_is_a_usage_error(tmp_path):
    argv = [sys.executable, str(SCRIPT), "--base", str(ROOT), "--change", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert f"--change {tmp_path} is not a patchrank checkout" in done.stderr
