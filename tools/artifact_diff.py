"""Compare what two checkouts of patchrank write, on the benchmark workloads.

    python3 tools/artifact_diff.py --base DIR --change DIR [--workload W ...]
        [--seed 1] [--work DIR]

Each workload (all three by default) is generated once, by
``perfbench/workloads.generate`` of this checkout. Then, for the ``src`` of
each checkout in turn, the eight stages and ``trace --top-k 1000`` of every
CVE in the workload's CVE dump run as ``python -m patchrank.cli`` children,
with ``PYTHONDONTWRITEBYTECODE=1`` so that nothing is written into either
checkout. Both sides write to the same output path, one after the other, and
each side's output directory is then moved aside, so a path that a file or a
trace output names is the same on both sides.

The script prints every file under the output directory that differs or that
one side lacks, and every CVE whose trace output differs, then a summary line
per workload. It exits 1 on any difference and 2 if a child fails. Without
``--work``, the workloads and outputs go to a temporary directory that is
removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")
SIDES = ("base", "change")
TRACE_TOP_K = 1000


class ChildFailed(RuntimeError):
    pass


def workloads_module():
    """``perfbench/workloads.py`` of this checkout."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # noqa: PLC0415

    return workloads


def run_side(src: Path, generated, work: Path) -> dict[str, str]:
    """Run the stages and every CVE's trace with the patchrank of ``src`` into
    ``work/out``; each CVE id's trace output."""
    config = work / "config.json"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    options = {"commit_dump": str(generated.commit_dump), "cve_dump": str(generated.cve_dump)}
    config.write_text(json.dumps(options | {"output_dir": str(out)} | generated.config))
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    cli = [sys.executable, "-m", "patchrank.cli"]
    for stage in STAGES:
        _child([*cli, stage, "--config", str(config)], env)
    with open(generated.cve_dump, encoding="utf-8") as fh:
        cve_ids = [json.loads(line)["cve_id"] for line in fh if line.strip()]
    trace = [*cli, "trace", "--config", str(config), "--top-k", str(TRACE_TOP_K)]
    return {cve_id: _child([*trace, "--cve", cve_id], env) for cve_id in cve_ids}


def _child(argv: list[str], env: dict[str, str]) -> str:
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[3:])} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def differences(outs: dict[str, Path], traces: dict[str, dict[str, str]]) -> list[str]:
    """One line per file under the two output directories that differs or
    that one side lacks, then one per CVE whose trace output differs."""
    files = {
        side: {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
        for side, out in outs.items()
    }
    base, change = (files[side] for side in SIDES)
    lines = []
    for name in sorted(base.keys() | change.keys()):
        if name not in change or name not in base:
            lines.append(f"only in {'base' if name in base else 'change'}: {name}")
        elif base[name].read_bytes() != change[name].read_bytes():
            lines.append(f"differs: {name}")
    for cve_id in sorted(traces["base"].keys() | traces["change"].keys()):
        if traces["base"].get(cve_id) != traces["change"].get(cve_id):
            lines.append(f"trace differs: {cve_id}")
    return lines


def compare(checkouts: dict[str, Path], generated, work: Path) -> list[str]:
    """:func:`differences` of the two checkouts' runs on ``generated``, whose
    output directories are kept as ``work/base`` and ``work/change``."""
    outs, traces = {}, {}
    for side in SIDES:
        traces[side] = run_side(checkouts[side] / "src", generated, work)
        outs[side] = work / side
        shutil.rmtree(outs[side], ignore_errors=True)
        (work / "out").rename(outs[side])
    return differences(outs, traces)


def main(argv: list[str] | None = None) -> int:
    workloads = workloads_module()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout compared against")
    parser.add_argument("--change", type=Path, required=True, help="the checkout compared")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="the workloads' generator seed")
    parser.add_argument("--work", type=Path, help="directory for the workloads and the outputs")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base, "change": args.change}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "patchrank" / "cli.py").is_file():
            parser.error(f"--{side} {checkout} is not a patchrank checkout")
    found = False
    with tempfile.TemporaryDirectory() as tmp:
        work_root = (args.work or Path(tmp)).resolve()
        for name in args.workload or sorted(workloads.WORKLOADS):
            work = work_root / name
            spec = workloads.WORKLOADS[name]
            generated = workloads.generate(name, args.seed, spec, work / "input")
            try:
                lines = compare(checkouts, generated, work)
            except ChildFailed as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            for line in lines:
                print(f"{name}: {line}")
            files = sum(1 for p in (work / "base").rglob("*") if p.is_file())
            traces = len(generated.patches_by_cve)
            print(f"{name}: {len(lines)} differences in {files} files and {traces} trace outputs")
            found = found or bool(lines)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
