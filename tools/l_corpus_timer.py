"""Time the eight pipeline stages and ``trace`` on the L corpus, each as a
CLI child.

The L corpus is ``tests/synthcorpus.generate(seed=7, n_repos=1,
commits_per_repo=15000, cves_per_repo=6)``, embedded offline, with run
seed 11. Each stage runs as ``python -X importtime -m patchrank.cli <stage>``
in its own child process: its wall time is taken with ``time.perf_counter``
around the child, its CPU seconds (user plus system) and peak RSS from
``os.wait4``, and the summed self time of the ``patchrank`` modules it
imported (which includes compiling them when no bytecode is cached) from the
``-X importtime`` lines on its stderr. After the stages, one ``trace`` child
ranks the CVE dump's first CVE from their artifacts. The corpus is written by
a child too, so that this process stays small and adds little to the
children's peak RSS.

The script prints four Markdown table rows under their header: the stage
walls, their total, the trace wall and the largest peak RSS; then each
stage's and the trace's peak RSS; then each stage's, their total and the
trace's ``patchrank`` import time; then each stage's, their total and the
trace's CPU time. Then it prints the size of the output directory, the size
of each of its top-level directories (``index``, ``vectors``, ...), and the
macro MRR of ``eval/report.json``::

    python3 tools/l_corpus_timer.py [--commits 15000] [--cves 6] [--work DIR] [--label HEAD]

``--commits`` shrinks the corpus for a quick check; ``--cves 30`` gives the
L-30 corpus. Without ``--work`` the corpus and the artifacts go to a
temporary directory that is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")
GENERATE = (
    "import sys; from pathlib import Path; from synthcorpus import generate; "
    "generate(seed=7, n_repos=1, commits_per_repo=int(sys.argv[1]), "
    "cves_per_repo=int(sys.argv[2])).write(Path(sys.argv[3]))"
)
# One child's wall seconds, peak RSS in MB, patchrank import seconds and CPU seconds.
Timing = tuple[float, float, float, float]


def run_child(argv: list[str], env: dict[str, str]) -> Timing:
    """Wall seconds, peak RSS in MB, ``patchrank`` import seconds and CPU
    seconds of one child; exits if it fails."""
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        stderr = proc.stderr.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    imports, other = [], []
    for line in stderr.splitlines():
        (imports if line.startswith("import time:") else other).append(line)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n" + "\n".join(other))
    cpu = usage.ru_utime + usage.ru_stime
    return wall, usage.ru_maxrss / 1024, patchrank_import_s(imports), cpu  # KiB on Linux


def patchrank_import_s(lines: list[str]) -> float:
    """The summed self seconds of the ``patchrank`` modules in ``-X importtime``
    lines, ``import time: <self us> | <cumulative us> | <module>``."""
    fields = [line.removeprefix("import time:").split("|") for line in lines]
    return sum(
        int(us) / 1e6
        for us, _, module in fields
        if module.strip().split(".")[0] == "patchrank" and us.strip().isdigit()
    )


def time_stages(work: Path, commits: int, cves: int) -> dict[str, Timing]:
    """Each stage's and the trace's wall seconds, peak RSS in MB, ``patchrank``
    import seconds and CPU seconds, the stages' output in ``work/out``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    run_child([sys.executable, "-c", GENERATE, str(commits), str(cves), str(work / "input")], env)
    config = work / "config.json"
    config.write_text(
        json.dumps(
            {
                "commit_dump": str(work / "input" / "commits.jsonl"),
                "cve_dump": str(work / "input" / "cves.jsonl"),
                "output_dir": str(work / "out"),
                "seed": 11,
                "offline": True,
            }
        ),
        encoding="utf-8",
    )
    cli = [sys.executable, "-X", "importtime", "-m", "patchrank.cli"]
    timed = {stage: run_child([*cli, stage, "--config", str(config)], env) for stage in STAGES}
    with open(work / "input" / "cves.jsonl", encoding="utf-8") as fh:
        cve_id = json.loads(fh.readline())["cve_id"]
    timed["trace"] = run_child([*cli, "trace", "--config", str(config), "--cve", cve_id], env)
    return timed


def report(label: str, timed: dict[str, Timing], out: Path) -> str:
    walls = [timed[stage][0] for stage in STAGES]
    peaks = [f"{timed[stage][1]:.0f} MB" for stage in STAGES]
    imports = [timed[stage][2] for stage in STAGES]
    cpus = [timed[stage][3] for stage in STAGES]
    trace_wall, trace_rss, trace_imports, trace_cpu = timed["trace"]
    top = f"{max(rss for _, rss, _, _ in timed.values()):.0f} MB"
    cells = [label, *(f"{wall:.2f} s" for wall in walls), f"{sum(walls):.2f} s"]
    cells += [f"{trace_wall:.2f} s", top]
    rss_cells = [f"{label} peak RSS", *peaks, "–", f"{trace_rss:.0f} MB", top]
    import_cells = [f"{label} patchrank imports", *(f"{1e3 * s:.0f} ms" for s in imports)]
    import_cells += [f"{1e3 * sum(imports):.0f} ms", f"{1e3 * trace_imports:.0f} ms", "–"]
    cpu_cells = [f"{label} CPU", *(f"{s:.2f} s" for s in cpus)]
    cpu_cells += [f"{sum(cpus):.2f} s", f"{trace_cpu:.2f} s", "–"]
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    sizes = {
        top.name: sum(p.stat().st_size for p in top.rglob("*") if p.is_file())
        for top in sorted(out.iterdir())
        if top.is_dir()
    }
    mrr = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))["macro"]["mrr"]
    return "\n".join(
        [
            "| code | " + " | ".join(STAGES) + " | total | trace | peak RSS |",
            "|---" * (len(STAGES) + 4) + "|",
            "| " + " | ".join(cells) + " |",
            "| " + " | ".join(rss_cells) + " |",
            "| " + " | ".join(import_cells) + " |",
            "| " + " | ".join(cpu_cells) + " |",
            f"output: {size / 1e6:.1f} MB",
            "by directory: " + ", ".join(f"{n} {b / 1e6:.2f} MB" for n, b in sizes.items()),
            f"macro MRR: {mrr:.3f}",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", type=int, default=15000, help="commits in the one repository")
    parser.add_argument("--cves", type=int, default=6, help="CVEs of the one repository")
    parser.add_argument("--work", type=Path, help="directory for the corpus and the artifacts")
    parser.add_argument("--label", default="HEAD", help="the row's first cell")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        print(report(args.label, time_stages(work, args.commits, args.cves), work / "out"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
