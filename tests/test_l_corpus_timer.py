"""The L-corpus stage timer, run on a 200-commit corpus with 3 CVEs."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "l_corpus_timer.py"


def test_timer_prints_a_row_the_output_size_and_the_mrr(tmp_path):
    """Also a second row, of each stage's peak RSS, and a third, of each
    stage's patchrank import time and their total, and a fourth, of each
    stage's CPU time and their total, and in each the trace's column after the
    total; and the size of each top-level directory."""
    argv = [sys.executable, str(SCRIPT), "--commits", "200", "--cves", "3", "--work", str(tmp_path)]
    done = subprocess.run([*argv, "--label", "x"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header, rule, row, rss_row, import_row, cpu_row, size, by_directory, mrr = lines
    assert header.split(" | ")[1:11] == [
        "ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval", "total", "trace"
    ]
    assert rule == "|---" * 12 + "|"
    cells = row.strip("| ").split(" | ")
    assert cells[0] == "x" and len(cells) == 12
    walls = [float(cell.removesuffix(" s")) for cell in cells[1:11]]
    assert all(wall > 0 for wall in walls) and abs(sum(walls[:8]) - walls[8]) < 0.05
    assert re.fullmatch(r"\d+ MB", cells[11])
    rss_cells = rss_row.strip("| ").split(" | ")
    assert rss_cells[0] == "x peak RSS" and rss_cells[9] == "–" and rss_cells[11] == cells[11]
    peaks = rss_cells[1:9] + rss_cells[10:11]
    assert all(re.fullmatch(r"\d+ MB", cell) for cell in peaks)
    assert max(peaks, key=lambda cell: int(cell.removesuffix(" MB"))) == cells[11]
    import_cells = import_row.strip("| ").split(" | ")
    assert import_cells[0] == "x patchrank imports" and import_cells[11] == "–"
    assert all(re.fullmatch(r"\d+ ms", cell) for cell in import_cells[1:11])
    imports = [int(cell.removesuffix(" ms")) for cell in import_cells[1:11]]
    # Every child imports the package and the pipeline; the total is of the
    # unrounded times.
    assert all(ms > 0 for ms in imports) and abs(sum(imports[:8]) - imports[8]) <= 4
    cpu_cells = cpu_row.strip("| ").split(" | ")
    assert cpu_cells[0] == "x CPU" and cpu_cells[11] == "–"
    assert all(re.fullmatch(r"\d+\.\d\d s", cell) for cell in cpu_cells[1:11])
    cpus = [float(cell.removesuffix(" s")) for cell in cpu_cells[1:11]]
    assert all(cpu > 0 for cpu in cpus) and abs(sum(cpus[:8]) - cpus[8]) < 0.05
    out_mb = sum(p.stat().st_size for p in (tmp_path / "out").rglob("*") if p.is_file()) / 1e6
    assert size == f"output: {out_mb:.1f} MB"
    tops = sorted(p for p in (tmp_path / "out").iterdir() if p.is_dir())
    assert [top.name for top in tops] == [
        "corpus", "eval", "features", "index", "manifests", "model", "prerank", "rank", "vectors"
    ]
    sized = [
        f"{top.name} {sum(p.stat().st_size for p in top.rglob('*') if p.is_file()) / 1e6:.2f} MB"
        for top in tops
    ]
    assert by_directory == "by directory: " + ", ".join(sized)
    assert re.fullmatch(r"macro MRR: [01]\.\d{3}", mrr)
    commits = (tmp_path / "input" / "commits.jsonl").read_text().splitlines()
    assert len(commits) == 200
    assert len((tmp_path / "input" / "cves.jsonl").read_text().splitlines()) == 3
