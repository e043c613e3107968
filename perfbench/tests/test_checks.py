import json

import pytest

import checks


def test_macro_quality_matches_hand_computed_fixture():
    rankings = {
        "A": ["c1", "c2", "c3"],
        "B": [f"x{i}" for i in range(1, 13)],
        "C": ["y1", "y2"],
        "D": ["z1"],  # no known patch: not scored
    }
    patches = {"A": ["c2"], "B": ["x11", "x3"], "C": ["nope"], "D": []}
    # A: first patch at 2 -> 1/2, recall@10 1.
    # B: x3 at 3 -> 1/3, x11 is 11th -> recall@10 1/2.
    # C: no patch ranked -> 0 and 0.
    result = checks.macro_quality(rankings, patches, 10)
    assert result["cves"] == 3
    assert result["mrr"] == pytest.approx((1 / 2 + 1 / 3 + 0) / 3)
    assert result["recall@10"] == pytest.approx((1 + 1 / 2 + 0) / 3)


def test_lists_by_cve_orders_by_rank(tmp_path):
    path = tmp_path / "ranking.jsonl"
    records = [
        {"cve_id": "A", "commit_id": "b", "rank": 2},
        {"cve_id": "A", "commit_id": "a", "rank": 1},
        {"cve_id": "B", "commit_id": "c", "rank": 1},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert checks.lists_by_cve(path) == {"A": ["a", "b"], "B": ["c"]}


def test_check_permutations_flags_missing_extra_and_duplicate():
    candidates = {"A": ["a", "b"], "B": ["c", "d"], "C": ["e"], "D": ["f"]}
    ranking = {"A": ["b", "a"], "B": ["c", "c"], "C": ["e", "x"]}
    problems = checks.check_permutations(candidates, ranking)
    assert [p.split(":")[0] for p in problems] == ["B", "C", "D"]


def test_trace_rows_reads_commit_column():
    stdout = (
        "CVE-2021-90000 in bench/repo0 (model: out/model/model.json)\n"
        "rank  commit                                           score  prerank  patch\n"
        "   1  aaaa                                          0.500000        4  *\n"
        "   2  bbbb                                          0.400000        1  \n"
    )
    assert checks.trace_rows(stdout) == ["aaaa", "bbbb"]


def test_digests_cover_every_file(tmp_path):
    (tmp_path / "manifests").mkdir()
    (tmp_path / "manifests" / "rank.manifest.json").write_text(
        json.dumps({"stage": "rank", "outputs": {"ranking": "abc"}})
    )
    (tmp_path / "x.txt").write_text("x")
    assert checks.manifest_digests(tmp_path) == {"rank": {"ranking": "abc"}}
    assert set(checks.tree_digests(tmp_path)) == {"manifests/rank.manifest.json", "x.txt"}
